"""Fractional accumulated generating operation (r-AGO) and its inverse.

The r-AGO of a series x(1..n) is

    x_r(k) = sum_{i=1..k} w(k - i) * x(i),    w(i) = r(r+1)...(r+i-1) / i!

which generalises the repeated cumulative sum to fractional order r > 0
(r = 1 gives the plain cumulative sum).  The inverse operation convolves
with w_inv(i) = (-1)^i * C(r, i) and restores the original series; the
corresponding upper-triangular matrices are exact inverses of each other
for every r > 0, which is what makes forecast restoration lossless.

Formulas and docs are 1-indexed (series element k = 1..n); storage is
0-indexed, so ``x[k - 1]`` holds element k and kernel entry i is the
weight at lag i.
"""

from __future__ import annotations

import math

import numpy as np

from .datasets import _whole

__all__ = [
    "forward_coeffs",
    "inverse_coeffs",
    "accumulate",
    "inverse_accumulate",
    "ago_matrix",
    "iago_matrix",
]


def _check_order(r) -> float:
    r = float(r)
    if not math.isfinite(r):
        raise ValueError(f"fractional order must be finite, got {r!r}")
    if r <= 0:
        raise ValueError(f"fractional order must be > 0, got {r!r}")
    return r


def _check_series(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("expected a nonempty 1-d series")
    return values


def forward_coeffs(r, n) -> np.ndarray:
    """First ``n`` forward kernel weights, lags 0..n-1.

    Built by the recurrence w(i) = w(i-1) * (r+i-1) / i, which avoids
    factorial overflow; at r = 1 every weight is exactly 1.  The
    recurrence runs on Python floats, which round exactly as float64
    array elements do.
    """
    r = _check_order(r)
    n = _whole(n)
    if n < 1:
        raise ValueError(f"kernel length must be >= 1, got {n}")
    w = 1.0
    out = [w]
    for i in range(1, n):
        w = w * (r + i - 1) / i
        out.append(w)
    return np.array(out)


def inverse_coeffs(r, n) -> np.ndarray:
    """First ``n`` inverse kernel weights, lags 0..n-1.

    Built by the recurrence w(i) = w(i-1) * (i-1-r) / i.  For integer r
    the weights beyond lag r are exactly 0; for fractional r none
    vanishes, which the inverse property needs.
    """
    r = _check_order(r)
    n = _whole(n)
    if n < 1:
        raise ValueError(f"kernel length must be >= 1, got {n}")
    w = 1.0
    out = [w]
    for i in range(1, n):
        w = w * (i - 1 - r) / i
        out.append(w)
    return np.array(out)


def accumulate(values, r) -> np.ndarray:
    """Apply the r-AGO to a series.

    Equivalent to right-multiplying the row vector by :func:`ago_matrix`,
    but runs as a single truncated convolution.  Element 1 of the result
    always equals element 1 of the input.
    """
    values = _check_series(values)
    kernel = forward_coeffs(r, values.size)
    return np.convolve(values, kernel)[: values.size]


def inverse_accumulate(values, r) -> np.ndarray:
    """Apply the r-IAGO; exact two-sided inverse of :func:`accumulate`."""
    values = _check_series(values)
    kernel = inverse_coeffs(r, values.size)
    return np.convolve(values, kernel)[: values.size]


def _triangular(coeffs: np.ndarray) -> np.ndarray:
    n = coeffs.size
    j = np.arange(n)
    lag = j[None, :] - j[:, None]
    return np.where(lag >= 0, coeffs[np.clip(lag, 0, n - 1)], 0.0)


def ago_matrix(n, r) -> np.ndarray:
    """n-by-n r-AGO matrix: entry (i, j) is the forward weight at lag j - i.

    Upper triangular with a unit diagonal, hence determinant 1.
    """
    return _triangular(forward_coeffs(r, n))


def iago_matrix(n, r) -> np.ndarray:
    """n-by-n r-IAGO matrix, the inverse of :func:`ago_matrix`."""
    return _triangular(inverse_coeffs(r, n))
