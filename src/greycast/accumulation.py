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

``fit``/``predict``, the sweep and the order-search kernel all call
:func:`_weights` and :func:`_convolve`, which round one way: w(i) =
w(i-1) * ((r+i-1)/i) (inverse: ``((i-1-r)/i)``), and output k is 0.0 +
w(0) x[k] + w(1) x[k-1] + ... + w(k) x[0], added left to right.  So a
series gives the same bits alone, in a batch or at a batch of orders, and
output k depends only on lags up to k.  BLAS and ``np.convolve`` group
the sum by length and library build, so neither is used.
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

_DENSE_MAX = 512  # longest series summed as one (n, n) product, not lag by lag


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


def _check_length(n) -> int:
    n = _whole(n)
    if n < 1:
        raise ValueError(f"kernel length must be >= 1, got {n}")
    return n


def _weights(r, n: int, forward: bool, out=None) -> np.ndarray:
    """Forward or inverse lag weights 0..n-1 of order ``r``: an (n,) array
    for a float r, built on Python floats, which round as float64 elements
    do and never warn, or one column per order of a (B,) array of r,
    written to ``out``, an (n, B) array, when given."""
    if isinstance(r, float):
        w, weights = 1.0, [1.0]
        for i in range(1, n):
            w *= (r + i - 1) / i if forward else (i - 1 - r) / i
            weights.append(w)
        return np.array(weights)
    i = np.arange(1.0, n)[:, None]
    out = np.empty((n, r.size)) if out is None else out
    out[0] = 1.0
    step = out[1:]
    if forward:  # (r + i - 1) / i
        np.add(r, i, out=step)
        step -= 1
    else:  # (i - 1 - r) / i
        np.subtract(i - 1, r, out=step)
    step /= i
    with np.errstate(over="ignore", invalid="ignore"):
        for lag in range(2, n):
            out[lag] *= out[lag - 1]
    return out


def _lags(v: np.ndarray) -> np.ndarray:
    """(n, n) view of a 1-d ``v`` after n - 1 zeros: entry (j, k) is
    v[k - j], and 0.0 where k < j."""
    n = v.size
    padded = np.zeros(2 * n - 1)
    padded[n - 1 :] = v
    return np.ndarray((n, n), buffer=padded, offset=8 * (n - 1), strides=(-8, 8))


@np.errstate(over="ignore", invalid="ignore")  # as np.convolve, which never warns
def _convolve(x: np.ndarray, w: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Truncated convolution along axis 0 of ``x``, (n,) or (n, B), with
    weights ``w``, (n,) or (n, B); trailing axes broadcast as a batch.

    A batch runs the lag loop, each lag's products going to ``scratch``
    and their sum to ``out``, arrays of the result's shape (new ones when
    not given).  One series with finite weights and no ``out`` sums the
    rows of its :func:`_lags` view times the weights instead: the same
    products in the same order, in three numpy calls.  The padded zeros
    add nothing (a finite weight times 0.0 is +-0.0, and a sum from 0.0 is
    never -0.0); a non-finite weight times 0.0 is NaN.
    """
    n = x.shape[0]
    if out is None:
        if x.ndim == w.ndim == 1 and n <= _DENSE_MAX and math.isfinite(sum(w.tolist())):
            return np.add.reduce(w[:, None] * _lags(x), axis=0, initial=0.0)
        out = np.zeros((n,) + np.broadcast_shapes(x.shape[1:], w.shape[1:]))
    else:
        out.fill(0.0)
    scratch = np.empty(out.shape) if scratch is None else scratch
    for lag in range(n):
        tail = out[lag:]
        np.add(tail, np.multiply(w[lag], x[: n - lag], out=scratch[: n - lag]), out=tail)
    return out


def forward_coeffs(r, n) -> np.ndarray:
    """First ``n`` forward kernel weights, lags 0..n-1.

    Built by the recurrence w(i) = w(i-1) * ((r+i-1)/i), which avoids
    factorial overflow; at r = 1 every weight is exactly 1.
    """
    return _weights(_check_order(r), _check_length(n), forward=True)


def inverse_coeffs(r, n) -> np.ndarray:
    """First ``n`` inverse kernel weights, lags 0..n-1.

    Built by the recurrence w(i) = w(i-1) * ((i-1-r)/i).  For integer r
    the weights beyond lag r are exactly 0; for fractional r none
    vanishes, which the inverse property needs.
    """
    return _weights(_check_order(r), _check_length(n), forward=False)


def accumulate(values, r) -> np.ndarray:
    """Apply the r-AGO to a series.

    Equivalent to right-multiplying the row vector by :func:`ago_matrix`,
    but runs as a single truncated convolution.  Element 1 of the result
    always equals element 1 of the input.
    """
    values = _check_series(values)
    return _convolve(values, forward_coeffs(r, values.size))


def inverse_accumulate(values, r) -> np.ndarray:
    """Apply the r-IAGO; exact two-sided inverse of :func:`accumulate`."""
    values = _check_series(values)
    return _convolve(values, inverse_coeffs(r, values.size))


def ago_matrix(n, r) -> np.ndarray:
    """n-by-n r-AGO matrix: entry (i, j) is the forward weight at lag j - i.

    Upper triangular with a unit diagonal, hence determinant 1.
    """
    return _lags(forward_coeffs(r, n)).copy()


def iago_matrix(n, r) -> np.ndarray:
    """n-by-n r-IAGO matrix, the inverse of :func:`ago_matrix`."""
    return _lags(inverse_coeffs(r, n)).copy()
