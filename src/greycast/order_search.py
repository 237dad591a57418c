"""Exhaustive grid search for the fractional accumulation order.

The objective surface is not guaranteed unimodal in r, so the search
scans a regular grid and keeps the best candidate, breaking ties toward
the smaller order.  Candidates whose fit fails (singular design,
out-of-range development coefficient, non-finite objective) are skipped
rather than aborting the scan.

The default objective scores the model's restored values against the
whole provided series (RMSPE over all n points, fitted on the first
nu).  That matches how the published reference orders were evidently
chosen; pass ``objective="rmspepr"`` to restrict scoring to the
training window instead.

The scan runs in two stages.  A numpy kernel first scores every grid
order at once, in chunks along a batch axis, with the failure rules of
:func:`~greycast.models.fit`, :func:`~greycast.models.predict` and
:func:`~greycast.metrics.evaluate` (for a singular design, a pivot rule
on the normal equations in place of fit's rank test on R).  It calls the
model's own code for the design's columns (``_design_columns``, which
``build_design`` assembles, takes the batch), the column scaling, the
placement of (a, b, c), the optimised transform and the response.  Only
design column 0, -z, depends on the order: the (2k - 1)/2 and intercept
columns, their scales and their block G[1:, 1:] of the normal matrix are
the same for every order in a chunk, so the kernel computes them once
per chunk and shares them.  Two stages are the kernel's own, because the
shared code would either change the kernel's bits, and with them the
profile CSV, or cost more than the kernel saves:

- accumulation and restoration (``_convolve``), lag-wise shifted
  multiply-adds, because ``np.convolve`` sums in a different order;
- the least-squares solve: the normal equations, summed row by row, and
  a pivoted elimination on them (``_solve_batch``).  ``fit`` solves by a
  Householder QR instead, which does not square the design's condition
  number, but one stacked QR of the default grid's 19,901 systems of size
  10x4 takes 16-27 ms, against 20-35 ms for the whole kernel on the
  14-point oilfield series, timed side by side (2-vCPU x86-64, numpy 2.4
  on OpenBLAS; the host's speed drifted between runs).  The kernel only
  ranks candidates; the rescoring below decides the result.

The kernel uses elementwise operations only and sums in index order, so
an order's score depends on that order alone, never on the chunk it
falls in or on the grid around it.  Its sums run in a different order
from the scalar pipeline's, so the two agree only to roundoff, which the
response's b/a and c/a terms amplify where a nears 0.  The
:data:`RESCORE` best kernel candidates are then scored again through
``fit``/``predict``/``evaluate``; those values replace the kernel's in
the profile, and the smallest of them is the result, ties going to the
smaller order.  The returned objective is therefore always exactly what
the public functions give at the returned order.  On a plateau where
every order ties at roundoff (a flat series under ``fagmo``, say), which
order wins is decided by roundoff and may differ from a
candidate-by-candidate scalar scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GreycastError, NoFeasibleOrder
from .metrics import _check_pair, evaluate
from .models import (
    A_FLOOR, ModelVariant, _column_scale, _design_columns, _place, _response,
    _response_terms, _training_window, _transform, fit, predict,
)

__all__ = ["OrderSearchConfig", "OrderSearchResult", "search_order"]

OBJECTIVES = ("rmspe", "rmspepr")

#: Relative pivot threshold below which the kernel's normal equations are
#: treated as singular.
REL_PIVOT_TOL = 1e-12

#: Number of best kernel candidates scored again through the scalar
#: pipeline; the result is the best of them.
RESCORE = 32

#: Elements per (series length x orders) working array of the kernel.
#: Bounds how many orders one chunk scores, and with it the kernel's memory.
CHUNK_ELEMENTS = 1 << 14


#: Most orders one grid may hold: 500 times the default grid's 19,901,
#: about 160 MB for the orders and their scores.
MAX_GRID = 10**7


@dataclass(frozen=True)
class OrderSearchConfig:
    """Grid, objective, variant and training window of :func:`search_order`,
    checked when built: 0 < r_min < r_max < inf, a finite step > 0 giving at
    most MAX_GRID orders, an objective in OBJECTIVES and a ModelVariant; the
    search checks nu."""

    r_min: float = 0.01
    r_max: float = 2.0
    step: float = 0.0001
    objective: str = "rmspe"
    variant: ModelVariant = ModelVariant.FAGMO11K
    nu: int | None = None

    def __post_init__(self):
        if not (0 < self.r_min < self.r_max < math.inf):
            raise ValueError(
                f"need 0 < r_min < r_max < inf, got [{self.r_min}, {self.r_max}]"
            )
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be > 0, got {self.step!r}")
        if _grid_size(self) > MAX_GRID:
            raise ValueError(f"step {self.step!r} gives more than {MAX_GRID} orders")
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"objective must be one of {OBJECTIVES}, got {self.objective!r}"
            )
        if not isinstance(self.variant, ModelVariant):
            raise ValueError(f"variant must be a ModelVariant, got {self.variant!r}")


@dataclass(frozen=True)
class OrderSearchResult:
    r: float
    objective_value: float
    objective: str
    n_candidates: int
    n_failed: int


def _grid_size(cfg: OrderSearchConfig):
    """Number of orders in the grid; inf when the step is too fine to count them."""
    span = (cfg.r_max - cfg.r_min) / cfg.step + 1e-9
    return math.floor(span) + 1 if span < math.inf else math.inf


def _grid(cfg: OrderSearchConfig) -> np.ndarray:
    # Index-based so that halving the step yields a bitwise superset grid.
    return cfg.r_min + np.arange(_grid_size(cfg)) * cfg.step


def _sum0(arrays) -> np.ndarray:
    """Sum of equal-shaped arrays (the rows of an array, say) in the order given.

    Spelled out so that each output element is always added up the same
    way, whatever the shape or memory layout of the batch it sits in;
    numpy's own reductions may regroup terms (pairwise summation).
    """
    arrays = iter(arrays)
    out = next(arrays).copy()
    for a in arrays:
        out += a
    return out


def _convolve(kernel: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Truncated convolution of each column of ``kernel`` with ``x``.

    ``kernel`` is (n, B) and ``x`` is (n, 1) or (n, B); lag-wise shifted
    multiply-adds, the batched form of accumulate/inverse_accumulate.
    """
    n = kernel.shape[0]
    out = np.zeros(kernel.shape)
    for lag in range(n):
        out[lag:] += kernel[lag] * x[: n - lag]
    return out


def _kernels(r: np.ndarray, n: int, forward: bool) -> np.ndarray:
    """Forward or inverse accumulation weights, lags 0..n-1, one column per order."""
    i = np.arange(1, n, dtype=float)[:, None]
    factors = np.empty((n, r.size))
    factors[0] = 1.0
    factors[1:] = (r + i - 1) / i if forward else (i - 1 - r) / i
    for lag in range(2, n):  # np.cumprod's products in its order, faster
        factors[lag] *= factors[lag - 1]
    return factors


def _solve_batch(G: np.ndarray, h: np.ndarray):
    """Gaussian elimination with partial pivoting on a batch of normal
    equations: G is (m, m, B), h is (m, B).

    Returns the solutions (m, B) and a mask of the columns whose system
    is singular, where a pivot falls below REL_PIVOT_TOL times the largest
    entry of G; those hold garbage.
    """
    m = G.shape[0]
    scale = np.abs(G).max(axis=(0, 1))  # exact: max does not round
    failed = scale == 0.0
    for col in range(m):
        size = np.abs(G[col:, col])
        p = np.argmax(size, axis=0)
        failed |= size.max(axis=0) < REL_PIVOT_TOL * scale  # the size at p
        # Swap rows col and col + p from column col on (the columns left of
        # it are read no more); row col swaps with at most one row below.
        g_col, h_col = G[col, col:].copy(), h[col].copy()
        for row in range(col + 1, m):
            swap = p == row - col
            G[col, col:] = np.where(swap, G[row, col:], G[col, col:])
            G[row, col:] = np.where(swap, g_col, G[row, col:])
            h[col] = np.where(swap, h[row], h[col])
            h[row] = np.where(swap, h_col, h[row])
        for row in range(col + 1, m):
            f = G[row, col] / G[col, col]
            G[row, col:] -= f * G[col, col:]
            h[row] -= f * h[col]
    out = np.empty(h.shape)
    for row in range(m - 1, -1, -1):
        acc = np.zeros(h.shape[1])
        for j in range(row + 1, m):
            acc += G[row, j] * out[j]
        out[row] = (h[row] - acc) / G[row, row]
    return out, failed


def _fit_chunk(x, r, variant: ModelVariant, nu: int):
    """Batched ``fit``: active parameters (p, q, g) of every order in ``r``
    (B,) and a mask of the orders whose fit fails."""
    xr = _convolve(_kernels(r, nu, forward=True), x[:nu, None])
    (z, *const), d = _design_columns(xr, variant)
    const = np.concatenate(const, axis=1)
    z_scale, const_scale = _column_scale(z), _column_scale(const)
    z /= z_scale
    const /= const_scale
    # The normal equations G phi = h, summed row by row.  Only column 0
    # (-z) depends on the order: one pass sums the products that hold it
    # or d, G[1:, 1:] is summed once and shared, and G[j, 0] = G[0, j]
    # exactly, as x * y == y * x.
    m = 1 + const.shape[1]
    rows = np.empty((d.shape[0], 2 * m, r.size))  # z*z, z*const, z*d, d*const
    np.multiply(z, z, out=rows[:, 0])
    np.multiply(const[:, :, None], z[:, None], out=rows[:, 1:m])
    np.multiply(z, d, out=rows[:, m])
    np.multiply(const[:, :, None], d[:, None], out=rows[:, m + 1 :])
    sums = _sum0(rows)
    G = np.empty((m, m, r.size))
    G[0] = sums[:m]
    G[1:, 0] = sums[1:m]
    G[1:, 1:] = _sum0(row[:, None] * row[None, :] for row in const)[:, :, None]
    phi, failed = _solve_batch(G, sums[m:])
    phi[0] /= z_scale
    phi[1:] /= const_scale[:, None]
    p, q, g = _place(phi, variant)
    if variant.optimized:
        failed |= (np.abs(p) < A_FLOOR) | (np.abs(p) >= 2)
        p, q, g = _transform(p, q, g, np.log)
    if variant.order_locked:
        failed |= r != 1.0
    return p, q, g, failed


def _score_chunk(x, r, variant: ModelVariant, nu: int, objective: str) -> np.ndarray:
    """Objective of every order in ``r`` (B,) on series ``x``; NaN where the fit fails."""
    n = x.size
    p, q, g, failed = _fit_chunk(x, r, variant, nu)
    # time_response -> predict
    kk = np.arange(1, n + 1, dtype=float)[:, None]
    xr_hat = _response(x[0], p, _response_terms(x[0], p, q, g), kk)
    restored = _convolve(_kernels(r, n, forward=False), xr_hat)
    # evaluate
    rel = (restored - x[:, None]) / x[:, None]
    if objective == "rmspepr":
        rel = rel[:nu]
    out = np.sqrt(_sum0(rel**2) / rel.shape[0]) * 100.0
    out[failed | ~np.isfinite(out)] = np.nan
    return out


def _score_grid(values, rs, variant: ModelVariant, nu: int, objective: str) -> np.ndarray:
    """Kernel objective of every order in ``rs``, NaN where the fit fails."""
    rows = max(1, CHUNK_ELEMENTS // values.size)
    with np.errstate(all="ignore"):
        return np.concatenate(
            [
                _score_chunk(values, rs[i : i + rows], variant, nu, objective)
                for i in range(0, rs.size, rows)
            ]
        )


def _scalar_objective(values, r: float, cfg: OrderSearchConfig, nu: int) -> float:
    try:
        model = fit(values, r, cfg.variant, nu)
        report = evaluate(values, predict(model, 0), nu)
    except GreycastError:
        return math.nan
    val = report.rmspe if cfg.objective == "rmspe" else report.rmspepr
    return val if math.isfinite(val) else math.nan


def search_order(values, config: OrderSearchConfig | None = None, profile_path=None):
    """Scan the order grid and return the best candidate.

    Writes the full (r, objective, status) profile as CSV when
    ``profile_path`` is given.  Raises TooFewSamples when the training
    window ``nu`` is below 4 or longer than the series, ZeroObserved when
    the series holds a 0 (percentage errors are undefined),
    NonFiniteResult when it holds a NaN or inf, and NoFeasibleOrder when
    every grid point fails.
    """
    cfg = config if config is not None else OrderSearchConfig()
    values, nu = _training_window(values, cfg.nu)
    _check_pair(values, values)  # a 0, NaN or inf makes evaluate reject every order

    rs = _grid(cfg)
    scores = _score_grid(values, rs, cfg.variant, nu, cfg.objective)
    ok = np.flatnonzero(~np.isnan(scores))
    ranked = ok[np.argsort(scores[ok], kind="stable")]

    best = None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for done, i in enumerate(ranked.tolist()):
            if done >= RESCORE and best is not None:
                break
            scores[i] = _scalar_objective(values, float(rs[i]), cfg, nu)
            if not math.isnan(scores[i]) and (
                best is None or (scores[i], i) < (scores[best], best)
            ):
                best = i

    if profile_path is not None:
        with open(profile_path, "w", encoding="utf-8", newline="") as fh:
            fh.write("r,objective,status\n")
            for r, val in zip(rs.tolist(), scores.tolist()):
                fh.write(f"{r!r},{val!r},{'error' if math.isnan(val) else 'ok'}\n")

    if best is None:
        raise NoFeasibleOrder(
            f"no order in [{cfg.r_min}, {cfg.r_max}] produced a valid fit"
        )
    return OrderSearchResult(
        r=float(rs[best]),
        objective_value=float(scores[best]),
        objective=cfg.objective,
        n_candidates=int(rs.size),
        n_failed=int(np.isnan(scores).sum()),
    )
