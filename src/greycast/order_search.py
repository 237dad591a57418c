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
order at once, in chunks along a batch axis, with the same failure rules
as :func:`~greycast.models.fit`, :func:`~greycast.models.predict` and
:func:`~greycast.metrics.evaluate`.  It calls the model's own code for
the design (``build_design`` takes the batch), the column scaling, the
placement of (a, b, c), the optimised transform and the response.  Three
stages are the kernel's own, because the shared code would either change
the kernel's bits, and with them the profile CSV, or slow the scalar
path:

- accumulation and restoration (``_convolve``), lag-wise shifted
  multiply-adds, because ``np.convolve`` sums in a different order;
- the normal equations, summed row by row, because BLAS ``@`` sums in a
  different order;
- the pivoted solve (``_solve_batch``), because for one system the
  scalar solve on Python floats is several times faster.

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
    REL_PIVOT_TOL, ModelVariant, _column_scale, _place, _response, _response_terms,
    _training_window, _transform, build_design, fit, predict,
)

__all__ = ["OrderSearchConfig", "OrderSearchResult", "search_order"]

OBJECTIVES = ("rmspe", "rmspepr")

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
    return np.cumprod(factors, axis=0)


def _solve_batch(G: np.ndarray, h: np.ndarray):
    """Batched ``_solve_pivoted``: G is (m, m, B), h is (m, B).

    Returns the solutions (m, B) and a mask of the columns whose system
    is singular under the same REL_PIVOT_TOL rule; those hold garbage.
    """
    m, _, batch = G.shape
    cols = np.arange(batch)
    scale = np.abs(G).max(axis=(0, 1))  # exact: max does not round
    failed = scale == 0.0
    for col in range(m):
        p = col + np.argmax(np.abs(G[col:, col]), axis=0)
        failed |= np.abs(G[p, col, cols]) < REL_PIVOT_TOL * scale
        g_col, g_p = G[col].copy(), G[p, :, cols].T
        G[p, :, cols] = g_col.T
        G[col] = g_p
        h_col, h_p = h[col].copy(), h[p, cols]
        h[p, cols] = h_col
        h[col] = h_p
        for row in range(col + 1, m):
            f = G[row, col] / G[col, col]
            G[row, col:] -= f * G[col, col:]
            h[row] -= f * h[col]
    out = np.empty((m, batch))
    for row in range(m - 1, -1, -1):
        acc = np.zeros(batch)
        for j in range(row + 1, m):
            acc += G[row, j] * out[j]
        out[row] = (h[row] - acc) / G[row, row]
    return out, failed


def _fit_chunk(x, r, variant: ModelVariant, nu: int):
    """Batched ``fit``: active parameters (p, q, g) of every order in ``r``
    (B,) and a mask of the orders whose fit fails."""
    xr = _convolve(_kernels(r, nu, forward=True), x[:nu, None])
    B, d = build_design(xr, variant)
    scale = _column_scale(B)
    B /= scale
    # normal equations, summed row by row
    G = _sum0(row[:, None] * row[None, :] for row in B)
    h = _sum0(row * d_row for row, d_row in zip(B, d))
    phi, failed = _solve_batch(G, h)
    p, q, g = _place(phi / scale, variant)
    if variant.optimized:
        failed |= (p == 0) | (np.abs(p) >= 2)
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
