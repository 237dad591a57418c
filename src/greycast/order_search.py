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

A numpy kernel scores every grid order at once, in chunks along a batch
axis, and gives each order exactly the objective that
:func:`~greycast.models.fit`, :func:`~greycast.models.predict` and
:func:`~greycast.metrics.evaluate` give it, failures included.  It runs
their own code on one column per order: the accumulation and
restoration, the batched fit (:func:`~greycast.models._fit_batch`, the
least-squares solve of ``solve_least_squares`` with the transform of
``optimize_params``) and the response, and it sums the RMSPE with
``evaluate``'s ``_rms_pct``.  Only design column -z depends on the order,
so the (2k - 1)/2 and intercept columns, their scales and their
Householder reflectors are computed once and shared.  An order's score
depends on that order alone, never on the chunk it falls in or on the
grid around it.  The result is the smallest score, ties going to the
smaller order, as a candidate-by-candidate scalar scan picks it.  A
grid of at most :data:`SCALAR_GRID` orders goes through that scan itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accumulation import _convolve, _weights
from .errors import GreycastError, NoFeasibleOrder
from .metrics import _check_pair, _rms_pct, evaluate
from .models import (
    ModelVariant, _fit_batch, _response, _response_terms, _training_window, fit, predict,
)

__all__ = ["OrderSearchConfig", "OrderSearchResult", "search_order"]

OBJECTIVES = ("rmspe", "rmspepr")

#: Grids of at most this many orders are scored candidate by candidate
#: through fit/predict/evaluate, whose bits the kernel gives too, so that a
#: tracer of the public functions (perfbench's) sees every order's calls.
#: The kernel is faster from 2 orders on; such a grid costs about 1 ms.
SCALAR_GRID = 8

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


def _score_chunk(x, r, variant: ModelVariant, nu: int, objective: str) -> np.ndarray:
    """Objective of every order in ``r`` (B,) on series ``x``; NaN where the fit fails."""
    n = x.size
    base, opt, failed = _fit_batch(_convolve(x[:nu, None], _weights(r, nu, forward=True)), variant)
    p, q, g = base if opt is None else opt
    if variant.order_locked:
        failed |= r != 1.0
    # time_response -> predict
    kk = np.arange(1, n + 1, dtype=float)[:, None]
    xr_hat = _response(x[0], p, _response_terms(x[0], p, q, g), kk)
    restored = _convolve(xr_hat, _weights(r, n, forward=False))
    # evaluate, on C-contiguous rows, which _rms_pct sums as one series;
    # predict fails a non-finite value also where the objective does not look
    scored = nu if objective == "rmspepr" else n
    failed |= ~np.isfinite(restored[scored:]).all(axis=0)
    rel = (restored[:scored] - x[:scored, None]) / x[:scored, None]
    out = np.array(_rms_pct(np.ascontiguousarray(rel.T)))
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
    if rs.size <= SCALAR_GRID:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            scores = np.array([_scalar_objective(values, r, cfg, nu) for r in rs.tolist()])
    else:
        scores = _score_grid(values, rs, cfg.variant, nu, cfg.objective)
    ok = ~np.isnan(scores)
    best = int(np.nanargmin(scores)) if ok.any() else None  # the first of equal minima

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
        n_failed=int(rs.size - ok.sum()),
    )
