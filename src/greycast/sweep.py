"""Stochastic parameter-recovery sweep over the (r, alpha) plane.

Each grid cell draws drift and initial-value parameters, generates an
exact synthetic series from the optimised response function, fits the
plain and optimised models at the true order, and records the squared
parameter-recovery error of each together with the in-sample RMSPE of
the restored values.  The optimised transform removes the trapezoid
discretisation mismatch, so its recovery error sits at roundoff level
while the plain model's error grows with |alpha|.

The sweep runs one r row of the grid at a time.  The accumulation
kernels of the row are built once.  The response (its parameter terms and
their evaluation), the design, its column scaling, the least-squares
solve and the RMSPE each run once over the whole row, because their
batched forms give the same bits as the scalar calls: the solve is one
stacked LAPACK QR of the row's scaled ``[B | Y]`` matrices, followed by
the back-substitution of :func:`~greycast.models.solve_least_squares` on
arrays over the row's cells.  Everything else stays per cell, because no
batched form of it does: each ``np.convolve``, and the transform to
(alpha, beta, gamma) (``math.log`` and ``np.log`` may differ in the last
bit).  The plain and optimised variants solve the same design, so the
least-squares solve runs once per cell, and the optimised parameters come
from the plain model's (a, b, c), exactly as
:func:`~greycast.models.fit` computes them for the optimised variant.
The CSV bytes are therefore those of a cell built with
``generate_synthetic``, ``fit``, ``predict`` and ``evaluate``.

Determinism: every cell owns a PCG64 generator seeded with
``SeedSequence([seed, r_index, alpha_index])`` (numpy's default_rng),
drawing beta, gamma, x0 in that order.  Cell results therefore depend
only on the seed and grid indices, never on execution order, and reruns
are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accumulation import _check_order, forward_coeffs, inverse_accumulate, inverse_coeffs
from .datasets import _whole
from .errors import GreycastError
from .metrics import _rms_pct, _unscorable
# fit is not called here, but perfbench's tracer test looks it up as
# greycast.sweep.fit.
from .models import (
    REL_RANK_TOL, BaseParams, ModelVariant, _back_substitute, _column_scale,
    _householder_r, _place, _response, _response_terms, build_design, fit, optimize_params,
)

__all__ = [
    "SweepConfig",
    "SweepCell",
    "generate_synthetic",
    "eps_params",
    "run_sweep",
    "write_sweep_csv",
    "sweep_summary",
]

ALPHA_DEAD_ZONE = 0.01  # |alpha| below this breaks the beta/alpha terms

# Bounds of SweepConfig.regular's grids, and the ranges each cell draws
# beta, gamma and x0 from.
R_BOUNDS = (0.01, 2.0)
ALPHA_BOUNDS = (-1.99, 1.99)
BETA_RANGE = (0.0, 5.0)
GAMMA_RANGE = (0.0, 100.0)
X0_RANGE = (1.0, 2.0)

SWEEP_CSV_HEADER = "r,alpha,eps_fagm,eps_fagmo,rmspe_fagm,rmspe_fagmo,status"


def generate_synthetic(r, alpha, beta, gamma, x0, n) -> np.ndarray:
    """Raw series whose order-r accumulation satisfies the optimised
    response exactly: evaluate the response for k = 1..n, then restore
    with the inverse accumulation."""
    n = _whole(n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    terms = _response_terms(x0, alpha, beta, gamma)
    xr = _response(x0, alpha, terms, np.arange(1.0, n + 1))
    return inverse_accumulate(xr, r)


def eps_params(estimated, truth) -> float:
    """Squared parameter-recovery error: sum of squared componentwise gaps."""
    p, l, q = (float(v) for v in estimated)
    a, b, c = (float(v) for v in truth)
    return (p - a) ** 2 + (l - b) ** 2 + (q - c) ** 2


@dataclass(frozen=True)
class SweepConfig:
    """The (r, alpha) grid, series length and seed of :func:`run_sweep`,
    checked when built: ascending grids of orders and of finite alphas
    outside the dead zone, a whole n_points >= 5 and a whole 64-bit seed."""

    r_grid: tuple[float, ...]
    alpha_grid: tuple[float, ...]
    n_points: int = 11
    seed: int = 0

    @classmethod
    def regular(
        cls,
        r_steps: int = 100,
        alpha_steps: int = 100,
        n_points: int = 11,
        seed: int = 0,
    ) -> "SweepConfig":
        """Evenly spaced grids over R_BOUNDS and ALPHA_BOUNDS; alpha points
        inside the dead zone around 0 are dropped."""
        if r_steps < 1 or alpha_steps < 1:
            raise ValueError("grid step counts must be >= 1")
        r_grid = tuple(np.linspace(*R_BOUNDS, r_steps))
        alpha_grid = tuple(
            a for a in np.linspace(*ALPHA_BOUNDS, alpha_steps) if abs(a) >= ALPHA_DEAD_ZONE
        )
        return cls(r_grid=r_grid, alpha_grid=alpha_grid, n_points=n_points, seed=seed)

    def __post_init__(self):
        if len(self.r_grid) == 0 or len(self.alpha_grid) == 0:
            raise ValueError("grids must be nonempty")
        if any(list(grid) != sorted(grid) for grid in (self.r_grid, self.alpha_grid)):
            raise ValueError("grids must be sorted ascending")
        for r in self.r_grid:
            _check_order(r)
        if not all(ALPHA_DEAD_ZONE <= abs(a) < math.inf for a in self.alpha_grid):
            raise ValueError(f"alpha grid must be finite, with |alpha| >= {ALPHA_DEAD_ZONE}")
        if _whole(self.n_points) < 5:
            raise ValueError(f"n_points must be >= 5, got {self.n_points}")
        if not (0 <= _whole(self.seed) < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class SweepCell:
    r: float
    alpha: float
    eps_fagm: float
    eps_fagmo: float
    rmspe_fagm: float
    rmspe_fagmo: float
    status: str  # "ok" | "fit_failed"


def run_sweep(config: SweepConfig) -> list[SweepCell]:
    """Evaluate every (r, alpha) cell; failures are recorded, not fatal.

    Cells are mutually independent; this runner walks them one r row at a
    time, in grid order (see the module docstring for what runs per row
    and what per cell).  A cell is ``fit_failed`` exactly where
    ``generate_synthetic``, ``fit``, ``predict`` or ``evaluate`` would
    raise a GreycastError for it, or its recovery error is not finite:
    a singular design, a = 0 to roundoff or |a| >= 2, a non-finite
    parameter or restored value, or a synthetic series with a 0 or
    non-finite value.
    """
    n = _whole(config.n_points)
    seed = int(config.seed)
    alphas = [float(alpha) for alpha in config.alpha_grid]
    cells: list[SweepCell] = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, r in enumerate(config.r_grid):
            draws = [_draw(seed, i, j) for j in range(len(alphas))]
            cells += _sweep_row(float(r), alphas, draws, n)
    return cells


def _draw(seed: int, i: int, j: int) -> tuple[float, float, float]:
    """beta, gamma and x0 of cell (i, j), from that cell's own generator."""
    rng = np.random.default_rng([seed, i, j])
    return rng.uniform(*BETA_RANGE), rng.uniform(*GAMMA_RANGE), rng.uniform(*X0_RANGE)


def _responses(x0, params, n: int) -> np.ndarray:
    """(len(x0), n) array of response rows at k = 1..n, one per x0 and
    (p, q, g) parameter set."""
    x0 = np.array(x0, dtype=float)[:, None]
    p, q, g = np.array(params, dtype=float).reshape(-1, 3).T[:, :, None]
    return _response(x0, p, _response_terms(x0, p, q, g), np.arange(1.0, n + 1))


def _convolve_rows(rows: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Truncated ``np.convolve`` of each row with ``kernel``: (inverse)
    accumulation, one call per row, as a batched sum would round differently."""
    n = kernel.size
    return np.array([np.convolve(row, kernel)[:n] for row in rows]).reshape(rows.shape)


def _sweep_row(r: float, alphas, draws, n: int) -> list[SweepCell]:
    """The cells of one r row; ``draws`` holds each cell's (beta, gamma, x0)."""
    forward, inverse = forward_coeffs(r, n), inverse_coeffs(r, n)
    truths = [(alpha, beta, gamma) for alpha, (beta, gamma, _) in zip(alphas, draws)]
    # generate_synthetic
    raw = _convolve_rows(_responses([x0 for _, _, x0 in draws], truths, n), inverse)
    # fit(raw, r, FAGM11K, n) up to the QR, each cell a column of the design
    design, response = build_design(_convolve_rows(raw, forward).T, ModelVariant.FAGM11K)
    scale = _column_scale(design)
    rows, m, cells = design.shape
    aug = np.empty((cells, rows, m + 1))
    aug[:, :, :m] = (design / scale).transpose(2, 0, 1)
    aug[:, :, m] = response.T
    # solve_least_squares for all cells at once, as (cells,) arrays
    R = _householder_r(aug)
    diag = np.abs([R[k][k] for k in range(m)])
    singular = (diag.min(axis=0) <= REL_RANK_TOL * diag.max(axis=0)).tolist()
    phi = np.array(_back_substitute(R, m)) / scale
    bases = phi.T.tolist()
    x0s = raw[:, 0].tolist()  # the fitted models' x0

    # Per cell, what fit and optimize_params raise or FittedModel rejects
    # fails the cell, and so does a recovery error that is not finite.
    live, eps, fitted = [], [], []
    for j, (x0, truth) in enumerate(zip(x0s, truths)):
        if singular[j]:
            continue
        base = _place(bases[j], ModelVariant.FAGM11K)
        if not all(map(math.isfinite, (x0, *base))):
            continue
        try:
            opt = optimize_params(BaseParams(*base))
        except GreycastError:
            continue
        opt = (opt.alpha, opt.beta, opt.gamma)
        if not all(map(math.isfinite, opt)):
            continue
        pair = (eps_params(base, truth), eps_params(opt, truth))
        if all(map(math.isfinite, pair)):
            live.append(j)
            eps.append(pair)
            fitted += [(x0, base), (x0, opt)]

    # predict(model, 0) and evaluate(raw, ...).rmspe for both models of each
    # live cell: predict raises for a restored value that is not finite, and
    # evaluate for an observed value that gives no relative error
    restored = _convolve_rows(
        _responses([x0 for x0, _ in fitted], [ps for _, ps in fitted], n), inverse
    )
    observed = np.repeat(raw[live], 2, axis=0)
    rmspe = _rms_pct((restored - observed) / observed)
    finite = np.isfinite(restored).all(axis=1).reshape(-1, 2).all(axis=1)
    scorable = ~_unscorable(raw).any(axis=1)

    nan = math.nan
    cells = [SweepCell(r, alpha, nan, nan, nan, nan, "fit_failed") for alpha in alphas]
    for i, j in enumerate(live):
        if finite[i] and scorable[j]:
            cells[j] = SweepCell(r, alphas[j], *eps[i], *rmspe[2 * i : 2 * i + 2], "ok")
    return cells


def write_sweep_csv(cells, path) -> None:
    """One row per cell, full double precision, grid order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(SWEEP_CSV_HEADER + "\n")
        for c in cells:
            fh.write(
                f"{c.r!r},{c.alpha!r},{c.eps_fagm!r},{c.eps_fagmo!r},"
                f"{c.rmspe_fagm!r},{c.rmspe_fagmo!r},{c.status}\n"
            )


def sweep_summary(cells) -> dict:
    ok = [c for c in cells if c.status == "ok"]
    return {
        "cells": len(cells),
        "ok": len(ok),
        "fit_failed": len(cells) - len(ok),
        "max_eps_fagm": max((c.eps_fagm for c in ok), default=math.nan),
        "max_eps_fagmo": max((c.eps_fagmo for c in ok), default=math.nan),
        "max_rmspe_fagm": max((c.rmspe_fagm for c in ok), default=math.nan),
        "max_rmspe_fagmo": max((c.rmspe_fagmo for c in ok), default=math.nan),
    }
