"""Stochastic parameter-recovery sweep over the (r, alpha) plane.

Each grid cell draws drift and initial-value parameters, generates an
exact synthetic series from the optimised response function, fits the
plain and optimised models at the true order, and records the squared
parameter-recovery error of each together with the in-sample RMSPE of
the restored values.  The optimised transform removes the trapezoid
discretisation mismatch, so its recovery error sits at roundoff level
while the plain model's error grows with |alpha|.

The least-squares fit runs once per cell.  The plain and optimised
variants solve the same design, so the optimised (alpha, beta, gamma)
come from the plain model's (a, b, c), exactly as
:func:`~greycast.models.fit` computes them for the optimised variant.

Determinism: every cell owns a PCG64 generator seeded with
``SeedSequence([seed, r_index, alpha_index])`` (numpy's default_rng),
drawing beta, gamma, x0 in that order.  Cell results therefore depend
only on the seed and grid indices, never on execution order, and reruns
are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .accumulation import _check_order, inverse_accumulate
from .datasets import _whole
from .errors import GreycastError
from .metrics import _check_pair, _rms_pct
from .models import FittedModel, ModelVariant, _response, fit, optimize_params, predict

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
    xr = _response(x0, alpha, beta, gamma, np.arange(1.0, n + 1))
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

    Cells are mutually independent (safe to parallelise); this runner
    walks them in grid order.
    """
    cells: list[SweepCell] = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, r in enumerate(config.r_grid):
            for j, alpha in enumerate(config.alpha_grid):
                rng = np.random.default_rng([int(config.seed), i, j])
                beta = rng.uniform(*BETA_RANGE)
                gamma = rng.uniform(*GAMMA_RANGE)
                x0 = rng.uniform(*X0_RANGE)
                cells.append(
                    _run_cell(float(r), float(alpha), beta, gamma, x0, config.n_points)
                )
    return cells


def _as_optimised(plain: FittedModel) -> FittedModel:
    """What ``fit(raw, r, FAGMO11K, nu)`` returns, given the FAGM11K fit
    of the same arguments: both variants solve the same design, so only
    the optimised transform is left to compute."""
    return replace(plain, variant=ModelVariant.FAGMO11K, opt=optimize_params(plain.base))


def _in_sample_rmspe(raw, model) -> float:
    """``evaluate(raw, predict(model, 0), n).rmspe`` without the rest of
    the report."""
    observed, predicted = _check_pair(raw, predict(model, 0))
    return _rms_pct((predicted - observed) / observed)


def _run_cell(r, alpha, beta, gamma, x0, n) -> SweepCell:
    nan = math.nan
    try:
        raw = generate_synthetic(r, alpha, beta, gamma, x0, n)
        plain = fit(raw, r, ModelVariant.FAGM11K, n)
        optimised = _as_optimised(plain)
        truth = (alpha, beta, gamma)
        eps_plain = eps_params((plain.base.a, plain.base.b, plain.base.c), truth)
        eps_opt = eps_params(optimised.active_params, truth)
        rmspe_plain = _in_sample_rmspe(raw, plain)
        rmspe_opt = _in_sample_rmspe(raw, optimised)
    except GreycastError:
        return SweepCell(r, alpha, nan, nan, nan, nan, "fit_failed")
    if not (math.isfinite(eps_plain) and math.isfinite(eps_opt)):
        return SweepCell(r, alpha, nan, nan, nan, nan, "fit_failed")
    return SweepCell(r, alpha, eps_plain, eps_opt, rmspe_plain, rmspe_opt, "ok")


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
