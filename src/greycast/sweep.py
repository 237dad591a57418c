"""Stochastic parameter-recovery sweep over the (r, alpha) plane.

Each grid cell draws drift and initial-value parameters, generates an
exact synthetic series from the optimised response function, fits the
plain and optimised models at the true order, and records the squared
parameter-recovery error of each together with the in-sample RMSPE of
the restored values.  The optimised transform removes the trapezoid
discretisation mismatch, so its recovery error sits at roundoff level
while the plain model's error grows with |alpha|.

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

from .accumulation import inverse_accumulate
from .errors import GreycastError
from .metrics import evaluate
from .models import ModelVariant, _response, fit, predict

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

SWEEP_CSV_HEADER = "r,alpha,eps_fagm,eps_fagmo,rmspe_fagm,rmspe_fagmo,status"


def generate_synthetic(r, alpha, beta, gamma, x0, n) -> np.ndarray:
    """Raw series whose order-r accumulation satisfies the optimised
    response exactly: evaluate the response for k = 1..n, then restore
    with the inverse accumulation."""
    n = int(n)
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


@dataclass
class SweepConfig:
    r_grid: tuple[float, ...]
    alpha_grid: tuple[float, ...]
    n_points: int = 11
    seed: int = 0
    beta_range: tuple[float, float] = (0.0, 5.0)
    gamma_range: tuple[float, float] = (0.0, 100.0)
    x0_range: tuple[float, float] = (1.0, 2.0)

    @classmethod
    def regular(
        cls,
        r_steps: int = 100,
        alpha_steps: int = 100,
        n_points: int = 11,
        seed: int = 0,
        r_bounds: tuple[float, float] = (0.01, 2.0),
        alpha_bounds: tuple[float, float] = (-1.99, 1.99),
        **kwargs,
    ) -> "SweepConfig":
        """Evenly spaced grids; alpha points inside the dead zone around
        0 are dropped."""
        if r_steps < 1 or alpha_steps < 1:
            raise ValueError("grid step counts must be >= 1")
        if not (0 < r_bounds[0] < r_bounds[1]):
            raise ValueError(f"bad r bounds {r_bounds}")
        if not alpha_bounds[0] < alpha_bounds[1]:
            raise ValueError(f"bad alpha bounds {alpha_bounds}")
        r_grid = tuple(np.linspace(r_bounds[0], r_bounds[1], r_steps))
        alpha_grid = tuple(
            a
            for a in np.linspace(alpha_bounds[0], alpha_bounds[1], alpha_steps)
            if abs(a) >= ALPHA_DEAD_ZONE
        )
        return cls(r_grid=r_grid, alpha_grid=alpha_grid, n_points=n_points, seed=seed, **kwargs)

    def validate(self) -> None:
        if len(self.r_grid) == 0 or len(self.alpha_grid) == 0:
            raise ValueError("grids must be nonempty")
        if list(self.r_grid) != sorted(self.r_grid) or list(self.alpha_grid) != sorted(
            self.alpha_grid
        ):
            raise ValueError("grids must be sorted ascending")
        if any(r <= 0 for r in self.r_grid):
            raise ValueError("r grid must be positive")
        if any(abs(a) < ALPHA_DEAD_ZONE for a in self.alpha_grid):
            raise ValueError(f"alpha grid enters the dead zone |alpha| < {ALPHA_DEAD_ZONE}")
        if self.n_points < 5:
            raise ValueError(f"n_points must be >= 5, got {self.n_points}")
        if not (0 <= int(self.seed) < 2**64):
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
    config.validate()
    cells: list[SweepCell] = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, r in enumerate(config.r_grid):
            for j, alpha in enumerate(config.alpha_grid):
                rng = np.random.default_rng([int(config.seed), i, j])
                beta = rng.uniform(*config.beta_range)
                gamma = rng.uniform(*config.gamma_range)
                x0 = rng.uniform(*config.x0_range)
                cells.append(
                    _run_cell(float(r), float(alpha), beta, gamma, x0, config.n_points)
                )
    return cells


def _run_cell(r, alpha, beta, gamma, x0, n) -> SweepCell:
    nan = math.nan
    try:
        raw = generate_synthetic(r, alpha, beta, gamma, x0, n)
        plain = fit(raw, r, ModelVariant.FAGM11K, n)
        optimised = fit(raw, r, ModelVariant.FAGMO11K, n)
        truth = (alpha, beta, gamma)
        eps_plain = eps_params((plain.base.a, plain.base.b, plain.base.c), truth)
        eps_opt = eps_params(optimised.active_params, truth)
        rmspe_plain = evaluate(raw, predict(plain, 0), n).rmspe
        rmspe_opt = evaluate(raw, predict(optimised, 0), n).rmspe
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
    failed = len(cells) - len(ok)

    def _max(vals):
        vals = list(vals)
        return max(vals) if vals else math.nan

    return {
        "cells": len(cells),
        "ok": len(ok),
        "fit_failed": failed,
        "max_eps_fagm": _max(c.eps_fagm for c in ok),
        "max_eps_fagmo": _max(c.eps_fagmo for c in ok),
        "max_rmspe_fagm": _max(c.rmspe_fagm for c in ok),
        "max_rmspe_fagmo": _max(c.rmspe_fagmo for c in ok),
    }
