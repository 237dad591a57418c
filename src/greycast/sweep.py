"""Stochastic parameter-recovery sweep over the (r, alpha) plane.

Each grid cell draws drift and initial-value parameters, generates an
exact synthetic series from the optimised response function, fits the
plain and optimised models at the true order, and records the squared
parameter-recovery error of each together with the in-sample RMSPE of
the restored values.  The optimised transform removes the trapezoid
discretisation mismatch, so its recovery error sits at roundoff level
while the plain model's error grows with |alpha|.

The sweep runs the grid in blocks of whole r rows, about ``_BLOCK_CELLS``
cells a block, and every step of a cell runs once over the whole block,
in a batched form that gives the same bits as the scalar call: the
accumulation weights are built once per r and repeated over its row, and
each (inverse) accumulation is one call of the shared convolution on the
block's series, one per column (it adds a batch as it adds one series);
the response and the RMSPE are array expressions; the least-squares fit
is :func:`~greycast.models._fit_batch` of the block's accumulated series,
the Householder QR of ``solve_least_squares`` on arrays over the block's
cells with the transform of ``optimize_params``; and the recovery errors
square each gap with a float power (``x * x`` may differ from ``x **
2``).  What ``fit`` and ``optimize_params`` raise for becomes a mask
over the block.  The plain and optimised variants solve the same design,
so the least-squares solve runs once per cell, and the optimised
parameters come from the plain model's (a, b, c), exactly as
:func:`~greycast.models.fit` computes them for the optimised variant.
The CSV bytes are therefore those of a cell built with
``generate_synthetic``, ``fit``, ``predict`` and ``evaluate``, whatever
the block size.  Each cell is a tuple (:class:`SweepCell`); the cells of
a row share one r float object and every row shares the grid's alpha
objects, so :func:`write_sweep_csv` formats each of them once.

Determinism: cell (r_index, alpha_index) draws beta, gamma and x0, in
that order, from PCG64 seeded with ``SeedSequence([seed, r_index,
alpha_index])``, which is numpy's ``default_rng([seed, r_index,
alpha_index])``.  No generator is built: :func:`_draws` computes those
draws for blocks of whole rows at once, in vectorised integer arithmetic
on uint32/uint64 arrays, equal bit for bit to the generator's (NEP 19
keeps its streams stable across numpy releases);
``tests/test_sweep.py::test_vectorised_draws_equal_default_rng`` pins
this.  Cell results therefore depend only on the seed and grid indices,
never on execution order, and reruns are bit-identical.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .accumulation import _check_order, _convolve, _weights, inverse_accumulate
from .datasets import _whole
from .errors import NonFiniteResult
from .metrics import _rms_pct, _unscorable
# fit is not called here, but perfbench's tracer test looks it up as
# greycast.sweep.fit.
from .models import ModelVariant, _fit_batch, _response, _response_terms, fit

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
_STATUS = ("fit_failed", "ok")  # a cell's status, indexed by whether it is ok

# numpy's SeedSequence hash constants, and the 64-bit halves of PCG64's
# 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341
_MASK32 = 0xFFFFFFFF
# Cells drawn and fitted together, in whole r rows and at least one row:
# enough to spread numpy's cost per call, few enough that the block's
# temporaries keep a sweep's peak memory near that of one row at a time.
_BLOCK_CELLS = 512
_SQUARE_OVERFLOW = 2.0**512


def generate_synthetic(r, alpha, beta, gamma, x0, n) -> np.ndarray:
    """Raw series whose order-r accumulation satisfies the optimised
    response exactly: evaluate the response for k = 1..n, then restore
    with the inverse accumulation.  Raises ValueError for a zero alpha or
    a non-finite parameter, and NonFiniteResult when a value of the
    series is not finite (an alpha near 0 or a response that overflows)."""
    n = _whole(n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not all(math.isfinite(v) for v in (alpha, beta, gamma, x0)):
        raise ValueError("alpha, beta, gamma and x0 must be finite")
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        terms = _response_terms(x0, alpha, beta, gamma)
        xr = _response(x0, alpha, terms, np.arange(1.0, n + 1))
        raw = inverse_accumulate(xr, r)
    if not np.isfinite(raw).all():
        raise NonFiniteResult(f"synthetic value {np.argmin(np.isfinite(raw)) + 1} is not finite")
    return raw


def eps_params(estimated, truth) -> float:
    """Squared parameter-recovery error: sum of squared componentwise gaps,
    inf when a square overflows."""
    p, l, q = (float(v) for v in estimated)
    a, b, c = (float(v) for v in truth)
    x, y, z = _squares(np.array([p - a, l - b, q - c]))
    return x + y + z


def _squares(gaps: np.ndarray) -> list[float]:
    """``g ** 2`` of each gap as a float power, which goes through libm
    ``pow`` and can differ from ``g * g`` in the last bit; inf for
    |g| >= 2**512, whose square overflows and where ``**`` raises
    OverflowError.  Below 2**512 the square is at least an ulp under the
    largest double, so ``pow`` cannot overflow there."""
    gaps = np.where(np.abs(gaps) >= _SQUARE_OVERFLOW, math.inf, gaps)
    return [g**2 for g in gaps.ravel().tolist()]


@dataclass(frozen=True)
class SweepConfig:
    """The (r, alpha) grid, series length and seed of :func:`run_sweep`,
    checked when built: ascending grids of orders and of finite alphas
    outside the dead zone, a whole n_points >= 5 and a whole 64-bit seed,
    both stored as ints.  Each grid holds fewer than 2**32 points, so that
    a cell's r and alpha indices are one 32-bit SeedSequence word each."""

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
        r_steps, alpha_steps = _whole(r_steps), _whole(alpha_steps)
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
        object.__setattr__(self, "n_points", _whole(self.n_points))
        object.__setattr__(self, "seed", _whole(self.seed))
        if self.n_points < 5:
            raise ValueError(f"n_points must be >= 5, got {self.n_points}")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")


class SweepCell(NamedTuple):
    r: float
    alpha: float
    eps_fagm: float
    eps_fagmo: float
    rmspe_fagm: float
    rmspe_fagmo: float
    status: str  # "ok" | "fit_failed"


def run_sweep(config: SweepConfig) -> list[SweepCell]:
    """Evaluate every (r, alpha) cell; failures are recorded, not fatal.

    Cells are mutually independent; this runner computes them in blocks
    of whole r rows, in grid order (see the module docstring for how a
    block is batched).  A cell is ``fit_failed`` exactly where
    ``generate_synthetic``, ``fit``, ``predict`` or ``evaluate`` would
    raise a GreycastError for it, or its recovery error is not finite:
    a singular design, a = 0 to roundoff or |a| >= 2, a non-finite
    parameter or restored value, or a synthetic series with a 0 or
    non-finite value.
    """
    rs = [float(r) for r in config.r_grid]
    alphas = [float(alpha) for alpha in config.alpha_grid]
    block = _block_rows(len(alphas))
    blocks = zip(range(0, len(rs), block), _draws(config.seed, len(rs), len(alphas)))
    cells: list[SweepCell] = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start, draws in blocks:
            cells += _sweep_block(rs[start : start + block], alphas, draws, config.n_points)
    return cells


def _block_rows(cols: int) -> int:
    """r rows per block of a grid with ``cols`` alphas: about
    ``_BLOCK_CELLS`` cells, and at least one row."""
    return max(1, _BLOCK_CELLS // cols)


def _draws(seed: int, rows: int, cols: int) -> Iterator[np.ndarray]:
    """The draws of blocks of whole r rows in turn, :func:`_block_rows` rows
    a block, each a (3, cells) array in grid order: the column of cell
    (i, j) holds what ``default_rng([seed, i, j])`` draws by
    ``uniform(*BETA_RANGE)``, ``uniform(*GAMMA_RANGE)`` and
    ``uniform(*X0_RANGE)``, bit for bit, for i and j below 2**32."""
    block = _block_rows(cols)
    for start in range(0, rows, block):
        i, j = np.indices((min(block, rows - start), cols), dtype=np.uint32).reshape(2, -1)
        yield np.array(_draw_cells(seed, i + start, j))


def _draw_cells(seed: int, i: np.ndarray, j: np.ndarray) -> list[np.ndarray]:
    """beta, gamma and x0 of the cells (i, j), from PCG64 seeded by
    SeedSequence's (initstate, initseq) = (s, q).  All wrapping arithmetic
    runs on uint32/uint64 arrays, never on numpy scalars, whose overflow
    warns."""
    # modulo 2**128 as (hi, lo) pairs: inc = 2q + 1, then state = 0, a step
    # (state = inc), state += s, and a step
    hi, lo, q_hi, q_lo = _seed_state(seed, i, j)
    inc = (q_hi << 1) | (q_lo >> 63), (q_lo << 1) | 1
    lo = lo + inc[1]
    hi = hi + inc[0] + (lo < inc[1])
    hi, lo = _lcg_step(hi, lo, inc)
    out = []
    for low, high in (BETA_RANGE, GAMMA_RANGE, X0_RANGE):
        hi, lo = _lcg_step(hi, lo, inc)
        # XSL-RR output, then Generator.uniform
        x, rot = hi ^ lo, hi >> 58
        x = (x >> rot) | (x << ((64 - rot) & 63))
        out.append(low + (high - low) * ((x >> 11) * 2.0**-53))
    return out


def _seed_state(seed: int, i: np.ndarray, j: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence([seed, i, j]).generate_state(4, np.uint64)`` of each
    cell (i, j), as four uint64 arrays."""
    # The entropy is the seed's 32-bit words, low first, then i and j: at
    # most four words, the pool size, so a pool word past them is hashmix(0)
    # and no entropy is left to mix in after the pool's mixing.
    words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    entropy = [np.full(i.shape, w, dtype=np.uint32) for w in words] + [i, j]
    entropy += [np.zeros(i.shape, dtype=np.uint32)] * (4 - len(entropy))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * _MIX_MULT_L - hashmix(pool[src]) * _MIX_MULT_R
                pool[dst] = mixed ^ (mixed >> 16)
    # eight 32-bit words from the pool, paired low word first
    hashout = _hasher(_INIT_B, _MULT_B)
    state = [hashout(pool[k % 4]).astype(np.uint64) for k in range(8)]
    return [state[k] | (state[k + 1] << 32) for k in range(0, 8, 2)]


def _hasher(hash_const: int, mult: int):
    """SeedSequence's hash of uint32 arrays, whose constant steps by ``mult``
    at each call: ``hashmix`` from (_INIT_A, _MULT_A), and the hash of
    ``generate_state``'s output from (_INIT_B, _MULT_B)."""

    def hash_(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    return hash_


def _lcg_step(hi, lo, inc):
    """PCG64's LCG step, (hi, lo) * multiplier + inc modulo 2**128; the
    high word of lo times the multiplier's low half is built from the
    products of their 32-bit halves."""
    m0, m1 = _PCG_MULT_LO & _MASK32, _PCG_MULT_LO >> 32
    l0, l1 = lo & _MASK32, lo >> 32
    cross, cross2 = l0 * m1, l1 * m0
    mid = ((l0 * m0) >> 32) + (cross & _MASK32) + (cross2 & _MASK32)
    hi = hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + l1 * m1
    hi += (cross >> 32) + (cross2 >> 32) + (mid >> 32)
    lo = lo * _PCG_MULT_LO + inc[1]
    return hi + inc[0] + (lo < inc[1]), lo


def _responses(x0, params, n: int) -> np.ndarray:
    """(n, len(x0)) array of responses at k = 1..n, one column per x0 and
    column (p, q, g) of a (3, len(x0)) parameter array."""
    p, q, g = params
    k = np.arange(1.0, n + 1)[:, None]
    return _response(x0, p, _response_terms(x0, p, q, g), k)


def _eps_rows(estimated, truth) -> np.ndarray:
    """:func:`eps_params` of each cell from (3, cells) arrays of estimated
    and true parameters: its gaps and sums, in its order, and its squares."""
    squares = np.reshape(_squares(estimated - truth), estimated.shape)
    return squares[0] + squares[1] + squares[2]


def _sweep_block(rs, alphas, draws, n: int) -> list[SweepCell]:
    """The cells of a block of whole r rows, in grid order; ``draws`` holds
    the block's beta, gamma and x0 arrays, one column per cell."""
    cols = len(alphas)
    # the weights of each kind, one column per cell, built once per r
    forward, inverse = (np.repeat(_weights(np.array(rs), n, way), cols, axis=1)
                        for way in (True, False))
    truth = np.vstack([np.tile(alphas, len(rs)), draws[:2]])
    # generate_synthetic, each cell's series a column
    raw = _convolve(_responses(draws[2], truth, n), inverse)
    # fit(raw, r, FAGM11K, n) and fit(raw, r, FAGMO11K, n) of each cell: one
    # least-squares solve, whose (a, b, c) the optimised model transforms
    base, opt, failed = _fit_batch(_convolve(raw, forward), ModelVariant.FAGMO11K)
    base = np.array(base)
    x0 = raw[0]  # the fitted models' x0

    # What fit and optimize_params raise for, or FittedModel rejects, fails a
    # cell, and so does a recovery error that is not finite; a non-finite x0
    # is an unscorable observed value, which fails the cell below.
    eps = np.array([_eps_rows(base, truth), _eps_rows(opt, truth)])
    ok = ~failed & np.isfinite(eps).all(axis=0)

    # predict(model, 0) and evaluate(raw, ...).rmspe for the plain, then the
    # optimised, model of each cell: predict raises for a restored value
    # that is not finite, and evaluate for an observed value that gives no
    # relative error.  Each column of these arrays is computed on its own,
    # so the columns of cells failed above change nothing.  _rms_pct sums
    # the rows of a C-contiguous array as evaluate sums one series.
    restored = _convolve(
        _responses(np.tile(x0, 2), np.hstack([base, opt]), n), np.tile(inverse, 2)
    )
    observed = np.tile(raw, 2)
    rel = np.ascontiguousarray(((restored - observed) / observed).T)
    rmspe = np.reshape(_rms_pct(rel), (2, -1))
    ok &= np.isfinite(restored).all(axis=0).reshape(2, -1).all(axis=0)
    ok &= ~_unscorable(raw).any(axis=0)

    # A failed cell's four values are the one math.nan object, so that equal
    # sweeps compare equal: tuples compare fields by identity first.
    values = np.vstack([eps, rmspe]).tolist()
    for i in np.flatnonzero(~ok).tolist():
        for column in values:
            column[i] = math.nan
    r_col = [r for r in rs for _ in range(cols)]
    status = [_STATUS[good] for good in ok.tolist()]
    return list(map(SweepCell, r_col, alphas * len(rs), *values, status))


def write_sweep_csv(cells, path) -> None:
    """One row per cell, full double precision, grid order.

    The cells of a sweep share their r and alpha float objects, so each
    object is formatted once.  Its repr is looked up by identity, not by
    value, since 0.0 == -0.0 and NaN != NaN; ``held`` keeps each formatted
    object alive, so no id is reused while the file is written.
    """
    texts: dict[int, str] = {}
    held = []

    def text(x) -> str:
        held.append(x)
        texts[id(x)] = out = repr(x)
        return out

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(SWEEP_CSV_HEADER + "\n")
        for r, alpha, eps_fagm, eps_fagmo, rmspe_fagm, rmspe_fagmo, status in cells:
            fh.write(
                f"{texts.get(id(r)) or text(r)},{texts.get(id(alpha)) or text(alpha)},"
                f"{eps_fagm!r},{eps_fagmo!r},{rmspe_fagm!r},{rmspe_fagmo!r},{status}\n"
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
