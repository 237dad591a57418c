"""Stochastic parameter-recovery sweep."""

import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from greycast import metrics, models, sweep
from greycast.accumulation import _convolve, _weights, accumulate, forward_coeffs, inverse_coeffs
from greycast.errors import DevelopmentCoefficientOutOfRange, GreycastError, NonFiniteResult
from greycast.metrics import evaluate
from greycast.models import (
    A_FLOOR, BaseParams, ModelVariant, _fit_batch, fit, optimize_params, predict,
)
from greycast.sweep import (
    SWEEP_CSV_HEADER,
    SweepCell,
    SweepConfig,
    eps_params,
    generate_synthetic,
    run_sweep,
    sweep_summary,
    write_sweep_csv,
)


def direct_response(alpha, beta, gamma, x0, n):
    ks = np.arange(1, n + 1)
    out = (
        (x0 - beta / alpha + beta / alpha**2 - gamma / alpha) * np.exp(-alpha * (ks - 1))
        + beta / alpha * ks
        - beta / alpha**2
        + gamma / alpha
    )
    out[0] = x0
    return out


class TestGenerateSynthetic:
    def test_accumulating_recovers_the_response(self):
        r, alpha, beta, gamma, x0, n = 0.8, -0.4, 2.0, 30.0, 1.7, 11
        raw = generate_synthetic(r, alpha, beta, gamma, x0, n)
        np.testing.assert_allclose(
            accumulate(raw, r), direct_response(alpha, beta, gamma, x0, n), rtol=1e-10
        )

    def test_order_one_closed_form(self):
        # at r = 1 and beta = 0 the accumulated series is an offset
        # geometric sequence with ratio e^{-alpha} = 1/3
        alpha, gamma, x0 = math.log(3), 6.0, 2.0
        raw = generate_synthetic(1.0, alpha, 0.0, gamma, x0, 8)
        xr = accumulate(raw, 1.0)
        offset = gamma / alpha
        ratio = (xr[2:] - offset) / (xr[1:-1] - offset)
        np.testing.assert_allclose(ratio, 1 / 3, rtol=1e-10)

    def test_fitting_at_true_order_recovers_parameters(self):
        raw = generate_synthetic(0.5, 0.3, 1.0, 10.0, 1.5, 11)
        model = fit(raw, 0.5, ModelVariant.FAGMO11K, 11)
        assert eps_params(model.active_params, (0.3, 1.0, 10.0)) < 1e-6

    def test_rejects_zero_alpha(self):
        with pytest.raises(ValueError):
            generate_synthetic(1.0, 0.0, 1.0, 1.0, 1.0, 11)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", range(4))
    def test_rejects_non_finite_parameters(self, position, bad):
        params = [-0.4, 2.0, 30.0, 1.7]  # alpha, beta, gamma, x0
        params[position] = bad
        with pytest.raises(ValueError, match="finite"):
            generate_synthetic(0.8, *params, 11)

    # 1e-300 squares to 0, so the response divides by zero; -800 overflows
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [1e-300, -1e-300, 5e-324, -800.0])
    def test_non_finite_series_raises(self, alpha):
        with pytest.raises(NonFiniteResult):
            generate_synthetic(0.5, alpha, 1.0, 1.0, 1.0, 6)

    def test_length_must_be_a_whole_number(self):
        with pytest.raises(ValueError):
            generate_synthetic(0.8, -0.4, 2.0, 30.0, 1.7, 6.5)
        want = generate_synthetic(0.8, -0.4, 2.0, 30.0, 1.7, 6)
        for n in (6.0, np.int64(6)):
            assert generate_synthetic(0.8, -0.4, 2.0, 30.0, 1.7, n).tobytes() == want.tobytes()


class TestEpsParams:
    def test_exact_match_is_zero(self):
        assert eps_params((1.5, 2.5, 3.5), (1.5, 2.5, 3.5)) == 0.0

    def test_unit_offsets_sum(self):
        assert eps_params((1, 1, 1), (0, 0, 0)) == 3.0

    @pytest.mark.parametrize("gap", [1e200, -1e200, 2.0**512, 1e308])
    def test_overflowing_square_is_inf(self, gap):
        # a float ** raises OverflowError where the square overflows
        assert eps_params((gap, 0, 0), (0, 0, 0)) == math.inf
        assert eps_params((0, 0, 1.0), (0, gap, 0)) == math.inf

    def test_largest_square_below_overflow_is_finite(self):
        gap = math.nextafter(2.0**512, 0)
        assert eps_params((gap, 0, 0), (0, 0, 0)) == gap**2 < math.inf


def same_bits(got, want) -> np.ndarray:
    """Elementwise: equal float64 bits, or both NaN."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return (got.view(np.uint64) == want.view(np.uint64)) | (np.isnan(got) & np.isnan(want))


def random_params(rng, size) -> np.ndarray:
    """(3, size) parameters of random sign over magnitudes 1e-5 to 1e5."""
    return rng.choice([-1.0, 1.0], (3, size)) * 10.0 ** rng.uniform(-5, 5, (3, size))


def power_eps(estimated, truth) -> float:
    """The recovery error spelled out with float powers, inf where one
    raises OverflowError."""
    try:
        return sum((e - t) ** 2 for e, t in zip(estimated, truth))
    except OverflowError:
        return math.inf


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_eps_rows_equal_eps_params():
    rng = np.random.default_rng(22)
    estimated, truth = random_params(rng, 10**5), random_params(rng, 10**5)
    # gaps whose square overflows, or nearly does, and non-finite ones
    edges = [2.0**512, math.nextafter(2.0**512, 0), -1e200, 1e154, math.inf, math.nan, -0.0]
    estimated[rng.integers(3, size=70), rng.integers(10**5, size=70)] = edges * 10
    want = [power_eps(e, t) for e, t in zip(estimated.T.tolist(), truth.T.tolist())]
    got = [eps_params(e, t) for e, t in zip(estimated.T.tolist(), truth.T.tolist())]
    assert same_bits(got, want).all()
    assert same_bits(sweep._eps_rows(estimated, truth), want).all()
    assert math.inf in want


def test_optimised_rows_equal_optimize_params():
    rng = np.random.default_rng(23)
    below = math.nextafter(A_FLOOR, 0)
    edges = [A_FLOOR, -A_FLOOR, below, -below, math.nextafter(2.0, 0), -math.nextafter(2.0, 0),
             2.0, -2.0, math.nan, math.inf, 0.0]
    base = random_params(rng, 10**5)
    base[0] = rng.uniform(-2.2, 2.2, 10**5)
    base[0, : len(edges)] = edges
    got = models._optimised_rows(*base)
    for j, (a, b, c) in enumerate(base.T.tolist()):
        try:
            want = optimize_params(BaseParams(a, b, c))
        except GreycastError:
            assert np.isnan(got[:, j]).all(), (a, b, c)
        else:
            assert same_bits(got[:, j], (want.alpha, want.beta, want.gamma)).all(), (a, b, c)
    # both floors and 2 - ulp transform; below the floor, +-2, NaN, inf and 0 do not
    passed = [True] * 2 + [False] * 2 + [True] * 2 + [False] * 5
    assert (~np.isnan(got[0, : len(edges)])).tolist() == passed


def small_config(**kwargs):
    # 6 alpha steps avoid the bounded-zero grid point, so nothing is filtered
    return SweepConfig.regular(r_steps=6, alpha_steps=6, n_points=11, seed=7, **kwargs)


class TestRunSweep:
    def test_all_cells_fit(self):
        config = small_config()
        cells = run_sweep(config)
        assert all(c.status == "ok" for c in cells)
        assert len(cells) == len(config.r_grid) * len(config.alpha_grid) == 36

    def test_optimised_model_dominates(self):
        cells = [c for c in run_sweep(small_config()) if c.status == "ok"]
        assert all(c.eps_fagmo <= c.eps_fagm for c in cells)
        assert all(c.rmspe_fagmo <= c.rmspe_fagm + 1e-9 for c in cells)

    # Seeds of benchmark sweeps whose smallest-alpha cell in r row ``rows - 1``
    # once had eps_fagmo above eps_fagm, when the least-squares solve
    # squared the design's condition number.  A cell's draws depend only
    # on (seed, i, j), so the rows up to that one give the full sweep's cells.
    @pytest.mark.parametrize(
        "seed, rows",
        [(8578873834066032474, 19), (6897854090030866718, 33), (14093731516832647742, 1)],
    )
    def test_optimised_model_dominates_at_roundoff(self, seed, rows):
        full = SweepConfig.regular(100, 100, seed=seed)
        cells = run_sweep(replace(full, r_grid=full.r_grid[:rows]))
        ok = [c for c in cells if c.status == "ok"]
        assert len(ok) == len(cells) == rows * 100
        assert [c for c in ok if not c.eps_fagmo <= c.eps_fagm] == []

    def test_huge_alpha_gives_cells(self):
        # alpha^2 overflows to inf in the response's terms, and the row
        # has no cell left to restore
        cells = run_sweep(SweepConfig(r_grid=(0.3,), alpha_grid=(1e160,)))
        assert [(c.r, c.alpha, c.status) for c in cells] == [(0.3, 1e160, "fit_failed")]

    def test_small_alpha_cells_nearly_coincide(self):
        config = SweepConfig.regular(r_steps=5, alpha_steps=40, seed=11)
        cells = [c for c in run_sweep(config) if abs(c.alpha) <= 0.1 and c.status == "ok"]
        assert cells, "grid should contain small-alpha cells"
        assert all(c.eps_fagm < 1e-2 for c in cells)

    def test_deterministic_rerun(self):
        assert run_sweep(small_config()) == run_sweep(small_config())

    def test_csv_bytes_identical_across_runs(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(run_sweep(small_config()), p1)
        write_sweep_csv(run_sweep(small_config()), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_header(self, tmp_path):
        path = tmp_path / "surface.csv"
        write_sweep_csv(run_sweep(small_config()), path)
        lines = path.read_text().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER == (
            "r,alpha,eps_fagm,eps_fagmo,rmspe_fagm,rmspe_fagmo,status"
        )
        assert len(lines) == 1 + 36

    def test_seed_changes_draws(self):
        a = run_sweep(small_config())
        b = run_sweep(SweepConfig.regular(r_steps=6, alpha_steps=6, n_points=11, seed=8))
        assert any(x.eps_fagm != y.eps_fagm for x, y in zip(a, b))

    def test_summary_counts(self):
        cells = run_sweep(small_config())
        summary = sweep_summary(cells)
        assert summary["cells"] == 36
        assert summary["ok"] == 36
        assert summary["fit_failed"] == 0
        assert summary["max_eps_fagmo"] <= summary["max_eps_fagm"]


def sweep_grid(rows, alphas, n_points=11, seed=9):
    """``rows`` orders over R_BOUNDS against the given alphas."""
    return SweepConfig(r_grid=tuple(np.linspace(*sweep.R_BOUNDS, rows)), alpha_grid=alphas,
                       n_points=n_points, seed=seed)


# Its first row fails at alpha 40 where the rows after it fit, and alphas
# -800 and -40 fail in every row, -800 with non-finite values.
FAILED_FIRST = SweepConfig(r_grid=tuple(np.linspace(*sweep.R_BOUNDS, 7)[:6]),
                           alpha_grid=(-800.0, -40.0, -1.5, 0.7, 40.0), n_points=11, seed=42)


# Element budgets of 1 cell, 7 cells and one row, and the default, on grids:
# of 40-point series whose default blocks hold 4 of its 7 rows, and with more
# alphas than 7 cells hold, so each smaller block is one row; with 3 alphas,
# so 7-cell blocks hold 2 rows and the last holds 1; wider than the default
# budget, so each default block is one row; of one cell; and FAILED_FIRST,
# whose later blocks reuse for cells that fit the workspace that the first
# block's failed cells left.
@pytest.mark.parametrize(
    "config",
    [sweep_grid(7, tuple(np.linspace(-1.99, 1.99, 100)), n_points=40),
     sweep_grid(5, (-1.5, 0.4, 1.9)),
     sweep_grid(2, tuple(np.linspace(0.02, 1.99, sweep.CHUNK_ELEMENTS // 11 + 8))),
     sweep_grid(1, (0.7,)),
     FAILED_FIRST],
    ids=["7x100", "5x3", "2xwide", "1x1", "failed_first"],
)
def test_block_size_does_not_change_the_cells(monkeypatch, config):
    assert 7 % sweep._block_rows(40, 100) and sweep._block_rows(40, 100) > 1
    assert sweep._block_rows(11, sweep.CHUNK_ELEMENTS // 11 + 8) == 1
    n = config.n_points
    want = repr(run_sweep(config))
    for cells in (1, 7, len(config.alpha_grid)):
        monkeypatch.setattr(sweep, "CHUNK_ELEMENTS", cells * n)
        assert repr(run_sweep(config)) == want, cells


def test_later_blocks_fit_where_the_first_block_failed(monkeypatch):
    status = [c.status for c in two_fit_sweep(FAILED_FIRST)]
    rows = np.reshape(status, (6, 5)) == "ok"
    assert not rows[0, 4] and rows[1:, 4].all() and rows[:, 2:4].all() and not rows[:, :2].any()
    monkeypatch.setattr(sweep, "CHUNK_ELEMENTS", 5 * 11)  # one row a block
    assert repr(run_sweep(FAILED_FIRST)) == repr(two_fit_sweep(FAILED_FIRST))


def test_every_block_works_in_one_workspace_per_sweep(monkeypatch):
    # a return to arrays made afresh for each block; blocks of 2 of the 5
    # rows leave a last block of one row
    config = sweep_grid(5, (-1.5, 0.4, 1.9))
    outputs, owners = [], []

    def owner(a):
        while a.base is not None:
            a = a.base
        return a

    def convolve(*args):
        outputs.append(_convolve(*args))
        return outputs[-1]

    def fit_batch(series_r, variant, work):
        outputs.extend(work)  # the design's working columns
        return _fit_batch(series_r, variant, work)

    monkeypatch.setattr(sweep, "_convolve", convolve)
    monkeypatch.setattr(sweep, "_fit_batch", fit_batch)
    monkeypatch.setattr(sweep, "CHUNK_ELEMENTS", 2 * 3 * 11)
    for _ in range(2):
        outputs.clear()
        run_sweep(config)
        # four convolutions and three design columns per block
        assert len(outputs) == 7 * 3
        owners.append(owner(outputs[0]))
        assert owners[-1].shape == (7, 2 * 3 * 11)
        assert all(owner(a) is owners[-1] and np.shares_memory(a, owners[-1]) for a in outputs)
    assert owners[0] is not owners[1]


def reference_csv(cells) -> bytes:
    """The sweep CSV of ``cells``, one f-string per line."""
    lines = ["r,alpha,eps_fagm,eps_fagmo,rmspe_fagm,rmspe_fagmo,status\n"]
    for c in cells:
        lines.append(
            f"{c.r!r},{c.alpha!r},{c.eps_fagm!r},{c.eps_fagmo!r},"
            f"{c.rmspe_fagm!r},{c.rmspe_fagmo!r},{c.status}\n"
        )
    return "".join(lines).encode()


def test_csv_bytes_equal_a_per_line_reference(tmp_path):
    # Values whose repr a value-keyed cache gets wrong or whose lookups it
    # misses: 0.0 == -0.0, NaN != NaN, equal values in distinct objects.
    nan, same = math.nan, float("0.25")
    r_values = [0.25, same, float("0.25"), -0.0, 0.0, nan, float("nan"), math.inf, 5e-324]
    alpha_values = [0.0, -0.0, 0.0, nan, -math.inf, 1.0, float("1.0"), -1e308, same]
    cells = [SweepCell(r, alpha, 1e-20, -0.0, nan, math.inf, "ok" if k % 2 else "fit_failed")
             for k, (r, alpha) in enumerate(zip(r_values, alpha_values))]
    cells += [SweepCell(r, -0.0, float(k), 0.1, 0.2, 0.3, "ok") for k, r in enumerate(r_values)]
    path = tmp_path / "hand.csv"
    write_sweep_csv(cells, path)
    data = path.read_bytes()
    assert data == reference_csv(cells)
    assert b"\n0.25,0.0,1e-20," in data and b"\n0.25,-0.0,1e-20," in data


def fresh_cells():
    """Cells built one at a time, so each one's floats are freed after its line
    is written and their ids come free for the next cell's."""
    for k in range(200):
        yield SweepCell(k / 8, -k / 16, 0.0, -0.0, k * 1e-9, math.nan, "ok")


def test_csv_of_cells_built_on_the_fly(tmp_path):
    path = tmp_path / "fresh.csv"
    write_sweep_csv(fresh_cells(), path)
    assert path.read_bytes() == reference_csv(list(fresh_cells()))


def test_sweep_cell_repr_and_immutability():
    cell = SweepCell(0.5, -0.0, 1e-20, math.nan, math.inf, 0.125, "ok")
    assert repr(cell) == (
        "SweepCell(r=0.5, alpha=-0.0, eps_fagm=1e-20, eps_fagmo=nan, rmspe_fagm=inf, "
        "rmspe_fagmo=0.125, status='ok')"
    )
    assert (cell.r, cell.alpha, cell.status) == (0.5, -0.0, "ok")
    assert cell == SweepCell(0.5, 0.0, 1e-20, cell.eps_fagmo, math.inf, 0.125, "ok")
    for name in ("r", "status"):
        with pytest.raises(AttributeError):
            setattr(cell, name, 1.0)


class TestConfig:
    def test_regular_grid_respects_dead_zone(self):
        # an odd-length alpha grid would hit 0 exactly; it must be dropped
        config = SweepConfig.regular(r_steps=4, alpha_steps=101)
        assert len(config.alpha_grid) == 100
        assert all(abs(a) >= 0.01 for a in config.alpha_grid)
        assert grid_config(4, 101, 0, sweep.ALPHA_BOUNDS) == config

    def test_validation_rejects_bad_grids(self):
        good = small_config()
        with pytest.raises(ValueError):
            SweepConfig(r_grid=(), alpha_grid=good.alpha_grid)
        with pytest.raises(ValueError):
            SweepConfig(r_grid=(1.0, 0.5), alpha_grid=good.alpha_grid)
        with pytest.raises(ValueError):
            SweepConfig(r_grid=good.r_grid, alpha_grid=(0.001, 0.5))
        with pytest.raises(ValueError):
            SweepConfig(r_grid=good.r_grid, alpha_grid=good.alpha_grid, n_points=4)
        with pytest.raises(ValueError):
            SweepConfig.regular(r_steps=0)

    @pytest.mark.parametrize(
        "fields",
        [{"r_grid": (0.5, math.inf)}, {"r_grid": (0.5, math.nan)}, {"r_grid": (0.0, 0.5)},
         {"alpha_grid": (0.5, math.nan)}, {"alpha_grid": (0.5, math.inf)}, {"n_points": 6.5},
         {"seed": 1.7}, {"seed": "5"}, {"seed": True}, {"seed": -1}, {"seed": 2**64}],
    )
    def test_bad_input_raises_when_built(self, fields):
        with pytest.raises(ValueError):
            replace(small_config(), **fields)

    @pytest.mark.parametrize("steps", [2.5, True, 0])
    @pytest.mark.parametrize("name", ["r_steps", "alpha_steps"])
    def test_regular_takes_whole_positive_step_counts(self, name, steps):
        with pytest.raises(ValueError, match="got" if steps else ">= 1"):
            SweepConfig.regular(**{name: steps})

    @pytest.mark.parametrize("seed", [42.0, np.uint64(2**64 - 1)])
    def test_whole_numbers_are_stored_as_ints(self, seed):
        config = SweepConfig.regular(3, 4, n_points=np.int64(11), seed=seed)
        want = SweepConfig.regular(3, 4, n_points=11, seed=int(seed))
        assert type(config.seed) is type(config.n_points) is int
        assert repr(config) == repr(want)
        assert repr(run_sweep(config)) == repr(run_sweep(want))

    def test_config_is_frozen(self):
        with pytest.raises(FrozenInstanceError):
            small_config().seed = 1

    @pytest.mark.parametrize(
        "seed, n_points",
        [(5.0, 11), (np.uint64(5), 11), (5, 11.0), (np.int64(5), np.int64(11))],
    )
    def test_whole_number_counts_give_the_same_csv(self, seed, n_points, tmp_path):
        def csv(seed, n_points):
            path = tmp_path / "sweep.csv"
            write_sweep_csv(run_sweep(SweepConfig.regular(6, 6, n_points, seed)), path)
            return path.read_bytes()

        assert csv(seed, n_points) == csv(5, 11)


# --- one fit per cell against the two-fit cell it replaced ---------------


def two_fit_cell(r, alpha, beta, gamma, x0, n):
    """The cell as it was: two full fits and two full reports."""
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


def cell_draws(seed, i, j):
    """beta, gamma and x0 of cell (i, j) under ``seed``."""
    rng = np.random.default_rng([int(seed), i, j])
    return (rng.uniform(*sweep.BETA_RANGE), rng.uniform(*sweep.GAMMA_RANGE),
            rng.uniform(*sweep.X0_RANGE))


# One- and two-word seeds, their extremes, and a sweep seed as perfbench
# derives it (``perfbench.workloads.sweep_seed(1, 0)``).
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "seed",
    [0, 1, 2**32 - 1, 2**32, 2**64 - 1,
     int(np.random.SeedSequence([1, 2, 0]).generate_state(1, np.uint64)[0])],
)
def test_vectorised_draws_equal_default_rng(seed, monkeypatch):
    rng = np.random.default_rng(seed % 997)
    # rows drawn in blocks of several rows, the last short; one row per block
    # on a grid wider than the budget; and blocks of one cell, one row each
    default, wide = sweep.CHUNK_ELEMENTS, sweep.CHUNK_ELEMENTS // 11 + 1
    assert sweep._block_rows(11, 100) > 1 and 37 % sweep._block_rows(11, 100)
    assert sweep._block_rows(11, wide) == 1
    for budget, rows, cols in [(default, 37, 100), (default, 3, wide), (11, 5, 1)]:
        monkeypatch.setattr(sweep, "CHUNK_ELEMENTS", budget)
        draws = list(sweep._draws(seed, rows, cols, 11))
        assert len(draws) == -(-rows // max(1, budget // (11 * cols)))
        draws = np.hstack(draws).reshape(3, rows, cols)
        draws = draws.transpose(1, 0, 2)
        sample = [(0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1)]
        sample += zip(rng.integers(rows, size=24).tolist(), rng.integers(cols, size=24).tolist())
        for i, j in sample:
            got = [float(v).hex() for v in draws[i, :, j]]
            assert got == [v.hex() for v in cell_draws(seed, i, j)], (rows, cols, i, j)


def two_fit_sweep(config):
    cells = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, r in enumerate(config.r_grid):
            for j, alpha in enumerate(config.alpha_grid):
                beta, gamma, x0 = cell_draws(config.seed, i, j)
                cells.append(two_fit_cell(float(r), float(alpha), beta, gamma, x0,
                                          config.n_points))
    return cells


def grid_config(r_steps, alpha_steps, seed, alpha_bounds, n_points=11):
    """``SweepConfig.regular``'s grids, with alpha over ``alpha_bounds``."""
    alpha_grid = tuple(a for a in np.linspace(*alpha_bounds, alpha_steps)
                       if abs(a) >= sweep.ALPHA_DEAD_ZONE)
    return SweepConfig(r_grid=tuple(np.linspace(*sweep.R_BOUNDS, r_steps)),
                       alpha_grid=alpha_grid, n_points=n_points, seed=seed)


# |alpha| up to 40 pushes the plain fit's a to |a| >= 2 in some cells, so
# the optimised transform fails there and the cell is fit_failed.  Explicit
# ids keep each 11-point input's id stable as inputs are added.
@pytest.mark.parametrize(
    "alpha_bounds, n_points",
    [((-1.99, 1.99), 11), ((-40.0, 40.0), 11), ((-1.99, 1.99), 6), ((-40.0, 40.0), 6),
     ((-1.99, 1.99), 12), ((-40.0, 40.0), 12), ((-1.99, 1.99), 17), ((-40.0, 40.0), 17)],
    ids=["alpha_bounds0", "alpha_bounds1", "alpha_bounds0-6", "alpha_bounds1-6",
         "alpha_bounds0-12", "alpha_bounds1-12", "alpha_bounds0-17", "alpha_bounds1-17"],
)
@pytest.mark.parametrize("seed", [0, 42, 7])
def test_one_fit_cells_equal_the_two_fit_cells(seed, alpha_bounds, n_points):
    config = grid_config(12, 12, seed, alpha_bounds, n_points)
    got = run_sweep(config)
    want = two_fit_sweep(config)
    assert got == want
    assert repr(got) == repr(want)  # bitwise, NaN fields included
    if alpha_bounds[1] > 2:
        assert any(c.status == "fit_failed" for c in got)


# Lengths 2..40.  The sweep sums each cell's lags left to right, where
# np.convolve sums them in numpy's and BLAS's inner loops: the two agree up
# to the rounding of a sum of k + 1 products, and on every special value
# that does not depend on the order of the sum.
@pytest.mark.parametrize("n", range(2, 41))
@pytest.mark.parametrize("kernel", [forward_coeffs, inverse_coeffs])
def test_convolve_rows_equals_np_convolve(kernel, n):
    rng = np.random.default_rng(n)
    # each row with a kernel of its own order, one column per row as the sweep builds them
    rs = rng.uniform(0.05, 2.0, 60)
    kernels = _weights(rs, n, kernel is forward_coeffs)
    rows = random_params(rng, 20 * n).reshape(60, n)
    special = [math.inf, -math.inf, math.nan, -0.0, 1e308, -1e308, 5e-324, -2.2e-310]
    mask = rng.random(rows.shape) < 0.05
    rows[mask] = rng.choice(special, mask.sum())
    rows[0], rows[1] = np.resize(special, n), -0.0
    lag = np.arange(n)[:, None] - np.arange(n)  # k - j
    with np.errstate(over="ignore", invalid="ignore"):
        got = _convolve(rows.T, kernels).T
        alone = [_convolve(row, kernels[:, c]) for c, row in enumerate(rows)]
        want = np.array([np.convolve(row, kernel(r, n))[:n] for row, r in zip(rows, rs.tolist())])
        # terms[c, k, j] = w[j] x[k - j], the products that output k of row c sums
        w, x = kernels.T[:, None, :], np.where(lag >= 0, rows[:, np.maximum(lag, 0)], 0.0)
        terms, finite = w * x, np.isfinite(w) & np.isfinite(x)
        size = np.where(finite, np.abs(w) * np.abs(x), 0.0).sum(axis=2)
    assert got.shape == rows.shape
    assert same_bits(got, alone).all()
    # Where a product of finite factors or a sum of them could overflow, the
    # order of the sum and a fused multiply-add decide between inf and a
    # finite value, or +-inf and NaN; elsewhere they do not.
    clear = size < 1e300
    assert clear.mean() > 0.5
    pos, neg = (terms == math.inf).any(axis=2), (terms == -math.inf).any(axis=2)
    nan = np.isnan(terms).any(axis=2) | (pos & neg)
    special_out = np.where(nan, math.nan, np.where(pos, math.inf, -math.inf))
    bounded = clear & finite.all(axis=2)
    assert (clear & ~bounded).any()
    for out in (got, want):
        assert same_bits(out[clear & ~bounded], special_out[clear & ~bounded]).all()
        assert np.isfinite(out[bounded]).all()
    # two sums of the same k + 1 <= n products, each within (n - 1) half
    # ulps of their absolute sum, plus a subnormal ulp a product where BLAS fuses
    bound = 2 * n * np.finfo(float).eps * size + n * 5e-324
    assert (np.abs(got[bounded] - want[bounded]) <= bound[bounded]).all()
    assert _convolve(np.empty((n, 0)), np.empty((n, 0))).shape == (n, 0)


def single_cell(r, alpha, seed):
    """The one cell of an r x alpha sweep, and the series it was fitted to."""
    (cell,) = run_sweep(SweepConfig(r_grid=(r,), alpha_grid=(alpha,), seed=seed))
    beta, gamma, x0 = cell_draws(seed, 0, 0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        raw = generate_synthetic(r, alpha, beta, gamma, x0, 11)
    return cell, raw, (alpha, beta, gamma)


@pytest.mark.parametrize("r", [0.05, 0.5, 1.0, 1.37, 2.0])
@pytest.mark.parametrize("alpha", [-1.5, -0.2, 0.02, 0.7, 1.9])
def test_optimised_model_is_the_optimised_fit(r, alpha):
    cell, raw, truth = single_cell(r, alpha, seed=4)
    model = fit(raw, r, ModelVariant.FAGMO11K, 11)
    assert cell.status == "ok"
    assert cell.eps_fagmo == eps_params(model.active_params, truth)
    assert cell.rmspe_fagmo == evaluate(raw, predict(model, 0), 11).rmspe


def test_optimised_model_fails_where_the_optimised_fit_fails():
    cell, raw, _ = single_cell(1.0, 40.0, seed=3)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fit(raw, 1.0, ModelVariant.FAGM11K, 11)
    with pytest.raises(DevelopmentCoefficientOutOfRange):
        fit(raw, 1.0, ModelVariant.FAGMO11K, 11)
    assert cell.status == "fit_failed"


def test_no_fit_and_no_report_per_cell(monkeypatch):
    calls = {"fit": 0, "evaluate": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # wherever the sweep could reach them
    for module in (sweep, models, metrics):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    config = grid_config(6, 6, 3, (-40.0, 40.0))
    cells = run_sweep(config)
    assert any(c.status == "fit_failed" for c in cells)
    assert calls == {"fit": 0, "evaluate": 0}
