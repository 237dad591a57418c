"""Stochastic parameter-recovery sweep."""

import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from greycast import metrics, models, sweep
from greycast.accumulation import accumulate
from greycast.errors import DevelopmentCoefficientOutOfRange, GreycastError
from greycast.metrics import evaluate
from greycast.models import ModelVariant, fit, predict
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


def small_config(**kwargs):
    # 6 alpha steps avoid the exact-zero grid point, so nothing is filtered
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
    [((-1.99, 1.99), 11), ((-40.0, 40.0), 11), ((-1.99, 1.99), 6), ((-40.0, 40.0), 6)],
    ids=["alpha_bounds0", "alpha_bounds1", "alpha_bounds0-6", "alpha_bounds1-6"],
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
