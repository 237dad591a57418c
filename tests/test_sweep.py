"""Stochastic parameter-recovery sweep."""

import math

import numpy as np
import pytest

from greycast.accumulation import accumulate
from greycast.models import ModelVariant, fit
from greycast.sweep import (
    SWEEP_CSV_HEADER,
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

    def test_validation_rejects_bad_grids(self):
        good = small_config()
        with pytest.raises(ValueError):
            SweepConfig(r_grid=(), alpha_grid=good.alpha_grid).validate()
        with pytest.raises(ValueError):
            SweepConfig(r_grid=(1.0, 0.5), alpha_grid=good.alpha_grid).validate()
        with pytest.raises(ValueError):
            SweepConfig(r_grid=good.r_grid, alpha_grid=(0.001, 0.5)).validate()
        with pytest.raises(ValueError):
            SweepConfig(r_grid=good.r_grid, alpha_grid=good.alpha_grid, n_points=4).validate()
        with pytest.raises(ValueError):
            SweepConfig.regular(r_steps=0)
        with pytest.raises(ValueError):
            SweepConfig.regular(r_bounds=(-1.0, 2.0))
