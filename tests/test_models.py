"""Model family: design construction, solving, transforms, fit/predict."""

import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from greycast import models
from greycast.accumulation import accumulate, inverse_accumulate
from greycast.datasets import load_bundled
from greycast.errors import (
    DevelopmentCoefficientOutOfRange,
    GreycastError,
    ModelFileError,
    NonFiniteResult,
    SingularDesign,
    TooFewSamples,
    VariantOrderConflict,
    ZeroDevelopmentCoefficient,
)
from greycast.models import (
    A_FLOOR,
    BaseParams,
    FittedModel,
    ModelVariant,
    OptParams,
    alpha_gap,
    build_design,
    discretization_gap,
    fit,
    optimize_params,
    predict,
    solve_least_squares,
    time_response,
)


def response_series(alpha, beta, gamma, x0, n):
    """Independent evaluation of the closed-form accumulated response."""
    ks = np.arange(1, n + 1)
    out = (
        (x0 - beta / alpha + beta / alpha**2 - gamma / alpha) * np.exp(-alpha * (ks - 1))
        + beta / alpha * ks
        - beta / alpha**2
        + gamma / alpha
    )
    out[0] = x0
    return out


def synthetic_raw(r, alpha, beta, gamma, x0, n):
    return inverse_accumulate(response_series(alpha, beta, gamma, x0, n), r)


def base_from_opt(alpha, beta, gamma):
    """Invert the optimised-parameter transform (used as a test oracle)."""
    a = 2 * (math.exp(alpha) - 1) / (math.exp(alpha) + 1)
    b = a * beta / alpha
    c = a / alpha * (gamma - b / a) + b / a
    return a, b, c


def out_of_range_raw(a=3.0, b=0.1, c=0.2, n=8):
    """Series whose exact least-squares development coefficient is ``a``.

    Built from the discrete recursion (1 + a/2) x(k) = (1 - a/2) x(k-1)
    + b(2k-1)/2 + c, so the regression recovers (a, b, c) with zero
    residual; |a| >= 2 then trips the optimised transform.
    """
    xr = [1.0]
    for k in range(2, n + 1):
        xr.append(((1 - a / 2) * xr[-1] + b * (2 * k - 1) / 2 + c) / (1 + a / 2))
    return inverse_accumulate(np.array(xr), 1.0)


class TestBuildDesign:
    def test_hand_computed_rows(self):
        # cumsum of [1,2,3,4] is [1,3,6,10]; z = 2, 4.5, 8; diffs = 2, 3, 4
        xr = accumulate([1, 2, 3, 4], 1)
        B, Y = build_design(xr, ModelVariant.FAGM11K, 4)
        np.testing.assert_allclose(
            B, [[-2.0, 1.5, 1.0], [-4.5, 2.5, 1.0], [-8.0, 3.5, 1.0]], atol=1e-15
        )
        np.testing.assert_allclose(Y, [2.0, 3.0, 4.0], atol=1e-15)

    def test_zero_slope_variant_drops_drift_column(self):
        xr = accumulate([1, 2, 3, 4], 1)
        B, _ = build_design(xr, ModelVariant.FAGM11, 4)
        np.testing.assert_allclose(B, [[-2.0, 1.0], [-4.5, 1.0], [-8.0, 1.0]], atol=1e-15)

    def test_zero_intercept_variant_drops_ones_column(self):
        xr = accumulate([1, 2, 3, 4], 1)
        B, _ = build_design(xr, ModelVariant.GM11K, 4)
        np.testing.assert_allclose(B, [[-2.0, 1.5], [-4.5, 2.5], [-8.0, 3.5]], atol=1e-15)

    @pytest.mark.parametrize("nu", [4, 6, 9])
    def test_row_count_is_nu_minus_one(self, nu):
        xr = accumulate(np.arange(1.0, 11.0), 1.3)
        B, Y = build_design(xr, ModelVariant.FAGMO11K, nu)
        assert B.shape == (nu - 1, 3)
        assert Y.shape == (nu - 1,)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            build_design([1.0, 2.0, 3.0], ModelVariant.GM11, 3)
        with pytest.raises(TooFewSamples):
            build_design([1.0, 2.0, 3.0, 4.0, 5.0], ModelVariant.GM11, 6)

    @staticmethod
    def column_stack_design(xr, variant, nu):
        """``build_design`` as it was written before it took a batch."""
        xr = xr[:nu]
        k = np.arange(2, nu + 1)
        cols = [-(0.5 * (xr[:-1] + xr[1:]))]
        if not variant.zero_slope:
            cols.append((2 * k - 1) / 2.0)
        if not variant.zero_intercept:
            cols.append(np.ones(nu - 1))
        return np.column_stack(cols), np.diff(xr)

    @pytest.mark.parametrize("variant", list(ModelVariant))
    def test_batch_equals_one_call_per_series(self, variant):
        rng = np.random.default_rng(5)
        xr = np.cumsum(rng.uniform(-3.0, 3.0, (9, 6)), axis=0)
        xr[:, 2] = 0.0  # an all-zero background column
        xr[:, 4] = accumulate(np.arange(1.0, 10.0), 0.7)
        for nu in (None, 6):
            B, Y = build_design(xr, variant, nu)
            rows = (nu or 9) - 1
            assert B.shape[::2] == (rows, 6) and Y.shape == (rows, 6)
            for j in range(xr.shape[1]):
                B1, Y1 = build_design(xr[:, j], variant, nu)
                assert np.array_equal(B[..., j], B1) and np.array_equal(Y[:, j], Y1)
                B0, Y0 = self.column_stack_design(xr[:, j], variant, nu or 9)
                assert np.array_equal(B1, B0) and np.array_equal(Y1, Y0)
        assert not B[:, 0, 2].any()


def batch_systems(rng, rows, lead, size):
    """Shared leading float columns, and ``size`` systems' last design column
    and response as (rows, size) arrays: random ones, then one with +inf,
    -inf and NaN entries, a zero column and a column in the span of the
    leading ones."""
    leading = [rng.normal(size=rows).tolist() for _ in range(lead)]
    column, response = rng.normal(size=(2, rows, size))
    column[0, 1], column[-1, 2], column[rows // 2, 3] = math.inf, -math.inf, math.nan
    response[rows - 1, 4] = math.nan
    column[:, 5] = 0.0
    column[:, 6] = 2.0 * np.array(leading[0]) - np.array(leading[-1])
    return leading, column, response


def bits(R, b=None):
    """The entries of the R of :func:`models._householder` for system b of a
    batch, or of one system (b None), as uint64 bits."""
    flat = np.array([e if np.ndim(e) == 0 else e[b] for col in R for e in col])
    flat[np.isnan(flat)] = math.nan  # the sign of a NaN depends on operand order
    return flat.view(np.uint64).tolist()


class TestSolver:
    @pytest.mark.parametrize("rows, lead", [(3, 2), (4, 2), (9, 2), (9, 1), (2, 1), (40, 2)])
    @pytest.mark.parametrize("size", [7, 8])
    def test_one_system_and_a_batch_give_the_same_bits(self, rows, lead, size):
        # rows == lead + 1 is a square design; size 8 adds a random system
        rng = np.random.default_rng(rows * size)
        leading, column, response = batch_systems(rng, rows, lead, size)
        with np.errstate(all="ignore"):
            batch = models._householder(leading, column, response)
            for b in range(size):
                one = models._householder(leading, column[:, b], response[:, b])
                assert bits(batch, b) == bits(one, None), b
            # a batch of one sums its rows of one element in order too
            column, response = column[:, :1], response[:, :1]
            assert bits(models._householder(leading, column, response), 0) == bits(batch, 0)

    @pytest.mark.parametrize("rows, lead", [(3, 2), (9, 1), (40, 2)])
    def test_work_in_place_gives_the_same_bits(self, rows, lead):
        # given work, the QR reflects column and response in place, here
        # [:, :B] views of wider buffers full of junk; without it, it
        # leaves its arguments as they were
        rng = np.random.default_rng(rows + 100)
        leading, column, response = batch_systems(rng, rows, lead, 8)
        given = column.copy(), response.copy()
        with np.errstate(all="ignore"):
            for b in [*range(8), None]:  # each system alone, then the batch
                col, y = (column, response) if b is None else (column[:, b], response[:, b])
                want = models._householder(leading, col, y)
                assert col.tobytes() == (given[0] if b is None else given[0][:, b]).tobytes()
                assert y.tobytes() == (given[1] if b is None else given[1][:, b]).tobytes()
                if b is None:
                    col_buf, y_buf, work = np.full((3, rows + 2, 13), 7.0)[:, :rows, :8]
                else:
                    col_buf, y_buf, work = np.full((3, rows), 7.0)
                col_buf[...], y_buf[...] = col, y
                got = models._householder(leading, col_buf, y_buf, work)
                for system in range(8) if b is None else [None]:
                    assert bits(got, system) == bits(want, system), (b, system)

    def test_agrees_with_lstsq_on_well_conditioned_systems(self):
        # cond <= 100 after scaling; the QR's backward error is a few eps per
        # row, so phi is within 1e-12 of lstsq's, relative to its norm
        rng = np.random.default_rng(19)
        for _ in range(200):
            rows, m = int(rng.integers(3, 41)), int(rng.integers(2, 4))
            rows = max(rows, m)
            B = rng.normal(size=(rows, m)) * 10.0 ** rng.integers(-3, 4, size=m)
            scaled = B / np.abs(B).max(axis=0)
            if np.linalg.cond(scaled) > 100:
                continue
            Y = rng.normal(size=rows) * 10.0 ** rng.integers(-3, 4)
            want = np.linalg.lstsq(scaled, Y, rcond=None)[0]
            got = solve_least_squares(B, Y) * np.abs(B).max(axis=0)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("variant", list(ModelVariant), ids=lambda v: v.value)
    def test_z_in_the_span_of_the_constant_columns_is_singular(self, variant):
        # accumulated at r = 1, [3, 2, 2, 2, 2, 2] is 3 + 2(k - 1), so z(k) = 2k,
        # which (2k - 1)/2 and 1 span; a zero series makes -z a zero column
        good = [1.0, 1.2, 1.5, 1.9, 2.4, 3.0]
        fit(good, 1.0, variant)
        for values in ([3.0, 2.0, 2.0, 2.0, 2.0, 2.0], np.zeros(6)):
            if values[0] and (variant.zero_slope or variant.zero_intercept):
                continue  # 2k is not in the span of one of the two columns
            with pytest.raises(SingularDesign):
                fit(values, 1.0, variant)
            xr = np.column_stack([accumulate(values, 1.0), accumulate(good, 1.0)])
            with np.errstate(all="ignore"):
                assert models._fit_batch(xr, variant)[2].tolist() == [True, False]

    def test_consistent_system_has_tiny_residual(self):
        rng = np.random.default_rng(11)
        B = rng.normal(size=(6, 3))
        phi = rng.normal(size=3)
        got = solve_least_squares(B, B @ phi)
        assert np.linalg.norm(B @ got - B @ phi) < 1e-10

    def test_agrees_with_lstsq(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            B = rng.normal(size=(8, 3))
            Y = rng.normal(size=8)
            got = solve_least_squares(B, Y)
            want = np.linalg.lstsq(B, Y, rcond=None)[0]
            np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-10)

    def test_constant_series_degenerates_gracefully(self):
        # z is exactly affine in k, but the two-column reduced design is
        # still full rank: a ~ 0 with c ~ the constant level.
        xr = accumulate([5.0, 5.0, 5.0, 5.0], 1)
        B, Y = build_design(xr, ModelVariant.GM11, 4)
        a, c = solve_least_squares(B, Y)
        assert abs(a) < 1e-12
        assert c == pytest.approx(5.0, rel=1e-12)

    def test_dependent_columns_raise_singular(self):
        # accumulated series [1,2,3,4] makes z(k) == (2k-1)/2 exactly
        B, Y = build_design(np.array([1.0, 2.0, 3.0, 4.0]), ModelVariant.FAGM11K, 4)
        with pytest.raises(SingularDesign):
            solve_least_squares(B, Y)

    def test_ill_conditioned_consistent_system_is_solved_accurately(self):
        # R0 = [[1, 1, 0], [0, d, 1], [0, 0, d]] has cond about 2/d^2 though no
        # diagonal entry of its R is below d; the normal equations square
        # that condition number and lose every digit but one or two.
        d = 10**-3.35
        R0 = np.array([[1.0, 1.0, 0.0], [0.0, d, 1.0], [0.0, 0.0, d]])
        B = np.linalg.qr(np.random.default_rng(3).normal(size=(8, 3)))[0] @ R0
        assert 5e6 < np.linalg.cond(B / np.abs(B).max(axis=0)) < 2e7
        phi = np.array([1.0, -2.0, 3.0])
        got = solve_least_squares(B, B @ phi)
        assert np.linalg.norm(got - phi) / np.linalg.norm(phi) < 1e-8

    def test_square_design_is_solved_exactly(self):
        # nu = 4 gives three rows for fagm11k's three unknowns, and R has
        # no row for the residual
        B, Y = build_design(accumulate([1.0, 2.5, 3.1, 4.7], 0.8), ModelVariant.FAGM11K)
        assert B.shape == (3, 3)
        np.testing.assert_allclose(B @ solve_least_squares(B, Y), Y, rtol=1e-12)

    @pytest.mark.parametrize("where", [(0, 0), (2, 1), (3, 2)])
    def test_nan_in_the_design_gives_all_nan(self, where):
        B = np.random.default_rng(4).normal(size=(5, 3))
        B[where] = math.nan
        with np.errstate(all="ignore"):
            assert np.isnan(solve_least_squares(B, np.ones(5))).all()

    def test_recovers_transform_consistent_parameters(self):
        # data generated from the optimised response must regress to the
        # base triple whose transform reproduces the generating triple
        alpha, beta, gamma, x0 = 0.8, 2.5, 40.0, 1.3
        xr = response_series(alpha, beta, gamma, x0, 11)
        B, Y = build_design(xr, ModelVariant.FAGMO11K, 11)
        a, b, c = solve_least_squares(B, Y)
        opt = optimize_params(BaseParams(a, b, c))
        assert opt.alpha == pytest.approx(alpha, abs=1e-6)
        assert opt.beta == pytest.approx(beta, abs=1e-6)
        assert opt.gamma == pytest.approx(gamma, abs=1e-6)


class TestOptimizeParams:
    def test_alpha_gap_at_one(self):
        opt = optimize_params(BaseParams(1.0, 0.0, 0.0))
        assert abs((opt.alpha - 1.0) - 0.0986) < 5e-5  # ln 3 - 1

    def test_alpha_gap_at_tenth(self):
        opt = optimize_params(BaseParams(0.1, 0.0, 0.0))
        assert abs((opt.alpha - 0.1) - 0.0001) < 5e-5

    def test_defining_identities_hold(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a = rng.uniform(-1.9, 1.9)
            if abs(a) < 1e-3:
                continue
            b, c = rng.uniform(-5, 5), rng.uniform(-100, 100)
            opt = optimize_params(BaseParams(a, b, c))
            assert abs((1 + a / 2) - (1 - a / 2) * math.exp(opt.alpha)) < 1e-12
            assert abs(opt.beta * a / opt.alpha - b) < 1e-12 * max(1.0, abs(b))

    def test_small_a_limit(self):
        # frozen from direct evaluation of the transform at a=0.01, b=2, c=5
        # (series check: alpha gap = a^3/12 + a^5/40 + ... = 8.33346e-8);
        # the gamma gap exceeds 1e-3 because c - b/a = -195 amplifies it
        opt = optimize_params(BaseParams(0.01, 2.0, 5.0))
        assert opt.alpha - 0.01 == pytest.approx(8.3334583e-08, rel=1e-6, abs=0)
        assert opt.beta - 2.0 == pytest.approx(1.6666917e-05, rel=1e-6, abs=0)
        assert opt.gamma - 5.0 == pytest.approx(-1.6250244e-03, rel=1e-6, abs=0)
        assert abs(opt.alpha - 0.01) < 1e-3
        assert abs(opt.beta - 2.0) < 1e-3
        assert abs(opt.gamma - 5.0) < 2e-3

    def test_gap_strictly_increasing_on_the_open_interval(self):
        grid = np.linspace(-1.95, 1.95, 200)
        gaps = [alpha_gap(a) for a in grid]
        assert all(g1 < g2 for g1, g2 in zip(gaps, gaps[1:]))

    def test_gamma_matches_simplified_identity(self):
        # cross-check: gamma - c == (alpha_gap(a) / a) * (c - b/a)
        for a, b, c in [(0.5, 2.0, 5.0), (-1.2, 1.0, 30.0), (1.7, 4.0, 80.0)]:
            opt = optimize_params(BaseParams(a, b, c))
            want = alpha_gap(a) / a * (c - b / a)
            assert opt.gamma - c == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_zero_development_coefficient(self):
        # an a at roundoff level counts as 0
        for a in (0.0, -0.0, 1.1e-16, -7e-15, 0.99 * A_FLOOR):
            with pytest.raises(ZeroDevelopmentCoefficient):
                optimize_params(BaseParams(a, 1.0, 1.0))
        opt = optimize_params(BaseParams(-A_FLOOR, 1.0, 1.0))
        assert math.isfinite(opt.gamma) and opt.alpha < 0

    @pytest.mark.parametrize("a", [2.0, -2.0, 2.5, -3.0])
    def test_out_of_range(self, a):
        with pytest.raises(DevelopmentCoefficientOutOfRange):
            optimize_params(BaseParams(a, 1.0, 1.0))


class TestTimeResponse:
    def test_anchored_initial_value_is_exact(self):
        model = fit(load_bundled("nuclear").values, 1.1595, ModelVariant.FAGMO11K, 10)
        assert time_response(model, 1) == model.x0

    def test_pure_exponential_decay(self):
        model = FittedModel(
            variant=ModelVariant.FAGM11,
            r=1.0,
            base=BaseParams(math.log(2), 0.0, 0.0),
            opt=None,
            x0=1.0,
            nu=4,
            n_total=4,
            labels=(1, 2, 3, 4),
        )
        assert time_response(model, 3) == pytest.approx(0.25, rel=1e-12)

    def test_reproduces_generating_response(self):
        alpha, beta, gamma, x0, r = -0.6, 1.5, 25.0, 1.8, 0.9
        raw = synthetic_raw(r, alpha, beta, gamma, x0, 11)
        model = fit(raw, r, ModelVariant.FAGMO11K, 11)
        want = response_series(alpha, beta, gamma, x0, 20)
        got = time_response(model, np.arange(1, 21))
        np.testing.assert_allclose(got, want, rtol=1e-8)

    def test_rejects_index_below_one(self):
        model = fit(load_bundled("nuclear").values, 1.0, ModelVariant.GM11, 10)
        with pytest.raises(ValueError):
            time_response(model, 0)

    # a = 0 makes the response's b/a and b/a^2 terms infinite and their
    # difference NaN from k = 2 on; fit's numpy floats would also warn
    @pytest.mark.parametrize("dtype", [float, np.float64])
    def test_zero_development_coefficient_raises_without_a_warning(self, dtype):
        fitted = fit(load_bundled("nuclear").values, 1.1595, ModelVariant.FAGM11K, 10)
        model = replace(fitted, base=replace(fitted.base, a=dtype(0.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert time_response(model, 1) == model.x0
            for k in ([1, 2, 3, 4], 2, 2.0):
                with pytest.raises(NonFiniteResult, match=r"^response at time index 2 is NaN$"):
                    time_response(model, k)
            with pytest.raises(NonFiniteResult, match=r"^response at time index 2 is NaN$"):
                discretization_gap(model, 3)

    def test_overflowing_response_is_named(self):
        # x0 * 2**(k-1): finite up to k = 1024, where the gap's z overflows
        model = replace(
            fit(load_bundled("nuclear").values, 1.0, ModelVariant.FAGM11, 10),
            base=BaseParams(-math.log(2), 0.0, 0.0), x0=1.9,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(time_response(model, 1024))
            with pytest.raises(NonFiniteResult, match=r"^response at time index 1025 overflows$"):
                time_response(model, np.arange(1, 2000))
            with pytest.raises(NonFiniteResult, match=r"^gap at k=1024 overflows$"):
                discretization_gap(model, 1024)


class TestFit:
    @pytest.mark.parametrize(
        "variant", [ModelVariant.FAGMO11K, ModelVariant.FAGM11K, ModelVariant.FAGM11]
    )
    def test_overflowing_order_raises_without_a_warning(self, variant):
        # the accumulation overflows from lag 2 on, so the design is inf - inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResult):
                fit(load_bundled("nuclear").values, 1e300, variant, 10)

    def test_oilfield_reference_values(self):
        data = load_bundled("oilfield")
        model = fit(data.values, 0.4052, ModelVariant.FAGMO11K, 11, labels=data.labels)
        restored = predict(model, 0)
        assert restored[1] == pytest.approx(136.4573, rel=1e-3)
        assert restored[10] == pytest.approx(519.5393, rel=1e-3)

    def test_nuclear_reference_value(self):
        data = load_bundled("nuclear")
        model = fit(data.values, 1.1595, ModelVariant.FAGMO11K, 10)
        assert predict(model, 0)[1] == pytest.approx(15.0891, rel=1e-3)

    def test_exact_parameter_recovery(self):
        raw = synthetic_raw(0.7, 0.45, 3.0, 60.0, 1.2, 11)
        model = fit(raw, 0.7, ModelVariant.FAGMO11K, 11)
        eps = (
            (model.opt.alpha - 0.45) ** 2
            + (model.opt.beta - 3.0) ** 2
            + (model.opt.gamma - 60.0) ** 2
        )
        assert eps < 1e-6

    def test_order_locked_variant_rejects_fractional_order(self):
        data = load_bundled("nuclear")
        for variant in (ModelVariant.GM11, ModelVariant.GM11K, ModelVariant.GM11KC,
                        ModelVariant.ONGM11K):
            with pytest.raises(VariantOrderConflict):
                fit(data.values, 0.5, variant, 10)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            fit([1.0, 2.0, 3.0, 4.0, 5.0], 1.0, ModelVariant.GM11, 3)
        with pytest.raises(TooFewSamples):
            fit([1.0, 2.0, 3.0, 4.0], 1.0, ModelVariant.GM11, 6)

    @pytest.mark.parametrize("nu", [10.7, "10", True])
    def test_nu_must_be_a_whole_number(self, nu):
        with pytest.raises(ValueError):
            fit(load_bundled("nuclear").values, 1.1595, ModelVariant.FAGMO11K, nu)

    @pytest.mark.parametrize("nu", [10.0, np.int64(10)])
    def test_whole_number_nu_gives_the_same_model(self, nu):
        values = load_bundled("nuclear").values
        got, want = (fit(values, 1.1595, ModelVariant.FAGMO11K, v).to_dict() for v in (nu, 10))
        assert json.dumps(got) == json.dumps(want)

    def test_singular_design_propagates(self):
        with pytest.raises(SingularDesign):
            fit([1.0, 1.0, 1.0, 1.0], 1.0, ModelVariant.FAGM11K, 4)

    def test_out_of_range_coefficient_propagates(self):
        raw = out_of_range_raw(a=3.0)
        # the plain variant fits fine and recovers a = 3 exactly
        plain = fit(raw, 1.0, ModelVariant.GM11KC, raw.size)
        assert plain.base.a == pytest.approx(3.0, rel=1e-9)
        with pytest.raises(DevelopmentCoefficientOutOfRange):
            fit(raw, 1.0, ModelVariant.ONGM11K, raw.size)

    def test_label_length_checked(self):
        with pytest.raises(ValueError):
            fit([1.0, 2.0, 3.0, 4.0], 1.0, ModelVariant.GM11, 4, labels=(1, 2))

    @pytest.mark.parametrize(
        "labels",
        [[2006.7, 2007.7, 2008.7, 2009.7, 2010.7], [5, 4, 3, 2, 1], [1, 1, 1, 1, 1],
         [1, 2, 3, 3, 4], [1, 2, 3, float("nan"), 5], [1, 2, 3, 4, float("inf")]],
    )
    def test_labels_must_be_whole_and_strictly_increasing(self, labels):
        with pytest.raises(ValueError):
            fit([1.0, 2.0, 3.0, 4.0, 5.0], 1.0, ModelVariant.GM11KC, labels=labels)

    @pytest.mark.parametrize("variant", list(ModelVariant))
    @pytest.mark.parametrize("values", [[1, 2, math.nan, 4, 5], [1, 1e308, 1e308, 4, 5]])
    def test_non_finite_parameters_raise(self, values, variant):
        with np.errstate(all="ignore"), pytest.raises(NonFiniteResult):
            fit(values, 1.0 if variant.order_locked else 0.5, variant)

    def test_one_huge_value_fits_fagm11_finitely(self):
        # The QR's Householder steps scale their norms, so this fit stays
        # finite where the normal equations' S^T Y overflowed.
        model = fit([1, 1e308, 3, 4, 5], 0.5, ModelVariant.FAGM11)
        assert model.base.a == pytest.approx(1.2129, rel=1e-4)
        assert model.base.b == 0.0
        assert model.base.c == pytest.approx(6.9407e307, rel=1e-4)
        restored = predict(model, 0)
        assert np.isfinite(restored).all() and restored[0] == 1.0

    def test_whole_number_labels_round_trip(self):
        model = fit([1.0, 2.0, 3.0, 4.0, 5.0], 1.0, ModelVariant.GM11KC,
                    labels=np.array([2001.0, 2003.0, 2004.0, 2010.0, 2011.0]))
        assert model.labels == (2001, 2003, 2004, 2010, 2011)
        assert FittedModel.from_dict(model.to_dict()) == model


class TestPredict:
    def test_oilfield_forecast_values(self):
        data = load_bundled("oilfield")
        model = fit(data.values[:11], 0.4052, ModelVariant.FAGMO11K, 11)
        restored = predict(model, 3)
        for got, want in zip(restored[11:], (550.1281, 579.5714, 608.0086)):
            assert got == pytest.approx(want, rel=1e-3)

    def test_nuclear_extrapolation(self):
        data = load_bundled("nuclear")
        model = fit(data.values, 1.1595, ModelVariant.FAGMO11K, 10)
        assert predict(model, 3)[14] == pytest.approx(123.3723, rel=1e-3)

    def test_round_trips_synthetic_data(self):
        raw = synthetic_raw(1.3, -0.9, 2.2, 45.0, 1.6, 11)
        model = fit(raw, 1.3, ModelVariant.FAGMO11K, 11)
        np.testing.assert_allclose(predict(model, 0), raw, rtol=1e-8)

    @pytest.mark.parametrize("variant", list(ModelVariant))
    def test_first_restored_value_is_anchored(self, variant):
        rng = np.random.default_rng(17)
        raw = np.sort(rng.uniform(1, 50, size=9))
        r = 1.0 if variant.order_locked else 0.7
        model = fit(raw, r, variant, 9)
        assert predict(model, 2)[0] == raw[0]

    def test_overflow_raises_and_large_finite_values_pass(self):
        model = fit(load_bundled("nuclear").values, 1.1595, ModelVariant.FAGMO11K, 10)
        # An error filter turns any numpy warning into an exception.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 1e236 < predict(model, 2000)[-1] < math.inf
            with pytest.raises(NonFiniteResult, match="overflows"):
                predict(model, 20000)

    # Python floats, which from_dict gives, raise ZeroDivisionError for a = 0
    # or an a whose square underflows; numpy floats, which fit gives, divide
    # to inf or NaN with a warning.
    @pytest.mark.parametrize("a", [0.0, -0.0, 1e-300, -5e-324])
    def test_zero_development_coefficient_raises_alike_for_both_float_types(self, a):
        fitted = fit(load_bundled("nuclear").values, 1.1595, ModelVariant.FAGM11K, 10)
        held = replace(fitted, base=replace(fitted.base, a=np.float64(a)))
        loaded = FittedModel.from_dict(held.to_dict())
        assert type(held.base.a) is np.float64 and type(loaded.base.a) is float
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for model in (held, loaded):
                with pytest.raises(NonFiniteResult):
                    predict(model, 2)
            messages = []
            for model in (held, loaded):
                with pytest.raises(NonFiniteResult) as raised:
                    time_response(model, np.arange(1.0, 6.0))
                messages.append(str(raised.value))
        assert messages[0] == messages[1]

    def test_nan_restored_value_is_named_as_nan(self):
        # a = 0 makes the response's b/a and b/a^2 terms infinite, and
        # their difference NaN; "overflows" would name the wrong cause
        fitted = fit(load_bundled("nuclear").values, 1.1595, ModelVariant.FAGM11K, 10)
        doc = fitted.to_dict()
        doc["a"] = 0.0
        with pytest.raises(NonFiniteResult, match=r"^restored value 2 is NaN$"):
            predict(FittedModel.from_dict(doc), 2)

    def test_negative_horizon_rejected(self):
        model = fit(load_bundled("nuclear").values, 1.0, ModelVariant.GM11, 10)
        with pytest.raises(ValueError):
            predict(model, -1)

    def test_horizon_must_be_a_whole_number(self):
        model = fit(load_bundled("nuclear").values, 1.1595, ModelVariant.FAGMO11K, 10)
        for horizon in (2.5, "3", True):
            with pytest.raises(ValueError):
                predict(model, horizon)
        want = predict(model, 3).tobytes()
        assert predict(model, 3.0).tobytes() == predict(model, np.int64(3)).tobytes() == want


class TestDiscretizationGap:
    def test_optimised_parameters_cancel_the_gap(self):
        model = fit(load_bundled("nuclear").values, 1.1595, ModelVariant.FAGMO11K, 10)
        assert all(abs(discretization_gap(model, k)) < 1e-10 for k in range(2, 21))

    def test_plain_fit_leaves_a_gap_at_large_alpha(self):
        raw = synthetic_raw(1.0, 1.5, 2.0, 50.0, 1.5, 11)
        model = fit(raw, 1.0, ModelVariant.GM11KC, 11)
        assert max(abs(discretization_gap(model, k)) for k in range(2, 12)) > 1e-3

    def test_gap_shrinks_with_the_development_coefficient(self):
        maxima = []
        for a in (0.5, 0.1, 0.01):
            model = FittedModel(
                variant=ModelVariant.GM11KC,
                r=1.0,
                base=BaseParams(a, 2.0, 5.0),
                opt=None,
                x0=1.5,
                nu=10,
                n_total=10,
                labels=tuple(range(1, 11)),
            )
            maxima.append(max(abs(discretization_gap(model, k)) for k in range(2, 11)))
        assert maxima[0] > maxima[1] > maxima[2]

    def test_rejects_k_below_two(self):
        model = fit(load_bundled("nuclear").values, 1.0, ModelVariant.GM11, 10)
        with pytest.raises(ValueError):
            discretization_gap(model, 1)
        with pytest.raises(ValueError):
            discretization_gap(model, 2.5)


class TestReductions:
    def test_ongm_is_fagmo_at_order_one(self):
        data = load_bundled("settlement")
        a = fit(data.values, 1.0, ModelVariant.ONGM11K, 11)
        b = fit(data.values, 1.0, ModelVariant.FAGMO11K, 11)
        assert a.base == b.base
        assert a.opt == b.opt
        np.testing.assert_array_equal(predict(a, 2), predict(b, 2))

    def test_gm11_is_fagm11_at_order_one(self):
        data = load_bundled("nuclear")
        a = fit(data.values, 1.0, ModelVariant.GM11, 10)
        b = fit(data.values, 1.0, ModelVariant.FAGM11, 10)
        assert a.base == b.base
        np.testing.assert_array_equal(predict(a, 0), predict(b, 0))

    def test_gm11kc_is_fagm11k_at_order_one(self):
        data = load_bundled("nuclear")
        a = fit(data.values, 1.0, ModelVariant.GM11KC, 10)
        b = fit(data.values, 1.0, ModelVariant.FAGM11K, 10)
        assert a.base == b.base


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


def _valid_fields(**overrides):
    fields = dict(
        variant=ModelVariant.FAGMO11K,
        r=1.1595,
        base=BaseParams(-0.1145923, 0.35521, 1.882),
        opt=OptParams(-0.1147, 0.3555, 1.8834),
        x0=12.4,
        nu=10,
        n_total=12,
        labels=tuple(range(2006, 2018)),
    )
    fields.update(overrides)
    return fields


class TestSerialization:
    def _model(self, **overrides):
        return FittedModel(**_valid_fields(**overrides))

    def test_round_trip_through_file(self, tmp_path):
        data = load_bundled("nuclear")
        model = fit(data.values, 1.1595, ModelVariant.FAGMO11K, 10, labels=data.labels)
        path = tmp_path / "model.json"
        model.save(path)
        assert FittedModel.load(path) == model

    @settings(max_examples=60, deadline=None)
    @given(r=st.floats(min_value=1e-6, max_value=10), a=finite_floats, b=finite_floats,
           c=finite_floats, x0=finite_floats)
    def test_floats_round_trip_exactly(self, r, a, b, c, x0):
        model = self._model(r=r, base=BaseParams(a, b, c), opt=None,
                            variant=ModelVariant.FAGM11K, x0=x0)
        back = FittedModel.from_dict(model.to_dict())
        assert back.r == model.r and back.base == model.base and back.x0 == model.x0

    def test_unoptimised_variant_serializes_null_transform(self):
        doc = self._model(variant=ModelVariant.FAGM11K, opt=None).to_dict()
        assert doc["alpha"] is None and doc["beta"] is None and doc["gamma"] is None

    def test_rejects_bad_documents(self):
        good = self._model().to_dict()
        for breakage in (
            {"schema_version": 2},
            {"variant": "nope"},
            {"nu": 2},
            {"labels": [1, 2]},
            {"alpha": None},  # optimised variant must carry the transform
            {"r": -1.0},
            {"r": 0.0},
            {"r": float("nan")},
            {"r": float("inf")},
            {"variant": "ongm11k"},  # order-locked, but r = 1.1595
            {"a": float("nan")},
            {"c": float("-inf")},
            {"alpha": float("nan")},
            {"gamma": float("inf")},
            {"x0": float("inf")},
            {"variant": "fagm11k"},  # not optimised, but alpha/beta/gamma set
            {"variant": "fagm11k", "alpha": None, "beta": None},
            {"nu": 10.7},
            {"nu": "10"},
            {"nu": float("inf")},
            {"n_total": 12.5, "labels": list(range(2006, 2018))},
            {"labels": [2006] * 12},
            {"labels": list(range(2017, 2005, -1))},
            {"labels": list(range(2006, 2017)) + [2016]},
            {"labels": [2006.0] * 11 + [float("inf")]},
            {"labels": [v + 0.7 for v in range(2006, 2018)]},
            {"labels": [True] + list(range(2007, 2018))},
            {"nu": True},
            {"r": "1.1595"},
            {"a": " -0.1145 "},
            {"x0": "12.4"},
            {"alpha": True},
            {"beta": [0.3555]},
        ):
            doc = dict(good)
            doc.update(breakage)
            with pytest.raises(ModelFileError):
                FittedModel.from_dict(doc)

    @pytest.mark.parametrize("nu", [3, 13])
    def test_bad_nu_gives_the_message_of_fit(self, nu):
        doc = self._model().to_dict()
        doc["nu"] = nu
        with pytest.raises(TooFewSamples) as fitted:
            fit(np.arange(1.0, 13.0), 1.1595, ModelVariant.FAGMO11K, nu)
        with pytest.raises(ModelFileError, match=re.escape(str(fitted.value))):
            FittedModel.from_dict(doc)

    def test_accepts_whole_number_floats_for_counts(self):
        doc = self._model().to_dict()
        doc.update(nu=10.0, n_total=12.0)
        assert FittedModel.from_dict(doc) == self._model()

    def test_accepts_integers_and_numpy_floats_for_parameters(self):
        doc = self._model().to_dict()
        doc.update(r=1, x0=np.float32(12.5))
        assert FittedModel.from_dict(doc) == self._model(r=1.0, x0=12.5)

    def test_every_fitted_variant_loads(self):
        data = load_bundled("nuclear")
        for variant in ModelVariant:
            r = 1.0 if variant.order_locked else 1.1595
            model = fit(data.values, r, variant, 10, labels=data.labels)
            assert FittedModel.from_dict(model.to_dict()) == model

    def test_rejects_non_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ModelFileError):
            FittedModel.load(path)

    def test_order_search_info_survives(self, tmp_path):
        model = replace(self._model(), order_search={"objective": "rmspe", "objective_value": 3.3})
        path = tmp_path / "m.json"
        model.save(path)
        assert FittedModel.load(path).order_search == model.order_search


class TestInvariants:
    @pytest.mark.parametrize(
        "overrides, error",
        [
            ({"r": 0.0}, ValueError),
            ({"r": -1.0}, ValueError),
            ({"r": math.nan}, ValueError),
            ({"r": math.inf}, ValueError),
            ({"variant": ModelVariant.ONGM11K}, VariantOrderConflict),
            ({"variant": ModelVariant.GM11, "opt": None, "r": 0.5}, VariantOrderConflict),
            ({"opt": None}, ValueError),
            ({"variant": ModelVariant.FAGM11K}, ValueError),
            ({"x0": math.inf}, NonFiniteResult),
            ({"base": BaseParams(math.nan, 0.35521, 1.882)}, NonFiniteResult),
            ({"base": BaseParams(-0.1, -math.inf, 1.882)}, NonFiniteResult),
            ({"base": BaseParams(-0.1, 0.35521, math.inf)}, NonFiniteResult),
            ({"opt": OptParams(math.nan, 0.3555, 1.8834)}, NonFiniteResult),
            ({"opt": OptParams(-0.1147, math.inf, 1.8834)}, NonFiniteResult),
            ({"opt": OptParams(-0.1147, 0.3555, -math.inf)}, NonFiniteResult),
            ({"nu": 3}, TooFewSamples),
            ({"nu": 13}, TooFewSamples),
            ({"nu": 10.5}, ValueError),
            ({"n_total": 12.5}, ValueError),
            ({"n_total": 20}, ValueError),
        ],
    )
    def test_each_broken_invariant_raises_its_error(self, overrides, error):
        FittedModel(**_valid_fields())
        with pytest.raises(error):
            FittedModel(**_valid_fields(**overrides))

    def test_replace_is_checked_too(self):
        model = FittedModel(**_valid_fields())
        with pytest.raises(NonFiniteResult):
            replace(model, x0=math.nan)
        with pytest.raises(ValueError):
            replace(model, variant=ModelVariant.FAGM11K)
        with pytest.raises(ValueError):
            replace(model, nu=10.5)


@st.composite
def fitted_models(draw):
    """Whatever ``fit`` returns over variants, orders, windows and labels."""
    variant = draw(st.sampled_from(list(ModelVariant)))
    n = draw(st.integers(4, 16))
    nu = draw(st.integers(4, n))
    r = 1.0 if variant.order_locked else draw(st.floats(0.05, 2.0))
    growth = draw(st.floats(-0.2, 0.3))
    noise = draw(st.lists(st.floats(0.9, 1.1), min_size=n, max_size=n))
    values = 2.0 * np.exp(growth * np.arange(n)) * np.array(noise)
    labels = draw(
        st.none()
        | st.tuples(st.integers(-3000, 3000), st.lists(st.integers(1, 50), min_size=n,
                                                       max_size=n))
        .map(lambda t: (t[0] + np.cumsum(t[1])).tolist())
    )
    try:
        return fit(values, r, variant, nu, labels=labels)
    except GreycastError:
        assume(False)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=13) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=16,
)
_DELETE = object()
_NUCLEAR = load_bundled("nuclear")
_NUCLEAR_DOCS = [
    fit(_NUCLEAR.values, 1.0 if v.order_locked else 1.1595, v, 10,
        labels=_NUCLEAR.labels).to_dict()
    for v in ModelVariant
]


class TestDocumentProperties:
    @settings(max_examples=150, deadline=None)
    @given(model=fitted_models())
    def test_every_fit_round_trips(self, model):
        doc = json.loads(json.dumps(model.to_dict()))
        assert FittedModel.from_dict(doc) == model

    @settings(max_examples=150, deadline=None)
    @given(
        good=st.sampled_from(_NUCLEAR_DOCS),
        field=st.sampled_from(sorted(_NUCLEAR_DOCS[0]) + ["order_search"]),
        value=st.just(_DELETE) | st.sampled_from([v.value for v in ModelVariant])
        | st.integers(-2, 20) | st.floats() | _json_values,
    )
    def test_one_broken_field_loads_a_valid_model_or_raises_model_file_error(
        self, good, field, value
    ):
        doc = dict(good)
        if value is _DELETE:
            doc.pop(field, None)
        else:
            doc[field] = value
        try:
            loaded = FittedModel.from_dict(doc)
        except ModelFileError:
            return
        assert FittedModel.from_dict(loaded.to_dict()) == loaded
