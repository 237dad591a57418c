"""Fractional accumulation operators: kernels, convolutions, matrices."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greycast.accumulation import (
    accumulate,
    ago_matrix,
    forward_coeffs,
    iago_matrix,
    inverse_accumulate,
    inverse_coeffs,
)


class TestFracBinomial:
    """Forward weights w(i) = r(r+1)...(r+i-1)/i! from forward_coeffs."""

    def test_lag_zero_is_empty_product(self):
        assert forward_coeffs(0.7, 1)[0] == 1.0

    def test_order_one_weights_are_all_ones(self):
        np.testing.assert_array_equal(forward_coeffs(1, 10), np.ones(10))

    def test_direct_product(self):
        # oracle: 0.5 * 1.5 / 2!
        assert forward_coeffs(0.5, 3)[2] == pytest.approx(0.375, abs=1e-15)

    def test_matches_product_form(self):
        r = 1.37
        weights = forward_coeffs(r, 12)
        for i in range(12):
            direct = np.prod([r + m for m in range(i)]) / math.factorial(i)
            assert weights[i] == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("bad_r", [float("nan"), float("inf"), -1.0, 0.0])
    def test_rejects_bad_order(self, bad_r):
        with pytest.raises(ValueError):
            forward_coeffs(bad_r, 3)

    @pytest.mark.parametrize("r, expected_sign", [(0.3, -1), (0.9, -1), (1.2, 1), (2.5, 1)])
    def test_weight_sequence_monotone_with_sign_of_r_minus_1(self, r, expected_sign):
        assert np.all(np.sign(np.diff(forward_coeffs(r, 40))) == expected_sign)

    def test_weight_sequence_constant_at_order_one(self):
        assert np.all(np.diff(forward_coeffs(1.0, 40)) == 0.0)


class TestInvBinomial:
    """Inverse weights (-1)^i C(r, i) from inverse_coeffs."""

    def test_lag_zero(self):
        assert inverse_coeffs(0.5, 1)[0] == 1.0

    def test_order_one_superdiagonal(self):
        assert inverse_coeffs(1, 2)[1] == -1.0

    def test_direct_product(self):
        # oracle: (-1)^2 * (0.5 * -0.5) / 2!
        assert inverse_coeffs(0.5, 3)[2] == pytest.approx(-0.125, abs=1e-15)

    def test_integer_order_vanishes_beyond_r(self):
        weights = inverse_coeffs(2, 8)
        assert np.all(weights[3:] == 0.0)
        assert weights[2] != 0.0

    def test_fractional_order_never_vanishes(self):
        assert np.all(inverse_coeffs(0.4052, 30) != 0.0)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            inverse_coeffs(float("nan"), 2)


@pytest.mark.parametrize("coeffs", [forward_coeffs, inverse_coeffs])
def test_kernel_length_must_be_a_whole_number(coeffs):
    for n in (3.9, "4", True):
        with pytest.raises(ValueError):
            coeffs(0.7, n)
    want = coeffs(0.7, 4).tobytes()
    assert coeffs(0.7, 4.0).tobytes() == coeffs(0.7, np.int64(4)).tobytes() == want


class TestConvolutionOperators:
    def test_order_one_is_cumulative_sum(self):
        np.testing.assert_array_equal(accumulate([1, 2, 3], 1), [1.0, 3.0, 6.0])

    def test_half_order_constant_series(self):
        # kernel 1, 0.5, 0.375 convolved with ones
        got = accumulate([1, 1, 1], 0.5)
        np.testing.assert_allclose(got, [1.0, 1.5, 1.875], atol=1e-15)

    def test_single_element(self):
        np.testing.assert_array_equal(accumulate([5], 1.7), [5.0])

    def test_first_element_passthrough(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.1, 10, size=9)
        assert accumulate(x, 0.73)[0] == x[0]

    def test_inverse_is_first_differences_at_order_one(self):
        np.testing.assert_allclose(inverse_accumulate([1, 3, 6], 1), [1.0, 2.0, 3.0], atol=1e-15)

    def test_inverse_of_half_order_example(self):
        got = inverse_accumulate([1, 1.5, 1.875], 0.5)
        np.testing.assert_allclose(got, [1.0, 1.0, 1.0], atol=1e-12)

    def test_round_trip_fractional(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.5, 20, size=14)
        back = inverse_accumulate(accumulate(x, 0.4052), 0.4052)
        np.testing.assert_allclose(back, x, rtol=1e-10)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            accumulate([], 1.0)

    def test_weight_interpretation_matches_matrix_form(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.1, 5, size=10)
        r = 1.21
        out = accumulate(x, r)
        kernel = forward_coeffs(r, x.size)
        by_dot = np.array([np.dot(kernel[: k + 1][::-1], x[: k + 1]) for k in range(x.size)])
        by_matrix = x @ ago_matrix(x.size, r)
        np.testing.assert_allclose(out, by_dot, rtol=1e-12)
        np.testing.assert_allclose(out, by_matrix, rtol=1e-12)

    def test_integer_semigroup(self):
        x = np.array([2.0, 4.0, 1.0, 7.0, 3.0])
        twice = accumulate(accumulate(x, 1), 1)
        np.testing.assert_allclose(twice, x @ ago_matrix(5, 2), rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        r=st.floats(min_value=0.01, max_value=2.5),
        values=st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=40),
    )
    def test_round_trip_property(self, r, values):
        x = np.array(values)
        back = inverse_accumulate(accumulate(x, r), r)
        np.testing.assert_allclose(back, x, rtol=1e-8, atol=1e-10)


class TestMatrices:
    def test_order_one_is_upper_ones(self):
        expected = np.triu(np.ones((3, 3)))
        np.testing.assert_array_equal(ago_matrix(3, 1), expected)

    def test_half_order_two_by_two(self):
        np.testing.assert_allclose(ago_matrix(2, 0.5), [[1.0, 0.5], [0.0, 1.0]], atol=1e-15)

    def test_one_by_one(self):
        np.testing.assert_array_equal(ago_matrix(1, 1.88), [[1.0]])

    def test_unit_diagonal_and_determinant(self):
        for r in (0.1, 1.0, 1.9):
            m = ago_matrix(12, r)
            np.testing.assert_array_equal(np.diag(m), np.ones(12))
            assert np.linalg.det(m) == pytest.approx(1.0, rel=1e-9)

    def test_inverse_matrix_order_one_is_bidiagonal(self):
        expected = np.eye(3) - np.diag(np.ones(2), k=1)
        np.testing.assert_array_equal(iago_matrix(3, 1), expected)

    def test_integer_order_product_is_exact_identity(self):
        product = ago_matrix(3, 2) @ iago_matrix(3, 2)
        np.testing.assert_array_equal(product, np.eye(3))

    def test_inverse_half_order_two_by_two(self):
        np.testing.assert_allclose(iago_matrix(2, 0.5), [[1.0, -0.5], [0.0, 1.0]], atol=1e-15)

    @pytest.mark.parametrize("r", [0.01, 0.5, 1.0, 1.4127, 2.0])
    def test_inverse_property_across_sizes(self, r):
        rng = np.random.default_rng(5)
        for n in (1, 2, 5, 17, 33, 50):
            product = ago_matrix(n, r) @ iago_matrix(n, r)
            assert np.max(np.abs(product - np.eye(n))) < 1e-8
            x = rng.uniform(0.1, 10, size=n)
            back = inverse_accumulate(accumulate(x, r), r)
            assert np.max(np.abs(back - x) / np.abs(x)) < 1e-8

    @pytest.mark.parametrize("matrix", [ago_matrix, iago_matrix])
    def test_empty_matrix_rejected(self, matrix):
        with pytest.raises(ValueError):
            matrix(0, 1.0)

    def test_inverse_kernel_coeffs_match_matrix_row(self):
        m = iago_matrix(6, 0.77)
        np.testing.assert_array_equal(m[0], inverse_coeffs(0.77, 6))
