"""Evaluation criteria, cross-checked against a naive loop implementation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greycast.datasets import load_bundled
from greycast.errors import LengthMismatch, NonFiniteResult, ZeroObserved
from greycast.metrics import evaluate, relative_errors
from greycast.models import ModelVariant, fit, predict


def loop_reference(observed, predicted, nu):
    """Independent pure-Python implementation of all six criteria."""
    n = len(observed)
    sq_pr = sum(((predicted[k] - observed[k]) / observed[k]) ** 2 for k in range(nu))
    rmspepr = math.sqrt(sq_pr / nu) * 100
    if n > nu:
        sq_po = sum(((predicted[k] - observed[k]) / observed[k]) ** 2 for k in range(nu, n))
        rmspepo = math.sqrt(sq_po / (n - nu)) * 100
    else:
        rmspepo = None
    sq = sum(((predicted[k] - observed[k]) / observed[k]) ** 2 for k in range(n))
    rmspe = math.sqrt(sq / n) * 100
    xbar = sum(observed) / n
    num = sum((predicted[k] - observed[k]) ** 2 for k in range(n))
    den = sum((abs(predicted[k] - xbar) + abs(observed[k] - xbar)) ** 2 for k in range(n))
    ia = 1 - num / den
    ae = sum(predicted[k] - observed[k] for k in range(n)) / n
    mae = sum(abs(predicted[k] - observed[k]) for k in range(n)) / n
    return rmspepr, rmspepo, rmspe, ia, ae, mae


def test_perfect_prediction():
    obs = np.array([3.0, 5.0, 9.0, 4.0])
    report = evaluate(obs, obs.copy(), 3)
    assert report.rmspepr == 0.0
    assert report.rmspepo == 0.0
    assert report.rmspe == 0.0
    assert report.ia == 1.0
    assert report.ae == 0.0
    assert report.mae == 0.0


def test_perfect_fit_of_a_flat_series_has_ia_one():
    # every spread term is 0 too, so the IA ratio would be 0/0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = evaluate(np.ones(4), np.ones(4), 4)
    assert report.ia == 1.0
    assert report.rmspe == 0.0 and report.mae == 0.0


def test_cross_check_against_loop_reference():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 60))
        nu = int(rng.integers(1, n + 1))
        obs = rng.uniform(0.5, 50, size=n)
        pred = obs * (1 + rng.normal(scale=0.2, size=n))
        report = evaluate(obs, pred, nu)
        want = loop_reference(list(obs), list(pred), nu)
        got = (report.rmspepr, report.rmspepo, report.rmspe, report.ia, report.ae, report.mae)
        for g, w in zip(got, want):
            if w is None:
                assert g is None
            else:
                assert g == pytest.approx(w, rel=1e-12, abs=1e-12)


def test_nuclear_reference_metrics():
    data = load_bundled("nuclear")
    model = fit(data.values, 1.1595, ModelVariant.FAGMO11K, 10)
    report = evaluate(data.values, predict(model, 0), 10)
    assert report.rmspepr == pytest.approx(3.1409, abs=0.05)
    assert report.rmspepo == pytest.approx(4.1502, abs=0.05)
    assert report.rmspe == pytest.approx(3.3304, abs=0.05)
    assert report.ia == pytest.approx(0.9985, abs=1e-3)
    assert report.ae == pytest.approx(0.2526, abs=5e-3)
    assert report.mae == pytest.approx(0.7513, abs=5e-3)


def test_oilfield_reference_metrics():
    data = load_bundled("oilfield")
    model = fit(data.values, 0.4052, ModelVariant.FAGMO11K, 11)
    report = evaluate(data.values, predict(model, 0), 11)
    assert report.rmspepr == pytest.approx(0.3259, abs=0.02)
    assert report.rmspepo == pytest.approx(0.3332, abs=0.02)


def test_relative_errors_reference_row():
    data = load_bundled("nuclear")
    model = fit(data.values, 1.1595, ModelVariant.FAGMO11K, 10)
    rel = relative_errors(data.values, predict(model, 0))
    assert abs(rel[1] - 0.0701) < 2e-4  # 2007


def test_relative_errors_trivial_cases():
    np.testing.assert_array_equal(relative_errors([2.0, 4.0], [2.0, 4.0]), [0.0, 0.0])
    np.testing.assert_allclose(relative_errors([10.0], [11.0]), [0.1], rtol=1e-15)


def test_rmspepr_equals_rmspe_without_holdout():
    rng = np.random.default_rng(29)
    obs = rng.uniform(1, 10, size=8)
    pred = obs * 1.05
    report = evaluate(obs, pred, 8)
    assert report.rmspepr == report.rmspe
    assert report.rmspepo is None


@settings(max_examples=60, deadline=None)
@given(scale=st.floats(min_value=1e-6, max_value=1e6))
def test_scale_equivariance(scale):
    obs = np.array([2.0, 3.0, 5.0, 8.0, 13.0, 21.0])
    pred = np.array([2.1, 2.8, 5.4, 7.9, 13.5, 19.0])
    base = evaluate(obs, pred, 4)
    scaled = evaluate(obs * scale, pred * scale, 4)
    assert scaled.rmspepr == pytest.approx(base.rmspepr, rel=1e-12)
    assert scaled.rmspepo == pytest.approx(base.rmspepo, rel=1e-12)
    assert scaled.rmspe == pytest.approx(base.rmspe, rel=1e-12)
    assert scaled.ia == pytest.approx(base.ia, rel=1e-12)
    assert scaled.ae == pytest.approx(base.ae * scale, rel=1e-12)
    assert scaled.mae == pytest.approx(base.mae * scale, rel=1e-12)


def test_agreement_index_bounds():
    rng = np.random.default_rng(31)
    for _ in range(30):
        obs = rng.uniform(1, 20, size=10)
        pred = rng.uniform(1, 20, size=10)
        report = evaluate(obs, pred, 10)
        assert 0.0 <= report.ia <= 1.0
        if not np.array_equal(obs, pred):
            assert report.ia < 1.0
        assert report.mae >= abs(report.ae)


def test_zero_observed_rejected():
    with pytest.raises(ZeroObserved):
        evaluate([1.0, 0.0, 2.0, 3.0], [1.0, 1.0, 2.0, 3.0], 4)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_observed_rejected(bad):
    with pytest.raises(NonFiniteResult, match="position 6"):
        evaluate([1.0, 2.0, 3.0, 4.0, 5.0, bad], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 4)
    with pytest.raises(NonFiniteResult, match="position 2"):
        relative_errors([1.0, bad, 0.0], [1.0, 2.0, 3.0])


def test_length_mismatch_rejected():
    with pytest.raises(LengthMismatch):
        evaluate([1.0, 2.0], [1.0, 2.0, 3.0], 2)
    with pytest.raises(LengthMismatch):
        relative_errors([1.0, 2.0], [1.0])


def test_nu_bounds_checked():
    with pytest.raises(ValueError):
        evaluate([1.0, 2.0], [1.0, 2.0], 0)
    with pytest.raises(ValueError):
        evaluate([1.0, 2.0], [1.0, 2.0], 3)


def test_nu_must_be_a_whole_number():
    observed, predicted = [1.0, 2.0, 4.0], [1.1, 2.2, 4.4]
    for nu in (1.5, "2", True):
        with pytest.raises(ValueError):
            evaluate(observed, predicted, nu)
    want = evaluate(observed, predicted, 2)
    assert repr(evaluate(observed, predicted, 2.0)) == repr(want)
    assert repr(evaluate(observed, predicted, np.int64(2))) == repr(want)


def test_report_serialization_carries_ratios():
    report = evaluate([1.0, 2.0, 4.0], [1.1, 2.2, 4.4], 2)
    doc = report.to_dict()
    assert doc["rmspepr_ratio"] == report.rmspepr / 100
    assert doc["rmspe_ratio"] == report.rmspe / 100
    assert doc["n"] == 3 and doc["nu"] == 2
