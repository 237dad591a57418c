"""Grid search for the fractional order."""

import contextlib
import dataclasses
import functools
import math
import platform

import numpy as np
import pytest

from greycast import order_search
from greycast.accumulation import _convolve, accumulate, inverse_accumulate
from greycast.datasets import load_bundled
from greycast.errors import (
    GreycastError,
    NoFeasibleOrder,
    NonFiniteResult,
    TooFewSamples,
    ZeroObserved,
)
from greycast.metrics import evaluate
from greycast.models import ModelVariant, _fit_batch, fit, predict
from greycast.order_search import OrderSearchConfig, OrderSearchResult, search_order
from greycast.sweep import generate_synthetic

from test_models import out_of_range_raw

try:
    import resource
except ImportError:  # not on every platform
    resource = None


def test_recovers_generating_order():
    raw = generate_synthetic(0.7, 0.3, 1.0, 10.0, 1.5, 11)
    result = search_order(raw, OrderSearchConfig(step=0.01))
    assert abs(result.r - 0.7) <= 0.01 + 1e-12
    assert result.objective_value < 1e-6


def test_oilfield_order_near_reference():
    data = load_bundled("oilfield")
    result = search_order(data.values, OrderSearchConfig(step=0.002, nu=11))
    assert abs(result.r - 0.4052) <= 0.05


def test_nuclear_order_near_reference():
    data = load_bundled("nuclear")
    result = search_order(data.values, OrderSearchConfig(step=0.002, nu=10))
    assert abs(result.r - 1.1595) <= 0.05


def test_deterministic():
    data = load_bundled("settlement")
    cfg = OrderSearchConfig(step=0.01, nu=11)
    assert search_order(data.values, cfg) == search_order(data.values, cfg)


def test_objective_value_matches_public_metrics_recompute():
    data = load_bundled("nuclear")
    result = search_order(data.values, OrderSearchConfig(step=0.01, nu=10))
    model = fit(data.values, result.r, ModelVariant.FAGMO11K, 10)
    report = evaluate(data.values, predict(model, 0), 10)
    assert report.rmspe == result.objective_value  # exact, same definition


def test_training_window_objective():
    data = load_bundled("nuclear")
    cfg = OrderSearchConfig(step=0.01, nu=10, objective="rmspepr")
    result = search_order(data.values, cfg)
    model = fit(data.values, result.r, ModelVariant.FAGMO11K, 10)
    report = evaluate(data.values, predict(model, 0), 10)
    assert report.rmspepr == result.objective_value


@pytest.mark.parametrize("step", [0.02, 0.01, 0.005])
def test_halving_the_step_never_hurts(step):
    data = load_bundled("nuclear")
    coarse = search_order(data.values, OrderSearchConfig(step=step, nu=10))
    fine = search_order(data.values, OrderSearchConfig(step=step / 2, nu=10))
    assert fine.objective_value <= coarse.objective_value


def test_no_feasible_order():
    # every candidate recovers a development coefficient past the
    # transform's validity range, so every fit fails
    raw = out_of_range_raw(a=3.0)
    cfg = OrderSearchConfig(r_min=0.9, r_max=1.1, step=0.1)
    with pytest.raises(NoFeasibleOrder):
        search_order(raw, cfg)


def test_infeasible_candidates_are_skipped_not_fatal():
    # [1,1,1,1] is singular exactly at r=1 but fits at other orders
    raw = np.ones(4)
    cfg = OrderSearchConfig(r_min=0.8, r_max=1.2, step=0.1, objective="rmspepr")
    result = search_order(raw, cfg)
    assert result.n_failed >= 1
    assert result.n_candidates == 5
    assert 0.8 <= result.r <= 1.2


def test_profile_csv(tmp_path):
    data = load_bundled("settlement")
    path = tmp_path / "profile.csv"
    result = search_order(data.values, OrderSearchConfig(step=0.05, nu=11), profile_path=path)
    lines = path.read_text().splitlines()
    assert lines[0] == "r,objective,status"
    assert len(lines) == 1 + result.n_candidates
    statuses = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert statuses <= {"ok", "error"}


def test_config_validation():
    with pytest.raises(ValueError):
        search_order([1.0, 2.0, 3.0, 4.0], OrderSearchConfig(r_min=2.0, r_max=1.0))
    with pytest.raises(ValueError):
        search_order([1.0, 2.0, 3.0, 4.0], OrderSearchConfig(step=0.0))
    with pytest.raises(ValueError):
        search_order([1.0, 2.0, 3.0, 4.0], OrderSearchConfig(objective="mape"))


@pytest.mark.parametrize(
    "fields",
    [{"r_max": math.inf}, {"r_min": math.nan}, {"step": math.nan}, {"step": 1e-12},
     {"step": 5e-324}, {"r_min": 1.0, "r_max": order_search.MAX_GRID + 1.0, "step": 1.0},
     {"variant": "fagmo", "step": 0.01}],
)
def test_bad_config_raises_when_built(fields):
    with pytest.raises(ValueError):
        OrderSearchConfig(**fields)


def test_grid_may_hold_max_grid_orders():
    cfg = OrderSearchConfig(r_min=1.0, r_max=float(order_search.MAX_GRID), step=1.0)
    assert order_search._grid_size(cfg) == order_search.MAX_GRID
    assert order_search._grid_size(OrderSearchConfig()) == 19901


def test_config_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        OrderSearchConfig().step = 0.5


@pytest.mark.parametrize("nu", [3, 6])
def test_window_outside_the_series_raises_too_few_samples(nu):
    with pytest.raises(TooFewSamples):
        search_order([1.0, 2.0, 3.0, 4.0, 5.0], OrderSearchConfig(nu=nu))


def test_zero_observed_fails_every_order():
    # evaluate rejects a zero anywhere in the series, also when the
    # objective only scores the training window, so the search names
    # that cause up front instead of failing every order
    raw = np.append(generate_synthetic(0.7, 0.3, 1.0, 10.0, 1.5, 6), 0.0)
    cfg = OrderSearchConfig(step=0.1, nu=6, objective="rmspepr")
    with pytest.raises(ZeroObserved, match="position 7"):
        search_order(raw, cfg)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_value_is_named_up_front(bad):
    raw = generate_synthetic(0.7, 0.3, 1.0, 10.0, 1.5, 8)
    raw[4] = bad
    with pytest.raises(NonFiniteResult, match="position 5"):
        search_order(raw, OrderSearchConfig(step=0.1))


# --- the kernel against the candidate-by-candidate scalar scan ----------


def reference_search(values, cfg):
    """The scan the kernel replaced: fit, predict and evaluate every order.

    Returns the result (None when every order fails) and the objective of
    every grid order, NaN where its fit failed.
    """
    values = np.asarray(values, dtype=float)
    nu = values.size if cfg.nu is None else cfg.nu
    count = int(math.floor((cfg.r_max - cfg.r_min) / cfg.step + 1e-9)) + 1
    best_r, best_val, profile = None, math.inf, []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(count):
            r = cfg.r_min + i * cfg.step
            try:
                report = evaluate(values, predict(fit(values, r, cfg.variant, nu), 0), nu)
                val = report.rmspe if cfg.objective == "rmspe" else report.rmspepr
            except GreycastError:
                val = math.nan
            profile.append(val if math.isfinite(val) else math.nan)
            if val < best_val:  # strict: ties keep the smaller r
                best_val, best_r = val, r
    n_failed = sum(math.isnan(v) for v in profile)
    if best_r is None:
        return None, profile
    return OrderSearchResult(best_r, best_val, cfg.objective, count, n_failed), profile


STEP = 0.01
VARIANTS = [ModelVariant.FAGMO11K, ModelVariant.FAGM11K, ModelVariant.FAGM11, ModelVariant.ONGM11K]
OBJECTIVES = ["rmspe", "rmspepr"]
BUNDLED_NU = {"oilfield": 11, "nuclear": 10, "settlement": 11}
SYNTHETIC_LENGTHS = (5, 8, 16, 30, 48)
SERIES = list(BUNDLED_NU) + [f"synthetic{n}" for n in SYNTHETIC_LENGTHS] + ["ones4"]


@functools.lru_cache(maxsize=None)
def _series(name):
    """(values, nu) of a bundled series or a seeded synthetic FAGMO one."""
    if name in BUNDLED_NU:
        return np.array(load_bundled(name).values), BUNDLED_NU[name]
    if name.startswith("ones"):
        n = int(name.removeprefix("ones"))
        return np.ones(n), n
    n = int(name.removeprefix("synthetic"))
    rng = np.random.default_rng([2024, n])
    while True:
        raw = generate_synthetic(
            rng.uniform(0.1, 1.5),
            rng.uniform(0.02, 0.3) * rng.choice((-1.0, 1.0)),
            rng.uniform(0.0, 2.0),
            rng.uniform(0.0, 10.0),
            rng.uniform(1.0, 2.0),
            n,
        )
        if np.all(np.isfinite(raw)) and raw.min() > 0:
            return raw, n


def _config(name, variant=ModelVariant.FAGMO11K, objective="rmspe", step=STEP):
    return OrderSearchConfig(step=step, nu=_series(name)[1], variant=variant, objective=objective)


@functools.lru_cache(maxsize=None)
def _reference(name, variant, objective):
    return reference_search(_series(name)[0], _config(name, variant, objective))


def _profile_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
@pytest.mark.parametrize("name", SERIES)
def test_result_matches_the_scalar_scan(name, variant, objective):
    want, _ = _reference(name, variant, objective)
    if want is None:  # np.ones(4) is singular at r = 1, the only order ongm11k takes
        with pytest.raises(NoFeasibleOrder):
            search_order(_series(name)[0], _config(name, variant, objective))
    else:
        assert search_order(_series(name)[0], _config(name, variant, objective)) == want


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
@pytest.mark.parametrize("name", SERIES)
def test_profile_rows_match_the_scalar_scan(name, variant, objective, tmp_path):
    cfg = _config(name, variant, objective)
    path = tmp_path / "profile.csv"
    result, want = _reference(name, variant, objective)
    # the profile is written before a search with no feasible order raises
    with pytest.raises(NoFeasibleOrder) if result is None else contextlib.nullcontext():
        search_order(_series(name)[0], cfg, profile_path=path)
    rows = _profile_rows(path)
    want = np.array(want)
    assert [r for r, _, _ in rows] == [repr(cfg.r_min + i * cfg.step) for i in range(want.size)]
    assert [s for _, _, s in rows] == ["error" if math.isnan(v) else "ok" for v in want]
    got = np.array([float(v) for _, v, _ in rows])
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("name", ["nuclear", "settlement", "synthetic48"])
def test_halving_the_step_keeps_shared_profile_rows(name, tmp_path, monkeypatch):
    values, nu = _series(name)

    def profile(step, chunk_rows):
        monkeypatch.setattr(order_search, "CHUNK_ELEMENTS", chunk_rows * values.size)
        path = tmp_path / f"{step}.csv"
        search_order(values, _config(name, step=step), profile_path=path)
        return path.read_text().splitlines()[1:]

    coarse = profile(0.02, 1000)  # one chunk
    fine = profile(0.01, 7)  # chunk boundaries after every 7 rows
    assert len(coarse) == 100 and fine[::2] == coarse


def test_roundoff_plateau_returns_a_tied_order():
    # Under fagmo, every order fits a flat series to roundoff (about 1e-14
    # percent), so the best order is whichever roundoff favours; the kernel
    # rounds as the scalar scan does, so both pick the same one.
    values = np.ones(4)
    cfg = OrderSearchConfig(step=STEP, nu=4)
    want, _ = reference_search(values, cfg)
    assert want.objective_value < 1e-12
    assert search_order(values, cfg) == want


def test_flat_series_profile_holds_fits_value_at_r_1(tmp_path):
    # fagm11 fits np.ones(6) at r = 1 with a ~ 0, which fit, predict and
    # evaluate score at 163%; a kernel of its own once called that order
    # an error
    values = np.ones(6)
    cfg = OrderSearchConfig(step=STEP, variant=ModelVariant.FAGM11)
    path = tmp_path / "profile.csv"
    search_order(values, cfg, profile_path=path)
    rows = {float(r): (float(v), s) for r, v, s in _profile_rows(path)}
    want = order_search._scalar_objective(values, 1.0, cfg, 6)
    assert 163 < want < 164
    assert rows[1.0] == (want, "ok")


def test_small_grid_is_scored_by_the_scalar_scan(monkeypatch):
    values, nu = _series("nuclear")
    cfg = OrderSearchConfig(r_min=0.5, r_max=0.5 + order_search.SCALAR_GRID - 1, step=1.0, nu=nu)
    assert order_search._grid(cfg).size == order_search.SCALAR_GRID
    want, _ = reference_search(values, cfg)
    monkeypatch.setattr(order_search, "_score_grid", None)  # never reached
    assert search_order(values, cfg) == want


# --- the kernel against the scalar pipeline, order by order ---


def reference_score_grid(x, rs, variant, nu, objective):
    """The objective of every order in ``rs`` through fit, predict and evaluate."""
    cfg = OrderSearchConfig(variant=variant, objective=objective)
    with np.errstate(all="ignore"):
        return np.array([order_search._scalar_objective(x, r, cfg, nu) for r in rs.tolist()])


# the default grid's span at step 0.01; it holds r = 1 exactly, which the
# order-locked variants fit
KERNEL_GRID = order_search._grid(OrderSearchConfig(step=0.01))
# accumulates past the float range at the largest orders of the grid
OVERFLOWING = np.array([1.0, 1.2, 0.9, 1.3, 1.1, 1.4]) * 1e307
KERNEL_SERIES = (
    list(BUNDLED_NU) + [f"synthetic{n}" for n in range(4, 49)] + ["ones4", "ones6", "overflow"]
)


def _kernel_series(name):
    if name == "overflow":
        return OVERFLOWING, 6
    return _series(name)


@pytest.mark.parametrize("name", KERNEL_SERIES)
def test_kernel_matches_the_reference_pieces_bit_for_bit(name):
    # every 9th order of the grid, r = 1 among them
    values, given_nu = _kernel_series(name)
    rs = KERNEL_GRID[::9]
    assert 1.0 in rs
    failed = 0
    windows = sorted({given_nu, max(4, values.size - 2), values.size})
    for nu in windows:
        for variant in ModelVariant:
            for objective in OBJECTIVES:
                args = (values, rs, variant, nu, objective)
                want = reference_score_grid(*args)
                got = order_search._score_grid(*args)
                assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), (
                    nu, variant, objective)
                failed += np.isnan(want).sum()
    # both outcomes are compared: some orders fail and some fit
    assert 0 < failed < len(windows) * len(ModelVariant) * rs.size * 2


@pytest.mark.parametrize("name", list(BUNDLED_NU) + ["synthetic48", "ones6", "overflow"])
def test_kernel_accumulates_each_order_as_accumulate(name, monkeypatch):
    values, nu = _kernel_series(name)
    rs = KERNEL_GRID[::7]
    calls = []

    def spy(x, w, *args, **kwargs):
        out = _convolve(x, w, *args, **kwargs)
        # copies: later stages of the kernel write over its working arrays
        calls.append((x.copy(), out.copy()))
        return out

    monkeypatch.setattr(order_search, "_convolve", spy)
    monkeypatch.setattr(order_search, "CHUNK_ELEMENTS", values.size * rs.size)
    order_search._score_grid(values, rs, ModelVariant.FAGMO11K, nu, "rmspe")
    (_, trained), (response, restored) = calls
    assert trained.shape == (nu, rs.size) and restored.shape == (values.size, rs.size)
    for b, r in enumerate(rs.tolist()):
        assert trained[:, b].tobytes() == accumulate(values[:nu], r).tobytes(), r
        got, want = restored[:, b], inverse_accumulate(response[:, b], r)
        same = (got.view(np.uint64) == want.view(np.uint64)) | np.isnan(got) & np.isnan(want)
        assert same.all(), r


@pytest.mark.parametrize("orders", [1, 7])
@pytest.mark.parametrize("name", list(BUNDLED_NU) + ["synthetic48", "ones6", "overflow"])
def test_kernel_bits_do_not_depend_on_the_chunk(name, orders, monkeypatch):
    values, nu = _kernel_series(name)
    for variant in (ModelVariant.FAGMO11K, ModelVariant.FAGM11, ModelVariant.GM11K):
        rs = KERNEL_GRID[::3] if orders == 1 else KERNEL_GRID
        want = reference_score_grid(values, rs, variant, nu, "rmspe")
        with monkeypatch.context() as mp:
            mp.setattr(order_search, "CHUNK_ELEMENTS", orders * values.size)
            got = order_search._score_grid(values, rs, variant, nu, "rmspe")
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), variant


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize(
    "variant",
    [ModelVariant.FAGMO11K, ModelVariant.FAGM11, ModelVariant.GM11K],
    ids=lambda v: v.value,
)
def test_the_workspace_carries_nothing_from_one_chunk_to_the_next(variant, objective, monkeypatch):
    # the largest orders first, whose accumulation overflows and whose fits
    # fail, then orders that fit (gm11k fits none: r = 1 fails too); chunks
    # of 7 leave a last chunk of 4
    values, nu = _kernel_series("overflow")
    rs = KERNEL_GRID[::-1]
    assert rs.size % 7 == 4
    want = reference_score_grid(values, rs, variant, nu, objective)
    assert np.isnan(want[:7]).all() and np.isnan(want).all() == variant.order_locked
    monkeypatch.setattr(order_search, "CHUNK_ELEMENTS", 7 * values.size)
    got = order_search._score_grid(values, rs, variant, nu, objective)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_every_chunk_works_in_one_workspace_per_search(monkeypatch):
    # a return to arrays made afresh for each chunk, which the fault count
    # below catches only while glibc still trims its heap at the default
    values, nu = _kernel_series("synthetic48")
    outputs = []

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

    monkeypatch.setattr(order_search, "_convolve", convolve)
    monkeypatch.setattr(order_search, "_fit_batch", fit_batch)
    monkeypatch.setattr(order_search, "CHUNK_ELEMENTS", 7 * values.size)
    for _ in range(2):
        outputs.clear()
        order_search._score_grid(values, KERNEL_GRID, ModelVariant.FAGMO11K, nu, "rmspe")
        # two convolutions and three design columns per chunk
        assert len(outputs) == 5 * -(-KERNEL_GRID.size // 7) > 10
        work = owner(outputs[0])
        assert work.shape == (5, 7 * values.size)
        assert all(owner(a) is work and np.shares_memory(a, work) for a in outputs)


@pytest.mark.skipif(
    resource is None or platform.libc_ver()[0] != "glibc",
    reason="counts minor page faults through getrusage, against the bound glibc's heap gives",
)
def test_a_search_does_not_fault_its_memory_in_chunk_by_chunk():
    # Arrays allocated afresh for each chunk went back to the system when
    # freed, so the next chunk faulted every page in again: about 10,000
    # minor faults per search of this series, against a handful with one
    # workspace per search
    values, _ = _series("synthetic48")
    search_order(values)  # imports, caches and the heap settle
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    search_order(values)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 3000
