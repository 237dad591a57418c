"""Grid search for the fractional order."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from greycast import order_search
from greycast.accumulation import _convolve, accumulate, inverse_accumulate
from greycast.datasets import load_bundled
from greycast.errors import (
    GreycastError,
    NoFeasibleOrder,
    NonFiniteResult,
    SingularDesign,
    TooFewSamples,
    ZeroObserved,
)
from greycast.metrics import evaluate
from greycast.models import (
    A_FLOOR, ModelVariant, _column_scale, _place, _response, _response_terms, _transform,
    build_design, fit, predict,
)
from greycast.order_search import (
    REL_PIVOT_TOL, OrderSearchConfig, OrderSearchResult, search_order,
)
from greycast.sweep import generate_synthetic

from test_models import out_of_range_raw


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


def numpy_scalar_solve(g, h):
    """The kernel's pivoted solve for one system, on numpy arrays and float64 scalars."""
    g = g.copy()
    h = h.copy()
    m = g.shape[0]
    scale = np.max(np.abs(g))
    if scale == 0.0:
        raise SingularDesign("normal equations are identically zero")
    for col in range(m):
        p = col + int(np.argmax(np.abs(g[col:, col])))
        if abs(g[p, col]) < REL_PIVOT_TOL * scale:
            raise SingularDesign("pivot below tolerance")
        if p != col:
            g[[col, p]] = g[[p, col]]
            h[[col, p]] = h[[p, col]]
        for row in range(col + 1, m):
            f = g[row, col] / g[col, col]
            g[row, col:] -= f * g[col, col:]
            h[row] -= f * h[col]
    out = np.empty(m)
    for row in range(m - 1, -1, -1):
        out[row] = (h[row] - np.dot(g[row, row + 1 :], out[row + 1 :])) / g[row, row]
    return out


def test_batched_solve_matches_the_scalar_pivoted_solve():
    # random systems plus diagonal ones with the last pivot just above,
    # at and below REL_PIVOT_TOL, in every row order so pivoting swaps rows
    rng = np.random.default_rng(7)
    systems = [rng.normal(size=(3, 3)) for _ in range(20)]
    for tiny in (2e-12, 1e-12, 5e-13, 0.0):
        for perm in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
            systems.append(np.diag([1.0, 0.5, tiny])[list(perm)])
    systems.append(np.zeros((3, 3)))
    h = rng.normal(size=(len(systems), 3))
    with np.errstate(all="ignore"):  # failed systems divide by zero pivots
        got, failed = order_search._solve_batch(np.stack(systems, axis=-1), h.T.copy())
    for i, g in enumerate(systems):
        try:
            want = numpy_scalar_solve(g, h[i])
        except SingularDesign:
            assert failed[i], f"system {i} should fail"
        else:
            assert not failed[i], f"system {i} should solve"
            np.testing.assert_allclose(got[:, i], want, rtol=1e-12, atol=1e-12)


def test_batched_solve_matches_the_fancy_index_solve_bit_for_bit():
    rng = np.random.default_rng(11)
    pivots = []

    def check(systems, h):
        G = np.stack(systems, axis=-1)
        h = np.array(h, dtype=float).T
        with np.errstate(all="ignore"):
            want = reference_solve_batch(G.copy(), h.copy(), pivots)
            got = order_search._solve_batch(G, h)
        assert got[0].view(np.uint64).tolist() == want[0].view(np.uint64).tolist()
        assert got[1].tolist() == want[1].tolist()

    # 3x3: pivot rows below the diagonal at every column, tied pivot
    # magnitudes (argmax takes the first), NaN and inf entries, all zeros
    drawn = rng.normal(size=(3, 3, 200))
    draw_pivots = []
    reference_solve_batch(drawn.copy(), np.ones((3, 200)), draw_pivots)
    swaps = (draw_pivots[0] > 0) & (draw_pivots[1] > 0)
    swap_every = list(np.moveaxis(drawn[:, :, swaps], -1, 0))
    assert len(swap_every) >= 20
    ties = [np.array([[1.0, 2.0, 3.0], [-1.0, 4.0, 1.0], [1.0, 0.5, 2.0]]),
            np.array([[0.5, 2.0, 3.0], [2.0, 1.0, 1.0], [-2.0, 0.5, 2.0]]),
            np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])]
    special = []
    for bad in (math.nan, math.inf, -math.inf):
        for i, j in ((0, 0), (1, 0), (2, 1), (1, 2)):
            g = rng.normal(size=(3, 3))
            g[i, j] = bad
            special.append(g)
    systems = swap_every + ties + special + [np.zeros((3, 3))]
    h = rng.normal(size=(len(systems), 3))
    h[-2] = [1.0, math.nan, math.inf]
    check(systems, h)
    assert ((pivots[0] > 0) & (pivots[1] > 0))[: len(swap_every)].all()
    assert pivots[0][len(swap_every)] == 0  # the first of two equal magnitudes
    assert pivots[0][len(swap_every) + 1] == 1
    # 2x2, the zero-slope variants' systems
    pivots.clear()
    systems = [rng.normal(size=(2, 2)) for _ in range(10)]
    for g in systems:
        g[0, 0] = 0.1 * g[1, 0]
    systems += [np.array([[1.0, 2.0], [-1.0, 1.0]]), np.array([[math.nan, 1.0], [1.0, 1.0]]),
                np.zeros((2, 2))]
    check(systems, rng.normal(size=(len(systems), 2)))
    assert (pivots[0][:10] == 1).all()


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
SERIES = list(BUNDLED_NU) + [f"synthetic{n}" for n in SYNTHETIC_LENGTHS]
# Kernel and scalar pipeline sum in different orders.  Where the
# development coefficient a nears 0, the response's b/a and c/a terms
# cancel and amplify that roundoff; the worst disagreement seen over
# these series and a 0.001 step was 6.5e-6 relative.
PROFILE_RTOL = 1e-4


@functools.lru_cache(maxsize=None)
def _series(name):
    """(values, nu) of a bundled series or a seeded synthetic FAGMO one."""
    if name in BUNDLED_NU:
        return np.array(load_bundled(name).values), BUNDLED_NU[name]
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


# np.ones(4) is left out of the equality tests below: under fagmo every
# order fits a flat series to roundoff, so the winner is a roundoff tie
# that the two pipelines break differently.  See
# test_roundoff_plateau_returns_a_tied_order.
@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
@pytest.mark.parametrize("name", SERIES)
def test_result_matches_the_scalar_scan(name, variant, objective):
    want, _ = _reference(name, variant, objective)
    assert search_order(_series(name)[0], _config(name, variant, objective)) == want


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
@pytest.mark.parametrize("name", SERIES)
def test_profile_rows_match_the_scalar_scan(name, variant, objective, tmp_path):
    cfg = _config(name, variant, objective)
    path = tmp_path / "profile.csv"
    search_order(_series(name)[0], cfg, profile_path=path)
    rows = _profile_rows(path)
    _, want = _reference(name, variant, objective)
    want = np.array(want)
    assert [r for r, _, _ in rows] == [repr(cfg.r_min + i * cfg.step) for i in range(want.size)]
    assert [s for _, _, s in rows] == ["error" if math.isnan(v) else "ok" for v in want]
    got = np.array([float(v) for _, v, _ in rows])
    ok = ~np.isnan(want)
    np.testing.assert_allclose(got[ok], want[ok], rtol=PROFILE_RTOL, atol=0)


@pytest.mark.parametrize("name", ["nuclear", "settlement", "synthetic48"])
def test_halving_the_step_keeps_shared_profile_rows(name, tmp_path, monkeypatch):
    values, nu = _series(name)

    def profile(step, chunk_rows):
        monkeypatch.setattr(order_search, "CHUNK_ELEMENTS", chunk_rows * values.size)
        cfg = _config(name, step=step)
        path = tmp_path / f"{step}.csv"
        search_order(values, cfg, profile_path=path)
        # rows the search rescored hold the scalar pipeline's value
        grid = order_search._grid(cfg)
        kernel = order_search._score_grid(values, grid, cfg.variant, nu, cfg.objective)
        rescored = np.argsort(kernel, kind="stable")[: order_search.RESCORE]
        return path.read_text().splitlines()[1:], set(rescored.tolist())

    coarse, coarse_rescored = profile(0.02, 1000)  # one chunk
    fine, fine_rescored = profile(0.01, 7)  # chunk boundaries after every 7 rows
    shared = [
        i for i in range(len(coarse)) if i not in coarse_rescored and 2 * i not in fine_rescored
    ]
    straddling = [i for i in shared if (2 * i) % 7 == 0 and i - 1 in shared]
    assert len(shared) > len(coarse) // 2 and straddling
    assert [coarse[i] for i in shared] == [fine[2 * i] for i in shared]


def test_roundoff_plateau_returns_a_tied_order():
    # Under fagmo, every order fits a flat series to roundoff (about 1e-14
    # percent), so the best order is whichever roundoff favours; the kernel
    # and the scalar scan may pick different ones.  Both must still agree
    # on the candidate counts, and the result must be a real fit.
    values = np.ones(4)
    cfg = OrderSearchConfig(step=STEP, nu=4)
    got = search_order(values, cfg)
    want, _ = reference_search(values, cfg)
    assert (got.n_candidates, got.n_failed) == (want.n_candidates, want.n_failed)
    assert got.objective_value < 1e-12 and want.objective_value < 1e-12
    model = fit(values, got.r, ModelVariant.FAGMO11K, 4)
    assert evaluate(values, predict(model, 0), 4).rmspe == got.objective_value


# --- the kernel's pieces before they shared the order-independent work and
# the accumulation ---


def reference_kernels(r, n, forward):
    """Accumulation weights as ``np.cumprod`` of the lag factors."""
    i = np.arange(1, n, dtype=float)[:, None]
    factors = np.empty((n, r.size))
    factors[0] = 1.0
    factors[1:] = (r + i - 1) / i if forward else (i - 1 - r) / i
    return np.cumprod(factors, axis=0)


def reference_convolve(kernel, x):
    """Truncated convolution of each column of an (n, B) ``kernel`` with an
    (n, 1) or (n, B) ``x``, by lag-wise shifted multiply-adds."""
    n = kernel.shape[0]
    out = np.zeros(kernel.shape)
    for lag in range(n):
        out[lag:] += kernel[lag] * x[: n - lag]
    return out


def reference_solve_batch(G, h, pivots=None):
    """Pivoted elimination that swaps whole rows by fancy-index gathers and
    scatters; appends each column's pivot offset to ``pivots`` if given."""
    m, _, batch = G.shape
    cols = np.arange(batch)
    scale = np.abs(G).max(axis=(0, 1))
    failed = scale == 0.0
    for col in range(m):
        p = col + np.argmax(np.abs(G[col:, col]), axis=0)
        if pivots is not None:
            pivots.append(p - col)
        failed |= np.abs(G[p, col, cols]) < REL_PIVOT_TOL * scale
        g_col, g_p = G[col].copy(), G[p, :, cols].T
        G[p, :, cols] = g_col.T
        G[col] = g_p
        h_col, h_p = h[col].copy(), h[p, cols]
        h[p, cols] = h_col
        h[col] = h_p
        for row in range(col + 1, m):
            f = G[row, col] / G[col, col]
            G[row, col:] -= f * G[col, col:]
            h[row] -= f * h[col]
    out = np.empty((m, batch))
    for row in range(m - 1, -1, -1):
        acc = np.zeros(batch)
        for j in range(row + 1, m):
            acc += G[row, j] * out[j]
        out[row] = (h[row] - acc) / G[row, row]
    return out, failed


def reference_fit_chunk(x, r, variant, nu):
    """Normal equations summed row by row over the full (rows, m, B) design."""
    xr = reference_convolve(reference_kernels(r, nu, forward=True), x[:nu, None])
    B, d = build_design(xr, variant)
    scale = _column_scale(B)
    B /= scale
    G = order_search._sum0(row[:, None] * row[None, :] for row in B)
    h = order_search._sum0(row * d_row for row, d_row in zip(B, d))
    phi, failed = reference_solve_batch(G, h)
    p, q, g = _place(phi / scale, variant)
    if variant.optimized:
        failed |= (np.abs(p) < A_FLOOR) | (np.abs(p) >= 2)
        p, q, g = _transform(p, q, g, np.log)
    if variant.order_locked:
        failed |= r != 1.0
    return p, q, g, failed


def reference_score_grid(x, rs, variant, nu, objective):
    """``_score_grid`` on the reference pieces, all orders in one chunk."""
    n = x.size
    with np.errstate(all="ignore"):
        p, q, g, failed = reference_fit_chunk(x, rs, variant, nu)
        kk = np.arange(1, n + 1, dtype=float)[:, None]
        xr_hat = _response(x[0], p, _response_terms(x[0], p, q, g), kk)
        restored = reference_convolve(reference_kernels(rs, n, forward=False), xr_hat)
        rel = (restored - x[:, None]) / x[:, None]
        if objective == "rmspepr":
            rel = rel[:nu]
        out = np.sqrt(order_search._sum0(rel**2) / rel.shape[0]) * 100.0
    out[failed | ~np.isfinite(out)] = np.nan
    return out


# the default grid's span at step 0.01; it holds r = 1 exactly, which the
# order-locked variants fit
KERNEL_GRID = order_search._grid(OrderSearchConfig(step=0.01))
# accumulates past the float range at the largest orders of the grid
OVERFLOWING = np.array([1.0, 1.2, 0.9, 1.3, 1.1, 1.4]) * 1e307
KERNEL_SERIES = list(BUNDLED_NU) + [f"synthetic{n}" for n in range(4, 49)] + ["ones6", "overflow"]


def _kernel_series(name):
    if name == "ones6":
        return np.ones(6), 6
    if name == "overflow":
        return OVERFLOWING, 6
    return _series(name)


@pytest.mark.parametrize("name", KERNEL_SERIES)
def test_kernel_matches_the_reference_pieces_bit_for_bit(name):
    values, given_nu = _kernel_series(name)
    assert 1.0 in KERNEL_GRID
    failed = 0
    for nu in sorted({given_nu, max(4, values.size - 2)}):
        for variant in ModelVariant:
            for objective in OBJECTIVES:
                args = (values, KERNEL_GRID, variant, nu, objective)
                want = reference_score_grid(*args)
                got = order_search._score_grid(*args)
                assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), (
                    nu, variant, objective)
                failed += np.isnan(want).sum()
    # both outcomes are compared: some orders fail and some fit
    assert 0 < failed < len(ModelVariant) * KERNEL_GRID.size * 2 * 2


@pytest.mark.parametrize("name", list(BUNDLED_NU) + ["synthetic48", "ones6", "overflow"])
def test_kernel_accumulates_each_order_as_accumulate(name, monkeypatch):
    values, nu = _kernel_series(name)
    rs = KERNEL_GRID[::7]
    calls = []

    def spy(x, w):
        out = _convolve(x, w)
        calls.append((x, out))
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
