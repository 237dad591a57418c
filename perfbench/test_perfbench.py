"""Tests of the benchmark itself: seeded inputs, span arithmetic, the
tracer's wrapping, and the counting of failed checks.

    python3 -m pytest -q perfbench
"""

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import spans
import speed
import workloads
from workloads import greycast

HERE = Path(__file__).resolve().parent


def _module_attributes():
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if module is not None and (name == "greycast" or name.startswith("greycast."))
    }


def test_one_seed_gives_identical_inputs(tmp_path):
    first, again, other = (workloads.search_cases(s) for s in (7, 7, 8))
    for a, b in zip(first, again):
        assert (a.name, a.nu, a.known_r, a.known_objective) == (b.name, b.nu, b.known_r, b.known_objective)
        assert a.values.tobytes() == b.values.tobytes()
    assert any(a.values.tobytes() != c.values.tobytes() for a, c in zip(first, other))
    for case in first[3:]:
        assert case.known_r == workloads.nearest_grid_point(case.known_r)
        assert case.values.min() > 0

    pool, pool_again = workloads.oneshot_pool(7, 21), workloads.oneshot_pool(7, 21)
    assert {req.variant for req in pool} == set(greycast.models.ModelVariant)
    for a, b in zip(pool, pool_again):
        assert (a.variant, a.r, a.nu) == (b.variant, b.r, b.nu)
        assert a.values.tobytes() == b.values.tobytes()

    assert workloads.sweep_seed(7, 0) == workloads.sweep_seed(7, 1) != workloads.sweep_seed(7, 2)

    texts = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        run = workloads.Run(seed=7, seconds=0, work=tmp_path / sub)
        texts.append([s.csv.read_bytes() for s in workloads.tour_series(run)])
    assert texts[0] == texts[1]


def test_self_time_on_a_hand_built_tree():
    #        0: [0, 100]
    #        |-- 1: [10, 30]
    #        |   `-- 3: [12, 18]
    #        |-- 2: [20, 50]    overlaps span 1; [20, 30] is covered once
    #        `-- 4: [90, 120]   only [90, 100] lies inside the parent
    #        5: [200, 210]      a second root
    start = [0, 10, 20, 12, 90, 200]
    end = [100, 30, 50, 18, 120, 210]
    parent = [-1, 0, 0, 1, 0, -1]
    got = spans.self_times(start, end, parent)
    assert got.tolist() == [50.0, 14.0, 30.0, 6.0, 30.0, 10.0]


def test_wrappers_are_installed_at_every_lookup_site_and_removed():
    before = _module_attributes()
    original_fit = greycast.models.fit
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert greycast.order_search.fit is greycast.models.fit is not original_fit
        assert greycast.sweep.fit is greycast.models.fit
        assert greycast.models.accumulate is greycast.accumulation.accumulate
        cfg = greycast.order_search.OrderSearchConfig(step=0.25)
        values = np.array(greycast.datasets.load_bundled("nuclear").values)
        result = greycast.order_search.search_order(values, cfg)
    finally:
        tracer.remove()
    after = _module_attributes()
    assert before.keys() == after.keys()
    for name, attrs in before.items():
        assert attrs.keys() == after[name].keys(), name
        for attr, value in attrs.items():
            assert after[name][attr] is value, f"{name}.{attr}"

    layer = tracer.per_layer()
    assert layer["order_search.search_order.calls"] == 1
    assert layer["models.fit.calls"] == result.n_candidates
    assert layer["accumulation.forward_coeffs.calls"] == result.n_candidates
    assert layer["datasets.parse_dataset.calls"] == 1
    assert layer["order_search.candidates"] == result.n_candidates
    assert layer["order_search.candidates_failed"] == result.n_failed
    assert all(layer[f"{name}.self_s"] >= 0 for name in spans.SPAN_NAMES)


def test_a_wrong_search_result_is_counted_as_failed(tmp_path, monkeypatch):
    case = workloads.search_cases(1)[1]
    assert case.name == "nuclear"
    right = greycast.order_search.OrderSearchResult(
        r=case.known_r, objective_value=case.known_objective, objective="rmspe",
        n_candidates=workloads.GRID_SIZE, n_failed=0,
    )
    wrong = greycast.order_search.OrderSearchResult(
        r=1.9, objective_value=case.known_objective * 2, objective="rmspe",
        n_candidates=workloads.GRID_SIZE, n_failed=0,
    )
    run = workloads.Run(seed=1, seconds=0, work=tmp_path)
    for result in (right, wrong):
        monkeypatch.setattr(greycast.order_search, "search_order", lambda *a, _r=result, **k: _r)
        run.attempt("search nuclear", lambda: workloads._search_one(run, case))
    assert run.attempted == 2
    assert len(run.problems) == 1
    assert "outside 1.1595" in run.problems[0] and "exceeds" in run.problems[0]


def test_sweep_check_flags_a_dominated_cell():
    assert workloads.check_sweep_rows([(1e-3, 1e-20, "ok"), (0.5, 1e-18, "ok")]) == []
    assert workloads.check_sweep_rows([(1e-3, 2e-3, "ok"), (np.nan, np.nan, "fit_failed")])


def test_exits_nonzero_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oneshot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_calibration_drops_probe_time_and_scales_by_the_nearby_speed():
    ref = speed.REFERENCE_S
    sampler = speed.SpeedSampler()
    sampler.starts = [0.0, 1.0, 1.1, 5.0]
    sampler.durations = [ref, 2 * ref, 2 * ref, ref]
    raw, calibrated = sampler.calibrate([(0.9, 1.3), (4.0, 4.1)])
    assert raw == pytest.approx([0.4, 0.1])
    # Two probes at half speed fall inside the first interval; the second
    # interval has none nearby and takes the closest one.
    assert calibrated == pytest.approx([(0.4 - 4 * ref) / 2, 0.1])


def test_no_sample_runs_during_a_call_that_releases_the_interpreter_lock():
    # A large matrix product releases the lock for its whole length.  A
    # sampler thread would run its loop beside it, read the contention as
    # a slower CPU and shrink the product's calibrated time; the timer's
    # samples wait until the product returns.
    a = np.random.default_rng(0).random((1500, 1500))
    sampler = speed.SpeedSampler(period=0.005)
    with sampler.timed():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:  # Python bytecode: sampled
            pass
        t1 = time.perf_counter()
        a @ a
        t2 = time.perf_counter()
    assert sum(t0 <= s < t1 for s in sampler.starts) >= 5
    assert t2 - t1 > 10 * sampler.period
    # A signal pending when the product starts (its start is read in
    # Python) or ends may run one sample on either side of it.
    assert sum(t1 <= s < t2 for s in sampler.starts) <= 2
