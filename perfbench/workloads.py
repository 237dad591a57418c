"""The benchmark's workloads, the inputs they make from a seed, and the
checks on what greycast returns.

Every workload is a closed loop: one caller in one process, each request
starting when the previous one has finished.  The program receives only
arrays and CSV files generated here.  Each workload also runs "CLI
tours": one cold ``python -m greycast.cli`` process per subcommand, one
process at a time, so the cold command-line latency is measured the same
way on every workload.

Untraced runs spend the first half of ``--seconds`` on library work and
the second half on CLI tours, each phase doing at least a minimum number
of units; traced runs do a fixed, seed-determined amount of work so that
call counts repeat exactly from run to run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from array import array
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path

import numpy as np

from speed import SpeedSampler

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import greycast  # noqa: E402
import greycast.cli  # noqa: E402

if not Path(greycast.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"greycast was imported from {greycast.__file__}, not from {SRC}")

from greycast.models import ModelVariant  # noqa: E402

# --- search ------------------------------------------------------------

R_MIN, R_MAX, STEP = 0.01, 2.0, 1e-4
GRID_SIZE = 19_901
SEARCH_VARIANT = ModelVariant.FAGMO11K

#: Bundled series: (name, nu, the paper's order).
BUNDLED = (("oilfield", 11, 0.4052), ("nuclear", 10, 1.1595), ("settlement", 11, 0.2295))
#: Criterion-10 landing zones for the searched order.
LANDING = {"oilfield": 0.4052, "nuclear": 1.1595}
LANDING_TOL = 0.05
SYNTHETIC_LENGTHS = (6, 24, 48)
# Grid indices of the generating orders, r in [0.1, 1.0].  Above about 1.2,
# short series make many grid candidates fail early, which would make the
# rate depend on how many candidates of a seed fail rather than on the
# fitting pipeline.
SYNTHETIC_ORDER_INDEX = (900, 9_900)

# --- sweep -------------------------------------------------------------

SWEEP_STEPS = 100
SWEEP_POINTS = 11
MAX_EPS_FAGMO = 1e-3

# --- oneshot -----------------------------------------------------------

FIXED_ORDERS = (0.25, 0.5, 0.75, 1.25, 1.5)
LENGTHS = range(5, 41)
# Every (variant, length) pair once, for every seed; only the values vary.
POOL_SIZE = len(ModelVariant) * len(LENGTHS)
TRACED_REQUESTS = 4 * POOL_SIZE
HORIZON = 3

# --- run length ----------------------------------------------------------

LIBRARY_SHARE = 0.5  # of --seconds spent on library work, the rest on CLI tours
MIN_PASSES = 1  # search passes over the six series; one takes most of a run
MIN_SWEEPS = 2  # the first two share a seed, for the byte-identity check
MIN_TOURS = 4
TRACED_TOURS = 4  # search and sweep; traced oneshot makes one

# --- CLI tour ----------------------------------------------------------

CLI_TIMEOUT_S = 120
TOUR_SERIES = 4
TOUR_AUTO_STEP = "0.01"
TOUR_SWEEP_STEPS = "10"


def _rng(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), purpose])


def grid_point(i: int) -> float:
    """Order of grid index ``i``, computed the way ``search_order`` does."""
    return R_MIN + i * STEP


def nearest_grid_point(r: float) -> float:
    return grid_point(round((r - R_MIN) / STEP))


def synthetic_series(rng: np.random.Generator, r: float, n: int) -> np.ndarray:
    """A strictly positive FAGMO series of ``n`` points generated at order ``r``."""
    while True:
        alpha = rng.uniform(0.02, 0.3) * rng.choice((-1.0, 1.0))
        beta = rng.uniform(0.0, 2.0)
        gamma = rng.uniform(0.0, 10.0)
        x0 = rng.uniform(1.0, 2.0)
        values = greycast.sweep.generate_synthetic(r, alpha, beta, gamma, x0, n)
        if np.all(np.isfinite(values)) and values.min() > 0:
            return values


def objective_at(values: np.ndarray, r: float, nu: int) -> float:
    """The search objective of one fit at order ``r``."""
    model = greycast.models.fit(values, r, SEARCH_VARIANT, nu)
    return greycast.metrics.evaluate(values, greycast.models.predict(model, 0), nu).rmspe


@dataclass(frozen=True)
class SearchCase:
    name: str
    values: np.ndarray
    nu: int
    known_r: float  # a grid point: the paper's order, or the generating one
    known_objective: float


def search_cases(seed: int) -> list[SearchCase]:
    """The three bundled series and three synthetic ones drawn from ``seed``."""
    cases = []
    for name, nu, paper_r in BUNDLED:
        values = np.array(greycast.datasets.load_bundled(name).values)
        r = nearest_grid_point(paper_r)
        cases.append(SearchCase(name, values, nu, r, objective_at(values, r, nu)))
    rng = _rng(seed, 1)
    for n in SYNTHETIC_LENGTHS:
        r = grid_point(int(rng.integers(*SYNTHETIC_ORDER_INDEX)))
        values = synthetic_series(rng, r, n)
        cases.append(SearchCase(f"synthetic{n}", values, n, r, objective_at(values, r, n)))
    return cases


def check_search(case: SearchCase, result) -> list[str]:
    problems = []
    if result.n_candidates != GRID_SIZE:
        problems.append(f"{result.n_candidates} candidates, expected {GRID_SIZE}")
    if case.name in LANDING and abs(result.r - LANDING[case.name]) > LANDING_TOL:
        problems.append(f"r={result.r!r} outside {LANDING[case.name]} +- {LANDING_TOL}")
    if not result.objective_value <= case.known_objective:
        problems.append(
            f"objective {result.objective_value!r} exceeds {case.known_objective!r} "
            f"at the known grid point r={case.known_r!r}"
        )
    return problems


def sweep_seed(seed: int, k: int) -> int:
    """Sweep seed of repetition ``k``; repetitions 0 and 1 share one seed."""
    return int(np.random.SeedSequence([int(seed), 2, max(k - 1, 0)]).generate_state(1, np.uint64)[0])


def check_sweep_rows(rows) -> list[str]:
    """Criterion-07 dominance over (eps_fagm, eps_fagmo, status) rows."""
    ok = [(plain, opt) for plain, opt, status in rows if status == "ok"]
    if not ok:
        return ["no ok cells"]
    problems = []
    worse = sum(1 for plain, opt in ok if not opt <= plain)
    if worse:
        problems.append(f"eps_fagmo > eps_fagm in {worse} ok cells")
    worst = max(opt for _, opt in ok)
    if not worst < MAX_EPS_FAGMO:
        problems.append(f"max eps_fagmo {worst!r} not below {MAX_EPS_FAGMO}")
    return problems


@dataclass(frozen=True)
class Request:
    values: np.ndarray
    variant: ModelVariant
    r: float
    nu: int


def oneshot_pool(seed: int, size: int = POOL_SIZE, purpose: int = 3) -> list[Request]:
    """Independent requests of 5-40 points over all seven variants, fitted
    at fixed orders (1 for the order-locked variants)."""
    rng = _rng(seed, purpose)
    variants = list(ModelVariant)
    pool = []
    for i in range(size):
        variant = variants[i % len(variants)]
        n = LENGTHS[i % len(LENGTHS)]
        r = 1.0 if variant.order_locked else FIXED_ORDERS[i % len(FIXED_ORDERS)]
        pool.append(Request(synthetic_series(rng, r, n), variant, r, max(4, n - 2)))
    return pool


def check_request(req: Request, model, predicted, restored, report) -> list[str]:
    problems = []
    if restored != model:
        problems.append("from_dict(to_dict(m)) != m")
    if predicted[0] != model.x0:
        problems.append(f"predict(m)[0]={predicted[0]!r} != x0={model.x0!r}")
    if predicted.size != req.values.size + HORIZON or not np.all(np.isfinite(predicted)):
        problems.append("prediction has the wrong length or non-finite values")
    if not math.isfinite(report.rmspe):
        problems.append(f"rmspe {report.rmspe!r}")
    return problems


def write_csv(path: Path, values) -> None:
    """A ``period,value`` file with yearly periods from 2001."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("period,value\n")
        for label, value in enumerate(values, start=2001):
            fh.write(f"{label},{float(value)!r}\n")


def _json_doc(text: str) -> dict:
    return json.loads(text[text.index("\n{") + 1 :])


@dataclass
class Run:
    """State and tallies of one benchmark run."""

    seed: int
    seconds: float
    work: Path
    tracer: object | None = None
    sampler: SpeedSampler = field(default_factory=SpeedSampler)
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    items: int = 0
    #: start, end, start, end, ... perf_counter readings of the set-ups,
    #: requests and CLI calls, kept compact so that their number does not
    #: move peak_rss_mb.
    intervals: dict[str, array] = field(
        default_factory=lambda: {kind: array("d") for kind in ("setup", "request", "cli")}
    )

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    def record(self, kind: str, start: float) -> None:
        self.intervals[kind].extend((start, time.perf_counter()))

    def pairs(self, kind: str) -> list[tuple[float, float]]:
        flat = self.intervals[kind]
        return list(zip(flat[::2], flat[1::2]))

    def more(self, done: int, minimum: int, t0: float, share: float) -> bool:
        """Whether a phase goes on: ``minimum`` units, and untraced, more
        while ``share`` of ``--seconds`` since ``t0`` is not used up."""
        return done < minimum or (
            not self.traced and time.perf_counter() - t0 < self.seconds * share
        )

    def new_request(self) -> None:
        if self.tracer is not None:
            self.tracer.new_request()

    def attempt(self, what: str, operation) -> None:
        """Run one operation, which returns the list of its failed checks."""
        self.attempted += 1
        try:
            problems = operation()
        except Exception as exc:  # a raising operation is counted as failed; the loop goes on
            problems = [f"raised {type(exc).__name__}: {exc}"]
        if problems:
            self.problems.append(f"{what}: " + "; ".join(problems))


SETUP_REPEATS = 21
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import greycast
for name in ("oilfield", "settlement", "nuclear"):
    greycast.datasets.load_bundled(name)
t1 = time.perf_counter()
print(greycast.__file__, repr(t0), repr(t1))
"""


def measure_setup(run: Run) -> None:
    """Import plus loading of the three bundled datasets, each in a fresh interpreter."""
    for _ in range(SETUP_REPEATS):
        run.sampler.sample()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=cli_env(),
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
            check=True,
        )
        where, t0, t1 = proc.stdout.split()
        if not Path(where).resolve().is_relative_to(SRC):
            raise RuntimeError(f"a fresh interpreter imported greycast from {where}")
        run.intervals["setup"].extend((float(t0), float(t1)))
        run.sampler.sample()


# --- the workloads -------------------------------------------------------


def _search_one(run: Run, case: SearchCase) -> list[str]:
    run.new_request()
    cfg = greycast.order_search.OrderSearchConfig(
        r_min=R_MIN, r_max=R_MAX, step=STEP, objective="rmspe", variant=SEARCH_VARIANT, nu=case.nu
    )
    t0 = time.perf_counter()
    result = greycast.order_search.search_order(case.values, cfg)
    run.record("request", t0)
    run.items += result.n_candidates
    return check_search(case, result)


def run_search(run: Run) -> None:
    """Whole passes over the six series, then CLI tours."""
    cases = search_cases(run.seed)
    series = tour_series(run)
    with run.tracer or nullcontext():
        t0 = time.perf_counter()
        passes = 0
        with run.sampler.timed():
            while run.more(passes, MIN_PASSES, t0, LIBRARY_SHARE):
                for case in cases:
                    run.attempt(f"search {case.name}", lambda: _search_one(run, case))
                passes += 1
        _tours(run, series, t0, TRACED_TOURS)


def _sweep_one(run: Run, k: int, digests: dict[int, str]) -> list[str]:
    seed = sweep_seed(run.seed, k)
    path = run.work / f"sweep-{k}.csv"
    cfg = greycast.sweep.SweepConfig.regular(
        SWEEP_STEPS, SWEEP_STEPS, n_points=SWEEP_POINTS, seed=seed
    )
    run.new_request()
    t0 = time.perf_counter()
    cells = greycast.sweep.run_sweep(cfg)
    greycast.sweep.write_sweep_csv(cells, path)
    run.record("request", t0)
    run.items += len(cells)
    problems = check_sweep_rows((c.eps_fagm, c.eps_fagmo, c.status) for c in cells)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    path.unlink()
    if digests.setdefault(seed, digest) != digest:
        problems.append(f"rerun of seed {seed} wrote a different CSV")
    return problems


def run_sweep(run: Run) -> None:
    """Full 100 x 100 sweeps with their CSV, then CLI tours."""
    series = tour_series(run)
    digests: dict[int, str] = {}
    with run.tracer or nullcontext():
        t0 = time.perf_counter()
        k = 0
        with run.sampler.timed():
            while run.more(k, MIN_SWEEPS, t0, LIBRARY_SHARE):
                run.attempt(f"sweep {k}", lambda: _sweep_one(run, k, digests))
                k += 1
        _tours(run, series, t0, TRACED_TOURS)


def _request_one(run: Run, req: Request) -> list[str]:
    run.new_request()
    t0 = time.perf_counter()
    model = greycast.models.fit(req.values, req.r, req.variant, req.nu)
    predicted = greycast.models.predict(model, HORIZON)
    report = greycast.metrics.evaluate(req.values, predicted[: req.values.size], req.nu)
    restored = greycast.models.FittedModel.from_dict(model.to_dict())
    run.record("request", t0)
    run.items += 1
    return check_request(req, model, predicted, restored, report)


def run_oneshot(run: Run) -> None:
    """Library requests, sampling the speed between them, then CLI tours."""
    pool = oneshot_pool(run.seed)
    series = tour_series(run)
    with run.tracer or nullcontext():
        t0 = time.perf_counter()
        i = 0
        while run.more(i, TRACED_REQUESTS if run.traced else 1, t0, LIBRARY_SHARE):
            run.sampler.tick()
            req = pool[i % len(pool)]
            run.attempt(f"request {i}", lambda: _request_one(run, req))
            i += 1
        _tours(run, series, t0, 1)


WORKLOADS = {"search": run_search, "sweep": run_sweep, "oneshot": run_oneshot}


# --- CLI tours -----------------------------------------------------------


@dataclass(frozen=True)
class TourSeries:
    csv: Path
    variant: str
    r: float
    nu: int
    n: int


def tour_series(run: Run) -> list[TourSeries]:
    """CSV files for the tours, written before anything is measured."""
    out = []
    for i, req in enumerate(oneshot_pool(run.seed, TOUR_SERIES, purpose=4)):
        path = run.work / f"series-{i}.csv"
        write_csv(path, req.values)
        out.append(TourSeries(path, req.variant.value, req.r, req.nu, req.values.size))
    return out


def cli_env() -> dict[str, str]:
    """Environment of the child interpreters: this tree's sources first."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def _invoke(run: Run, argv: list[str]) -> tuple[int, str, str]:
    """One CLI invocation: a cold process, or ``cli.main`` in-process when traced."""
    run.new_request()
    run.sampler.sample()
    if run.traced:
        out, err = StringIO(), StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = greycast.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        run.record("cli", t0)
        run.sampler.sample()
        return code, out.getvalue(), err.getvalue()
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "greycast.cli", *argv],
        cwd=run.work,
        env=cli_env(),
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    run.record("cli", t0)
    run.sampler.sample()
    return proc.returncode, proc.stdout, proc.stderr


def _cli_check(run: Run, argv: list[str], check) -> list[str]:
    code, out, err = _invoke(run, argv)
    if code != 0:
        return [f"exit code {code}: {err.strip()[-300:]}"]
    return check(out)


def _check_reproduce(case: str):
    def check(out: str) -> list[str]:
        m = re.search(rf"^{case}: (\d+) pass, (\d+) fail", out, re.MULTILINE)
        if m is None or int(m.group(2)) != 0 or int(m.group(1)) == 0:
            return [f"reproduce {case} summary: {m.group(0) if m else 'missing'}"]
        return []

    return check


def _tour_commands(run: Run, s: TourSeries, k: int):
    model, forecast, surface = (run.work / name for name in ("model.json", "forecast.csv", "surface.csv"))
    order = repr(s.r)

    def check_fit(out: str) -> list[str]:
        doc = json.loads(model.read_text(encoding="utf-8"))
        if doc["r"] != s.r or doc["variant"] != s.variant:
            return [f"model file has r={doc['r']!r}, variant={doc['variant']!r}"]
        return []

    def check_forecast(out: str) -> list[str]:
        x0 = json.loads(model.read_text(encoding="utf-8"))["x0"]
        rows = forecast.read_text(encoding="utf-8").splitlines()[1:]
        if len(rows) != s.n + HORIZON or float(rows[0].split(",")[1]) != x0:
            return [f"forecast has {len(rows)} rows, first {rows[0] if rows else None!r}"]
        return []

    def check_evaluate(out: str) -> list[str]:
        doc = _json_doc(out)
        if doc["r"] != s.r or not math.isfinite(doc["metrics"]["rmspe_pct"]):
            return [f"evaluate reported r={doc['r']!r}, rmspe={doc['metrics']['rmspe_pct']!r}"]
        return []

    def check_auto(out: str) -> list[str]:
        doc = _json_doc(out)
        if not (R_MIN <= doc["r"] <= R_MAX and math.isfinite(doc["metrics"]["rmspe_pct"])):
            return [f"order search chose r={doc['r']!r}"]
        return []

    def check_sweep(out: str) -> list[str]:
        rows = [line.split(",") for line in surface.read_text(encoding="utf-8").splitlines()[1:]]
        steps = int(TOUR_SWEEP_STEPS)
        if len(rows) != steps * steps:
            return [f"sweep wrote {len(rows)} rows"]
        return check_sweep_rows((float(row[2]), float(row[3]), row[6]) for row in rows)

    csv = str(s.csv)
    commands = [
        (["reproduce", "--case", case], _check_reproduce(case)) for case in greycast.reference.CASES
    ]
    commands += [
        (["fit", csv, "--model", s.variant, "--order", order, "--train", str(s.nu),
          "--out", str(model)], check_fit),
        (["forecast", "--model", str(model), "--horizon", str(HORIZON),
          "--out", str(forecast)], check_forecast),
        (["evaluate", csv, "--model", s.variant, "--order", order, "--train", str(s.nu)],
         check_evaluate),
        (["evaluate", csv, "--model", SEARCH_VARIANT.value, "--order", "auto",
          "--order-step", TOUR_AUTO_STEP, "--train", str(s.nu)], check_auto),
        (["sweep", "--seed", str(sweep_seed(run.seed, k + 2)), "--r-steps", TOUR_SWEEP_STEPS,
          "--alpha-steps", TOUR_SWEEP_STEPS, "--out", str(surface)], check_sweep),
    ]
    return commands


def _tours(run: Run, series: list[TourSeries], t0: float, traced_tours: int) -> None:
    """Tours of one invocation per subcommand: ``traced_tours`` when traced,
    else at least MIN_TOURS and more until ``--seconds`` since ``t0``."""
    k = 0
    while run.more(k, traced_tours if run.traced else MIN_TOURS, t0, 1.0):
        for argv, check in _tour_commands(run, series[k % len(series)], k):
            run.attempt(f"cli {argv[0]}", lambda: _cli_check(run, argv, check))
        k += 1
