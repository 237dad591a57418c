"""greycast benchmark: order search, recovery sweep and one-shot fits.

Usage, from the root of the tree under test:

    python3 perfbench/run.py --workload search|sweep|oneshot --seed N \
        --seconds S --trace 0|1

With ``--trace 0`` the run measures its workload for about ``--seconds``
and reports the end-to-end metrics; with ``--trace 1`` it does a fixed
amount of work under the span tracer and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the provenance, sample counts and any failed checks.  Spans go to
``.perfbench-out/trace-<workload>.npz``.  See perfbench/SPEC.md.
"""

import os

# One caller, at most 3x3 solves per call: BLAS threads would only add
# wake-up noise.  Pinned before numpy loads, and inherited by every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# It would silently override `sweep --seed`, in-process and in every child.
os.environ.pop("GREYCAST_SEED", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
NPROC = len(os.sched_getaffinity(0))
E2E_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "request_ms_p50": "ms",
    "request_ms_p99": "ms",
    "cli_s_p50": "s",
    "peak_rss_mb": "MB",
}


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def source_digest(workloads) -> str:
    digest = hashlib.sha256()
    files = sorted(p for p in workloads.SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    files += sorted(HERE.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, workloads) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": source_digest(workloads),
        "greycast_file": workloads.greycast.__file__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": NPROC,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
    }


def end_to_end(run, times: dict[str, list[float]]) -> dict[str, float]:
    """The time metrics from the durations of each kind."""
    values = {
        "items_per_s": run.items / sum(times["request"]),
        "request_ms_p50": percentile(times["request"], 50) * 1e3,
        "request_ms_p99": percentile(times["request"], 99) * 1e3,
        "cli_s_p50": statistics.median(times["cli"]),
    }
    if times["setup"]:
        values["setup_s"] = statistics.median(times["setup"])
    return values


def per_layer(tracer) -> dict:
    return {
        name: {"value": value, "unit": _layer_unit(name)}
        for name, value in tracer.per_layer().items()
    }


def _layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("search", "sweep", "oneshot"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import greycast from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import spans

    # The speed samples and the measured work share one CPU; children inherit it.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        tracer = spans.Tracer() if args.trace else None
        run = workloads.Run(seed=args.seed, seconds=args.seconds, work=work, tracer=tracer)
        if tracer is None:
            workloads.measure_setup(run)
        workloads.WORKLOADS[args.workload](run)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timings = {kind: run.sampler.calibrate(run.pairs(kind)) for kind in run.intervals}
    calibrated = end_to_end(run, {kind: cal for kind, (_, cal) in timings.items()})
    info = provenance(args, workloads)
    info["uncalibrated"] = end_to_end(run, {kind: raw for kind, (raw, _) in timings.items()})
    info["speed_samples"] = len(run.sampler.durations)
    if tracer is None:
        values = dict(calibrated, peak_rss_mb=rss_mb)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    else:
        metrics = per_layer(tracer)
        tracer.write(OUT / f"trace-{args.workload}.npz")
        info["traced"] = calibrated
        info["spans"] = len(tracer.name_id)
    info["samples"] = {kind: len(raw) for kind, (raw, _) in timings.items()}
    if info["samples"]["request"] <= 16:
        info["request_s"], info["request_s_uncalibrated"] = timings["request"][1], timings["request"][0]
    info["problems"] = run.problems
    for problem in run.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": not run.problems,
                "attempted": run.attempted,
                "failed": len(run.problems),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
