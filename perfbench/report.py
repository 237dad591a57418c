"""Repeat the benchmark over several seeds and summarise it.

    python3 perfbench/report.py [--workloads search sweep oneshot]
        [--seeds 1 2 3 ...] [--traced-seeds 1] [--out perfbench/baseline.json]

For every workload it runs the untraced benchmark once per seed and gives,
per end-to-end metric, the median, the quartiles (``statistics.quantiles``
with n=4) and their distance as a share of the median, next to the bound
in BENCHMARK.json.  Each traced seed is run twice: the per-layer medians
are reported, the ``calls`` and counts must agree between the two runs,
and the tracing overhead is the traced end-to-end result against the
untraced median of the same workload.  Run it from the root of the tree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    *_, info, result = proc.stdout.strip().splitlines()
    return json.loads(info), json.loads(result)


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--traced-seeds", nargs="*", type=int, default=[])
    parser.add_argument("--out", default=None, help="also write the summary to this JSON file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in workloads:
        runs = [bench(spec, workload, seed, 0) for seed in args.seeds]
        failed = sum(result["failed"] for _, result in runs)
        attempted = sum(result["attempted"] for _, result in runs)
        entry = {
            "runs": [info for info, _ in runs],
            "attempted": attempted,
            "failed": failed,
            "end_to_end": {},
        }
        print(f"{workload}: {attempted} operations, {failed} failed")
        for name, bound in bounds.items():
            stats = summarise([result["metrics"][name]["value"] for _, result in runs])
            stats["bound"] = bound
            entry["end_to_end"][name] = stats
            ok = stats["spread"] < bound / 3
            steady &= ok
            raw = [info["uncalibrated"].get(name) for info, _ in runs]
            if None not in raw:
                stats["uncalibrated"] = summarise(raw)
            print(
                f"  {name:16s} median {stats['median']:.6g}  spread {stats['spread']:.3f}"
                f"  bound {bound}  {'ok' if ok else 'WIDE'}"
                + (f"  (uncalibrated spread {stats['uncalibrated']['spread']:.3f})" if "uncalibrated" in stats else "")
            )
        steady &= failed == 0
        if args.traced_seeds:
            entry["traced"] = traced(spec, workload, args.traced_seeds, entry["end_to_end"])
            steady &= entry["traced"]["counts_repeat"] and entry["traced"]["failed"] == 0
        summary["workloads"][workload] = entry
    summary["steady"] = steady
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


def traced(spec: dict, workload: str, seeds: list[int], untraced: dict) -> dict:
    per_layer: dict[str, list[float]] = {}
    overhead: dict[str, list[float]] = {}
    repeat = True
    failed = 0
    for seed in seeds:
        (info, first), (_, second) = (bench(spec, workload, seed, 1) for _ in range(2))
        failed += first["failed"] + second["failed"]
        for name, metric in first["metrics"].items():
            per_layer.setdefault(name, []).append(metric["value"])
            if not name.endswith(".self_s") and metric["value"] != second["metrics"][name]["value"]:
                repeat = False
                print(f"  {name} differs between runs of seed {seed}")
        for name, value in info["traced"].items():
            if name in untraced:
                overhead.setdefault(name, []).append(value / untraced[name]["median"] - 1.0)
    print(f"  traced: counts repeat {repeat}; overhead " + ", ".join(
        f"{name} {statistics.median(v):+.1%}" for name, v in overhead.items()
    ))
    return {
        "seeds": seeds,
        "failed": failed,
        "counts_repeat": repeat,
        "overhead_share": {name: statistics.median(v) for name, v in overhead.items()},
        "per_layer_median": {name: statistics.median(v) for name, v in per_layer.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
