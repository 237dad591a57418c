"""Run perfbench in alternating pairs on two trees and compare their metrics.

    python tools/bench_pairs.py PARENT CHANGE --workload sweep --pairs 10 --seed 9100

PARENT and CHANGE are roots of greycast checkouts.  Pair i runs
``perfbench/run.py --workload W --seed S+i`` once in each tree, for the
``run_seconds`` of CHANGE's BENCHMARK.json, the parent first in even pairs
and the change first in odd ones.  Both trees lose their ``__pycache__``
directories first and every run has PYTHONDONTWRITEBYTECODE=1, so that
neither side imports greycast from cached bytecode while the other
compiles it from source.

For each end-to-end metric of BENCHMARK.json it prints both sides' median
and quartiles, the change of the median, whether that change stays within
the metric's bound, the pairs the change won, and whether the claim rule
holds: the change wins at least 9 of 10 pairs (the same share of any
number of pairs), and its median is better than the parent's by more than
the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def clear_bytecode(tree: Path) -> None:
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The metric values of one perfbench run, None when it fails or finds
    a wrong result."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None or not result["correct"]:
        print(f"  {tree}: run failed (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
        return None
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(metric: dict, parent: list[float], change: list[float]) -> str:
    name, lower = metric["name"], metric["better"] == "lower"
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    sign = -1.0 if lower else 1.0  # positive means better
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gain = sign * (cmed - pmed)
    worse = -gain / abs(pmed) if pmed else 0.0
    claim = won >= math.ceil(0.9 * len(parent)) and gain > p3 - p1
    return (
        f"{name:15} parent {pmed:12.6g} [{p1:.6g}, {p3:.6g}]  "
        f"change {cmed:12.6g} [{c1:.6g}, {c3:.6g}]  "
        f"{(cmed - pmed) / pmed if pmed else 0.0:+7.2%}  "
        f"bound {metric['bound']:.0%} {'ok' if worse <= metric['bound'] else 'EXCEEDED'}  "
        f"won {won}/{len(parent)}  claim rule {'holds' if claim else 'fails'}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, choices=("search", "sweep", "oneshot"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        clear_bytecode(tree)
    values = {side: [] for side in trees}
    failed = 0
    for i in range(args.pairs):
        seed = args.seed + i
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        pair = {side: run_once(trees[side], args.workload, seed, bench["run_seconds"])
                for side in order}
        if None in pair.values():
            failed += 1
            continue
        for side in trees:
            values[side].append(pair[side])
        print(f"pair {i} seed {seed}: " + "  ".join(
            f"{name} {pair['parent'][name]:.6g} -> {pair['change'][name]:.6g}"
            for name in ("items_per_s", "request_ms_p50")), flush=True)
    print(f"{args.workload}: {len(values['parent'])} pairs, {failed} failed")
    if not values["parent"]:
        return 1
    for metric in bench["end_to_end"]:
        name = metric["name"]
        print(compare(metric, [v[name] for v in values["parent"]],
                      [v[name] for v in values["change"]]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
