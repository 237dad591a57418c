"""Print a SHA-256 of each of greycast's observable outputs for one source tree.

    python tools/output_digest.py TREE

TREE is the root of a greycast checkout; its ``src/`` is imported, and
its CLI runs in child interpreters.  Every input is generated here from
fixed seeds, so two trees give the same lines exactly when they give the
same bytes:

    diff <(python tools/output_digest.py PARENT) <(python tools/output_digest.py .)

The first line names the numpy build and machine.  ``output_digest.txt``
next to this file holds the output for the tree it sits in;
``tests/test_output_digest.py`` recomputes its library, 30x30 sweep,
seed-0 and seed-9628820819983981567 sweep, nuclear search and ``reproduce``
lines, and a change that means to alter outputs writes the file again.

Covered: sweep CSVs at several seeds; the ``search_order`` result and
profile CSV for each bundled series, search variant and objective;
fit/predict/evaluate/to_dict over seeded series and all seven variants,
errors included; and the stdout, stderr, exit code and written files of
every CLI command the benchmark's tours run, plus three error paths.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

TREE: Path  # set by main(), as is the greycast module ``gc`` imported from it
# (the test that imports this file sets ``gc`` itself)
SWEEP_SEEDS = (0, 42, 7, 9628820819983981567, 1276284046780378592)
SEARCH_VARIANTS = ("fagmo", "fagm11k", "fagm11")
LIBRARY_CASES = 300


def emit(name: str, payload) -> None:
    data = payload if isinstance(payload, bytes) else repr(payload).encode()
    print(f"{hashlib.sha256(data).hexdigest()}  {name}")


def outcome(call):
    """The call's result, or the type and message of the error it raised."""
    try:
        with np.errstate(all="ignore"):
            return call()
    except (gc.errors.GreycastError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def platform_line() -> str:
    """What the digests depend on besides the tree: other numpy or BLAS
    builds and other CPUs may round differently."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    return f"platform numpy={np.__version__} blas={blas} machine={platform.machine()}"


def digest_sweeps(work: Path, seeds=SWEEP_SEEDS) -> None:
    """A 100x100 sweep per seed, then one 30x30 sweep of 6-point series."""
    path = work / "sweep.csv"
    for seed in seeds:
        gc.write_sweep_csv(gc.run_sweep(gc.SweepConfig.regular(100, 100, seed=seed)), path)
        emit(f"sweep seed={seed}", path.read_bytes())
    gc.write_sweep_csv(gc.run_sweep(gc.SweepConfig.regular(30, 30, n_points=6, seed=5)), path)
    emit("sweep 30x30 n_points=6 seed=5", path.read_bytes())


def digest_searches(work: Path, names=("oilfield", "nuclear", "settlement")) -> None:
    """Result and profile CSV of each search variant, objective and window on each
    bundled series in ``names``."""
    for name in names:
        values = gc.load_bundled(name).values
        for tag in SEARCH_VARIANTS:
            variant = gc.ModelVariant(tag)
            for objective in ("rmspe", "rmspepr"):
                for nu in (None, len(values) - 2):
                    cfg = gc.OrderSearchConfig(objective=objective, variant=variant, nu=nu)
                    path = work / "profile.csv"
                    path.unlink(missing_ok=True)
                    result = outcome(lambda: gc.search_order(values, cfg, profile_path=path))
                    label = f"search {name} {tag} {objective} nu={nu}"
                    emit(f"{label} result", result)
                    emit(f"{label} profile", path.read_bytes() if path.exists() else None)


def _library_case(rng: np.random.Generator, variant: gc.ModelVariant):
    n = int(rng.integers(4, 41))
    values = rng.uniform(1.0, 3.0) * np.exp(rng.uniform(-0.2, 0.3) * np.arange(n))
    values *= rng.uniform(0.9, 1.1, n)
    r = 1.0 if variant.order_locked else float(rng.uniform(0.05, 2.0))
    nu = int(rng.integers(4, n + 1))
    labels = list(range(2001, 2001 + n)) if rng.integers(2) else None
    model = gc.fit(values, r, variant, nu, labels=labels)
    restored = gc.predict(model, 0)
    return (
        model.to_dict(),
        gc.predict(model, 3).tolist(),
        gc.evaluate(values, restored, nu).to_dict(),
        gc.FittedModel.from_dict(model.to_dict()) == model,
    )


def digest_library() -> None:
    for variant in gc.ModelVariant:
        rng = np.random.default_rng([7, list(gc.ModelVariant).index(variant)])
        results = [outcome(lambda: _library_case(rng, variant)) for _ in range(LIBRARY_CASES)]
        emit(f"library {variant.value}", json.dumps(results, sort_keys=True).encode())
    edges = ([2.0] * 6, [1, 2, 0, 4, 5, 6], [1, 2, math.nan, 4, 5], [1, 1e308, 3, 4, 5], [1, 2, 3])
    for values in edges:
        results = [
            outcome(lambda: _edge_case(values, variant)) for variant in gc.ModelVariant
        ]
        emit(f"library edge {values}", repr(results).encode())


def _edge_case(values, variant):
    model = gc.fit(values, 1.0 if variant.order_locked else 0.5, variant)
    restored = gc.predict(model, 2)
    return model.to_dict(), restored.tolist(), gc.evaluate(values, restored[:-2], model.nu).to_dict()


def _write_series(path: Path, values) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("period,value\n")
        for label, value in enumerate(values, start=2001):
            fh.write(f"{label},{float(value)!r}\n")


def _tour(csv: str, variant: str, order: str, nu: int, seed: int) -> list[list[str]]:
    """The commands of one benchmark tour on one series."""
    return [
        ["fit", csv, "--model", variant, "--order", order, "--train", str(nu),
         "--out", "model.json"],
        ["forecast", "--model", "model.json", "--horizon", "3", "--out", "forecast.csv"],
        ["evaluate", csv, "--model", variant, "--order", order, "--train", str(nu)],
        ["evaluate", csv, "--model", "fagmo", "--order", "auto", "--order-step", "0.01",
         "--train", str(nu)],
        ["sweep", "--seed", str(seed), "--r-steps", "10", "--alpha-steps", "10",
         "--out", "surface.csv"],
    ]


def cli_commands(work: Path) -> list[list[str]]:
    """Every CLI command digested, after writing the CSV files they read to ``work``."""
    # Relative paths keep the output free of the tree's location.
    nuclear = "nuclear.csv"
    (work / nuclear).write_bytes((Path(gc.datasets.__file__).parent / "data" / nuclear).read_bytes())
    commands = [["reproduce", "--case", case] for case in gc.CASES]
    commands += _tour(nuclear, "fagmo", "1.1595", 10, 3)
    rng = np.random.default_rng(11)
    for i, variant in enumerate(gc.ModelVariant):
        r = 1.0 if variant.order_locked else float(rng.uniform(0.1, 1.0))
        values = gc.generate_synthetic(r, 0.1 + 0.02 * i, 1.0, 5.0, 1.5, 8 + i)
        _write_series(work / f"series-{i}.csv", values)
        commands += _tour(f"series-{i}.csv", variant.value, repr(r), 6 + i, 100 + i)
    commands += [
        ["fit", nuclear, "--train", "3"],
        ["fit", nuclear, "--model", "gm11", "--order", "0.5"],
        ["fit", nuclear, "--order", "1e6"],
        ["fit", "--help"],
    ]
    return commands


def digest_cli(work: Path, commands: list[list[str]]) -> None:
    """Run each command on the tree's CLI in ``work`` and digest what it printed,
    its exit code and the files it wrote."""
    env = dict(os.environ, PYTHONPATH=str(TREE / "src"), COLUMNS="80")
    for argv in commands:
        outputs = ("model.json", "forecast.csv", "surface.csv")
        for name in outputs:
            (work / name).unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "greycast.cli", *argv],
            cwd=work, env=env, capture_output=True, timeout=300,
        )
        files = {name: (work / name).read_bytes() for name in outputs if (work / name).exists()}
        emit("cli " + " ".join(argv), (proc.returncode, proc.stdout, proc.stderr, files))


def main() -> None:
    global TREE, gc
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    TREE = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(TREE / "src"))
    import greycast as gc

    if not Path(gc.__file__).resolve().is_relative_to(TREE):
        sys.exit(f"greycast was imported from {gc.__file__}, not from {TREE}")
    print(platform_line())
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        digest_sweeps(work)
        digest_searches(work)
        digest_library()
        digest_cli(work, cli_commands(work))


if __name__ == "__main__":
    main()
