"""Command-line surface: fit, forecast, evaluate, sweep, reproduce.

Exit codes: 0 success, 1 reproduction failure, 2 input error (bad CSV,
bad model file, bad grid bounds, a file that cannot be read or
written), 3 modelling error (singular design, out-of-range development
coefficient, order conflicts, too few samples, a NaN or infinite value
in the data, the parameters or a forecast).  Floating output is
printed at 4 decimals; JSON and CSV artifacts keep full precision.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .datasets import _extended_labels, parse_dataset
from .errors import GreycastError
from .metrics import evaluate, relative_errors
from .models import FittedModel, ModelVariant, fit, predict
from .order_search import OrderSearchConfig, search_order
from .reference import CASES, run_case
from .sweep import SweepConfig, run_sweep, sweep_summary, write_sweep_csv

EXIT_OK = 0
EXIT_REPRODUCE_FAIL = 1
EXIT_INPUT = 2
EXIT_MODEL = 3


def _positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _order_arg(text: str):
    return "auto" if text == "auto" else _positive(text)


def _order_step(text: str) -> float:
    try:
        return OrderSearchConfig(step=float(text)).step
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return code


def _print_report(report, heading: str) -> None:
    print(heading)
    print(f"  RMSPEPR  {report.rmspepr:.4f}%")
    if report.rmspepo is None:
        print("  RMSPEPO  n/a (no holdout)")
    else:
        print(f"  RMSPEPO  {report.rmspepo:.4f}%")
    print(f"  RMSPE    {report.rmspe:.4f}%")
    print(f"  IA       {report.ia:.4f}")
    print(f"  AE       {report.ae:.4f}")
    print(f"  MAE      {report.mae:.4f}")


def _fit_model(data, variant: ModelVariant, order, nu, order_step=0.0001):
    if order == "auto":
        if variant.order_locked:
            raise GreycastError(
                f"--order auto is meaningless for {variant.value}: its order is fixed at 1"
            )
        cfg = OrderSearchConfig(variant=variant, nu=nu, step=order_step)
        result = search_order(data.values, cfg)
        model = fit(data.values, result.r, variant, nu, labels=data.labels)
        return replace(
            model,
            order_search={
                "objective": result.objective,
                "objective_value": result.objective_value,
                "step": cfg.step,
                "r_min": cfg.r_min,
                "r_max": cfg.r_max,
            },
        )
    return fit(data.values, order, variant, nu, labels=data.labels)


def cmd_fit(args) -> int:
    try:
        data = parse_dataset(args.input)
    except GreycastError as exc:
        return _fail(exc, EXIT_INPUT)
    variant = ModelVariant.from_tag(args.model)
    try:
        model = _fit_model(data, variant, args.order, args.train, args.order_step)
        restored = predict(model, 0)
        insample = evaluate(
            data.values[: model.nu], restored[: model.nu], model.nu
        )
    except GreycastError as exc:
        return _fail(exc, EXIT_MODEL)

    print(
        f"fitted {variant.value} at r={model.r:.4f} "
        f"(trained on {model.nu} of {model.n_total} samples)"
    )
    if model.order_search is not None:
        print(
            f"order search: {model.order_search['objective']} = "
            f"{model.order_search['objective_value']:.4f}% at r={model.r:.4f}"
        )
    print(f"{'period':>8}  {'observed':>12}  {'fitted':>12}")
    for label, obs, got in zip(model.labels, data.values, restored):
        print(f"{label:>8}  {obs:>12.4f}  {got:>12.4f}")
    _print_report(insample, "in-sample metrics (training window):")
    if args.out:
        try:
            model.save(args.out)
        except OSError as exc:
            return _fail(exc, EXIT_INPUT)
        print(f"model written to {args.out}")
    return EXIT_OK


def cmd_forecast(args) -> int:
    try:
        model = FittedModel.load(args.model)
    except (GreycastError, OSError) as exc:
        return _fail(exc, EXIT_INPUT)
    if args.horizon < 0:
        print("error: --horizon must be >= 0", file=sys.stderr)
        return EXIT_INPUT
    try:
        restored = predict(model, args.horizon)
    except GreycastError as exc:
        return _fail(exc, EXIT_MODEL)
    labels = _extended_labels(model.labels, args.horizon)
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write("period,predicted\n")
            for label, value in zip(labels, restored):
                fh.write(f"{label},{float(value)!r}\n")
    except OSError as exc:
        return _fail(exc, EXIT_INPUT)
    print(
        f"wrote {args.out} ({len(labels)} periods, {labels[0]}..{labels[-1]}, "
        f"horizon {args.horizon})"
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    try:
        data = parse_dataset(args.input)
    except GreycastError as exc:
        return _fail(exc, EXIT_INPUT)
    variant = ModelVariant.from_tag(args.model)
    try:
        model = _fit_model(data, variant, args.order, args.train, args.order_step)
        restored = predict(model, 0)
        report = evaluate(data.values, restored, model.nu)
        rel = relative_errors(data.values, restored)
    except GreycastError as exc:
        return _fail(exc, EXIT_MODEL)

    print(
        f"{variant.value} at r={model.r:.4f}, trained on {model.nu} of "
        f"{model.n_total} samples"
    )
    print(f"{'period':>8}  {'observed':>12}  {'predicted':>12}  {'rel_error':>10}")
    for label, obs, got, err in zip(model.labels, data.values, restored, rel):
        print(f"{label:>8}  {obs:>12.4f}  {got:>12.4f}  {err:>10.4f}")
    _print_report(report, "metrics:")
    doc = {
        "input": str(args.input),
        "variant": variant.value,
        "r": model.r,
        "metrics": report.to_dict(),
        "relative_errors": {str(l): float(e) for l, e in zip(model.labels, rel)},
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        config = SweepConfig.regular(
            r_steps=args.r_steps,
            alpha_steps=args.alpha_steps,
            n_points=args.points,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    cells = run_sweep(config)
    try:
        write_sweep_csv(cells, args.out)
    except OSError as exc:
        return _fail(exc, EXIT_INPUT)
    summary = sweep_summary(cells)
    print(
        f"wrote {args.out} ({summary['cells']} cells, "
        f"{summary['fit_failed']} fit_failed)"
    )
    print(
        f"max eps_params   fagm={summary['max_eps_fagm']:.4e}  "
        f"fagmo={summary['max_eps_fagmo']:.4e}"
    )
    print(
        f"max rmspe        fagm={summary['max_rmspe_fagm']:.4e}%  "
        f"fagmo={summary['max_rmspe_fagmo']:.4e}%"
    )
    return EXIT_OK


def cmd_reproduce(args) -> int:
    cells = run_case(args.case)
    failures = []
    n_pass = n_ext = 0
    for cell in cells:
        tag = f"{cell.table} {cell.row} {cell.column}"
        if cell.status == "external":
            n_ext += 1
            print(f"[ext ] {tag}: expected {cell.expected} (external, not recomputed)")
        elif cell.status == "pass":
            n_pass += 1
            print(
                f"[ ok ] {tag}: expected {cell.expected}, "
                f"computed {cell.computed:.4f}"
            )
        else:
            failures.append(cell)
            print(
                f"[FAIL] {tag}: expected {cell.expected}, "
                f"computed {cell.computed:.6f}, delta {cell.delta:+.6f}, "
                f"tol {cell.tol:g} ({cell.kind})"
            )
    print(
        f"{args.case}: {n_pass} pass, {len(failures)} fail, "
        f"{n_ext} external (displayed only)"
    )
    if failures:
        print("failing cells:", file=sys.stderr)
        for cell in failures:
            print(f"  {cell.table} {cell.row} {cell.column}", file=sys.stderr)
        return EXIT_REPRODUCE_FAIL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greycast",
        description="Fractional-order grey forecasting over period,value CSV data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    variants = [v.value for v in ModelVariant]

    # The arguments of the commands that fit a model to a CSV file.
    fitting = argparse.ArgumentParser(add_help=False)
    fitting.add_argument("input", help="period,value CSV file")
    fitting.add_argument("--model", choices=variants, default="fagmo")
    fitting.add_argument(
        "--order",
        type=_order_arg,
        default=1.0,
        help="fractional order r, or 'auto' to grid-search it (default: 1)",
    )
    fitting.add_argument("--train", type=int, default=None, metavar="NU",
                         help="number of leading samples to fit on (default: all)")
    fitting.add_argument("--order-step", type=_order_step, default=0.0001,
                         help="grid resolution for --order auto")

    p = sub.add_parser("fit", parents=[fitting], help="fit a model and write it as JSON")
    p.add_argument("--out", default=None, help="path for the model JSON")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("forecast", help="forecast from a saved model")
    p.add_argument("--model", required=True, help="model JSON from 'fit'")
    p.add_argument("--horizon", type=int, default=0)
    p.add_argument("--out", required=True, help="path for the forecast CSV")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("evaluate", parents=[fitting], help="fit and score against the full file")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="parameter-recovery sweep over (r, alpha)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--r-steps", type=int, default=100)
    p.add_argument("--alpha-steps", type=int, default=100)
    p.add_argument("--points", type=int, default=11,
                   help="synthetic series length per cell")
    p.add_argument("--out", required=True, help="path for the surface CSV")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reproduce", help="recompute the bundled reference tables")
    p.add_argument("--case", required=True, choices=list(CASES))
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # A NaN or inf ends in a typed error, so numpy's warnings add only noise.
    with np.errstate(all="ignore"):
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
