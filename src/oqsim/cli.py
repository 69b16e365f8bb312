"""Batch front end: run declarative model files and emit CSV results.

Exit codes: 0 on success, 1 on model validation errors, 2 on solver errors.
"""

from __future__ import annotations

import argparse
import sys

from .exceptions import ModelError, OqsimError
from .model import check_model, csv_lines, parse_model, run_model, write_csv

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oqsim", description="Run declarative open-quantum-system models."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a model file and write a CSV table")
    run_p.add_argument("model", help="path to the YAML model file")
    run_p.add_argument("--output", "-o", default=None, help="output path (default: stdout)")
    run_p.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    run_p.add_argument("--ntraj", type=int, default=None, help="override the trajectory count")
    run_p.add_argument("--solver", default=None, help="override the solver name")
    run_p.add_argument("--format", default="csv", choices=["csv"], help="output format")

    val_p = sub.add_parser("validate", help="parse and validate a model file")
    val_p.add_argument("model", help="path to the YAML model file")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.model) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read model file: {exc}", file=sys.stderr)
        return 1

    try:
        spec = parse_model(text)
        if args.command == "validate":
            check_model(spec, spec.solver)
            print(f"ok: {args.model} is a valid {spec.solver} model", file=sys.stderr)
            return 0
        table = run_model(spec, seed=args.seed, ntraj=args.ntraj, solver=args.solver)
    except ModelError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except OqsimError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2

    if args.output:
        try:
            write_csv(table, args.output)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.writelines(csv_lines(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
