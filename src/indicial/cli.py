"""Command-line interface.

A run exits 0 on success, 1 for a usage problem, a failed verify-law or an
OSError, and otherwise with the ``exit_code`` of the TensorError it reports.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from typing import Sequence

import numpy as np

from .documents import (
    format_tensor_document,
    load_basis_document,
    load_bindings,
    load_frame_document,
    load_tensor_document,
)
from .einsum import Mode, execute, order_contractions, parse, validate
from .errors import TensorError
from .frames import transform, verify_transform_law
from .metric import Metric, cross, inner, metric_from_basis, metric_from_tensor, triple
from .minkowski import boost, rapidity
from .objects import MIXED_SLOTS, TensorObject, _result, new_object


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises a usage error for ``run`` to report on one ``error:`` line,
    where argparse would print its usage block and exit 2; subcommand
    parsers are built with the same class."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse's own pattern has no exponent: "--beta -1e-05" would read as an option
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message: str):
        raise _UsageError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="indicial",
        description="Index-notation calculus on dense numeric tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a summation-convention expression")
    p.set_defaults(handler=_cmd_eval)
    p.add_argument("expression", help="e.g. 'y^r = a^r_s x^s'")
    p.add_argument(
        "--bindings",
        action="append",
        required=True,
        metavar="FILE",
        help="JSON file of named tensor documents (repeatable)",
    )
    p.add_argument(
        "--mode",
        choices=[mode.value for mode in Mode],
        default=Mode.STRICT.value,
        help="index convention (default strict)",
    )
    p.add_argument("--out", metavar="FILE", help="write the result document here")

    p = sub.add_parser("transform", help="push a tensor document through a frame")
    p.set_defaults(handler=_cmd_transform)
    p.add_argument("--frame", required=True, metavar="FILE")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument(
        "--weight",
        type=int,
        default=None,
        help="override the document's weight for the law",
    )
    p.add_argument("--out", metavar="FILE")

    p = sub.add_parser(
        "verify-law", help="check the transformation law between two documents"
    )
    p.set_defaults(handler=_cmd_verify_law)
    p.add_argument("--frame", required=True, metavar="FILE")
    p.add_argument("--old", required=True, metavar="FILE")
    p.add_argument("--new", required=True, metavar="FILE")
    p.add_argument("--weight", type=int, default=None)
    p.add_argument("--tol", type=float, default=verify_transform_law.__defaults__[-1])

    products = (("dot", 2, inner), ("cross", 2, cross), ("triple", 3, triple))
    for name, nvec, product in products:
        p = sub.add_parser(name, help=f"metric {name} product of {nvec} vectors")
        p.set_defaults(handler=_cmd_product, product=product)
        p.add_argument("vectors", nargs=nvec, metavar="VEC")
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--metric", metavar="FILE")
        group.add_argument("--basis", metavar="FILE")
        p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("boost", help="velocity boost matrix as a tensor document")
    p.set_defaults(handler=_cmd_boost)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("rapidity", help="rapidity of a velocity as a scalar document")
    p.set_defaults(handler=_cmd_rapidity)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("check-exercises", help="run the built-in check catalogue")
    p.set_defaults(handler=_cmd_check_exercises)
    # the defaults are run_checks' own, read when the catalogue is imported
    p.add_argument("--dim", type=int, help="dimension for generic checks")
    p.add_argument("--seed", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--filter", metavar="PATTERN", help="glob on check ids")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument(
        "--timings",
        action="store_true",
        help="include per-check wall time (breaks byte-for-byte reproducibility)",
    )

    return parser


def _load_metric(args: argparse.Namespace) -> Metric:
    if args.metric:
        return metric_from_tensor(load_tensor_document(args.metric))
    return metric_from_basis(load_basis_document(args.basis))


def _cmd_eval(args: argparse.Namespace) -> TensorObject:
    bindings = load_bindings(args.bindings)
    mode = Mode(args.mode)
    plan = order_contractions(validate(parse(args.expression), bindings, mode))
    return execute(plan, bindings)


def _cmd_transform(args: argparse.Namespace) -> TensorObject:
    f = load_frame_document(args.frame)
    t = load_tensor_document(args.input)
    if args.weight is not None and args.weight != t.weight:
        t = new_object(t.dim, t.slots, args.weight, t.components)
    return transform(t, f)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _bad_tol(tol: float) -> bool:
    # written so that a NaN tolerance is bad too
    return not 0.0 <= tol < math.inf


def _cmd_verify_law(args: argparse.Namespace) -> int:
    if _bad_tol(args.tol):
        return _usage_error(f"--tol must be finite and non-negative, got {args.tol}")
    f = load_frame_document(args.frame)
    old = load_tensor_document(args.old)
    new = load_tensor_document(args.new)
    weight = old.weight if args.weight is None else args.weight
    if verify_transform_law(old, new, f, weight, tol=args.tol):
        print(f"transform law holds at weight {weight}")
        return 0
    print(f"transform law violated at weight {weight}")
    return 1


def _cmd_product(args: argparse.Namespace) -> TensorObject:
    m = _load_metric(args)  # before the vectors, so its errors come first
    value = args.product(*(load_tensor_document(p) for p in args.vectors), m)
    if isinstance(value, TensorObject):
        return value
    return _result(m.dim, (), 0, np.float64(value))


def _cmd_boost(args: argparse.Namespace) -> TensorObject:
    return new_object(4, MIXED_SLOTS, 0, boost(args.beta))


def _cmd_rapidity(args: argparse.Namespace) -> TensorObject:
    return _result(4, (), 0, np.float64(rapidity(args.beta)))


def _cmd_check_exercises(args: argparse.Namespace) -> int:
    # the catalogue is large; only this command pays for importing it
    from . import exercises

    for name, default in zip(("dim", "seed", "tol"), exercises.run_checks.__defaults__):
        if getattr(args, name) is None:
            setattr(args, name, default)
    if not 2 <= args.dim <= 6:
        return _usage_error("--dim must be between 2 and 6")
    if args.seed < 0:
        return _usage_error(f"--seed must be non-negative, got {args.seed}")
    if _bad_tol(args.tol):
        return _usage_error(f"--tol must be finite and non-negative, got {args.tol}")
    # numpy warns inside a check as it would outside run's errstate, so that
    # under -W error::RuntimeWarning a warning fails the check that raised it
    with np.errstate(divide="warn", over="warn", invalid="warn"):
        results = exercises.run_checks(
            dim=args.dim, seed=args.seed, tol=args.tol, pattern=args.filter
        )
    print(
        exercises.format_report(
            results, args.dim, args.seed, args.tol,
            as_json=args.json, timings=args.timings,
        )
    )
    return 0 if exercises.all_passed(results) else 1


# built once: parse_args reads it and returns a fresh namespace per call
_PARSER = _build_parser()


def run(argv: Sequence[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except _UsageError as exc:
        # a caller mistake, same class as a bad document
        return _usage_error(str(exc))
    except SystemExit:  # --help printed its text
        return 0
    try:
        # numpy's floating-point warnings never reach stderr (check-exercises
        # turns them back on inside its checks): a result that overflowed is
        # refused when it is emitted, with one error line
        with np.errstate(all="ignore"):
            result = args.handler(args)
            if not isinstance(result, TensorObject):
                return result
            text = format_tensor_document(result)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    print(text, file=fh)
            else:
                print(text)
            return 0
    except (TensorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, TensorError) else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
