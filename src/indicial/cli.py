"""Command-line interface.

Exit codes: 0 on success, 1 for syntax, convention, shape, addressing,
document, and usage problems (including a failed verify-law), 2 for numeric
domain failures (singular matrices, non-metrics, superluminal speeds).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

import numpy as np

from . import exercises
from .documents import (
    format_tensor_document,
    load_basis_document,
    load_bindings,
    load_frame_document,
    load_tensor_document,
)
from .einsum import Mode, execute, order_contractions, parse, validate
from .errors import (
    DefinitenessError,
    SingularityError,
    SuperluminalError,
    TensorError,
)
from .frames import transform, verify_transform_law
from .metric import Metric, cross, inner, metric_from_basis, metric_from_tensor, triple
from .minkowski import boost, rapidity
from .objects import MIXED_SLOTS, TensorObject, new_object


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indicial",
        description="Index-notation calculus on dense numeric tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a summation-convention expression")
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
        choices=("strict", "orthogonal"),
        default="strict",
        help="index convention (default strict)",
    )
    p.add_argument("--out", metavar="FILE", help="write the result document here")

    p = sub.add_parser("transform", help="push a tensor document through a frame")
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
    p.add_argument("--frame", required=True, metavar="FILE")
    p.add_argument("--old", required=True, metavar="FILE")
    p.add_argument("--new", required=True, metavar="FILE")
    p.add_argument("--weight", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-9)

    for name, nvec in (("dot", 2), ("cross", 2), ("triple", 3)):
        p = sub.add_parser(name, help=f"metric {name} product of {nvec} vectors")
        p.add_argument("vectors", nargs=nvec, metavar="VEC")
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--metric", metavar="FILE")
        group.add_argument("--basis", metavar="FILE")
        p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("boost", help="velocity boost matrix as a tensor document")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("rapidity", help="rapidity of a velocity as a scalar document")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("check-exercises", help="run the built-in check catalogue")
    p.add_argument("--dim", type=int, default=3, help="dimension for generic checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--filter", metavar="PATTERN", help="glob on check ids")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument(
        "--timings",
        action="store_true",
        help="include per-check wall time (breaks byte-for-byte reproducibility)",
    )

    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_tensor(t: TensorObject, out: str | None) -> None:
    _emit(format_tensor_document(t), out)


def _scalar_doc(dim: int, value: float) -> TensorObject:
    return new_object(dim, (), 0, [value])


def _load_metric(args: argparse.Namespace) -> Metric:
    if args.metric:
        return metric_from_tensor(load_tensor_document(args.metric))
    return metric_from_basis(load_basis_document(args.basis))


def _cmd_eval(args: argparse.Namespace) -> int:
    bindings = load_bindings(args.bindings)
    mode = Mode.STRICT if args.mode == "strict" else Mode.ORTHOGONAL
    plan = order_contractions(validate(parse(args.expression), bindings, mode))
    _emit_tensor(execute(plan, bindings), args.out)
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    f = load_frame_document(args.frame)
    t = load_tensor_document(args.input)
    if args.weight is not None and args.weight != t.weight:
        t = new_object(t.dim, t.slots, args.weight, t.components)
    _emit_tensor(transform(t, f), args.out)
    return 0


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


def _cmd_dot(args: argparse.Namespace) -> int:
    m = _load_metric(args)
    x, y = (load_tensor_document(p) for p in args.vectors)
    _emit_tensor(_scalar_doc(m.dim, inner(x, y, m)), args.out)
    return 0


def _cmd_cross(args: argparse.Namespace) -> int:
    m = _load_metric(args)
    x, y = (load_tensor_document(p) for p in args.vectors)
    _emit_tensor(cross(x, y, m), args.out)
    return 0


def _cmd_triple(args: argparse.Namespace) -> int:
    m = _load_metric(args)
    x, y, z = (load_tensor_document(p) for p in args.vectors)
    _emit_tensor(_scalar_doc(m.dim, triple(x, y, z, m)), args.out)
    return 0


def _cmd_boost(args: argparse.Namespace) -> int:
    _emit_tensor(new_object(4, MIXED_SLOTS, 0, boost(args.beta)), args.out)
    return 0


def _cmd_rapidity(args: argparse.Namespace) -> int:
    _emit_tensor(_scalar_doc(4, rapidity(args.beta)), args.out)
    return 0


def _cmd_check_exercises(args: argparse.Namespace) -> int:
    if not 2 <= args.dim <= 6:
        return _usage_error("--dim must be between 2 and 6")
    if args.seed < 0:
        return _usage_error(f"--seed must be non-negative, got {args.seed}")
    if _bad_tol(args.tol):
        return _usage_error(f"--tol must be finite and non-negative, got {args.tol}")
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


_HANDLERS = {
    "eval": _cmd_eval,
    "transform": _cmd_transform,
    "verify-law": _cmd_verify_law,
    "dot": _cmd_dot,
    "cross": _cmd_cross,
    "triple": _cmd_triple,
    "boost": _cmd_boost,
    "rapidity": _cmd_rapidity,
    "check-exercises": _cmd_check_exercises,
}


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; usage errors are
        # caller mistakes, same class as bad documents
        return 0 if exc.code == 0 else 1
    try:
        # numpy's floating-point warnings never reach stderr: a result that
        # overflowed is refused when it is emitted, with one error line
        with np.errstate(all="ignore"):
            return _HANDLERS[args.command](args)
    except (SingularityError, SuperluminalError, DefinitenessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TensorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
