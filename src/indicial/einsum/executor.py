"""Evaluate a ContractionPlan against concrete bindings.

The plan holds every numpy argument, so ``execute`` only replays it: index
and trace each factor, one ``np.tensordot`` per step, transpose and scale
each term, sum the terms.  A plan rescheduled by ``order_contractions`` runs
in its new order.  Bindings are never mutated, so evaluation is safe to run
concurrently.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..objects import TensorObject, new_object
from .planner import ContractionPlan, Mode


def _check_bindings(plan: ContractionPlan, bindings: dict[str, TensorObject]) -> None:
    for name, (dim, slots, weight) in plan.signatures.items():
        if name not in bindings:
            raise ShapeError(f"no binding for name {name!r}")
        t = bindings[name]
        if not isinstance(t, TensorObject):
            raise ShapeError(f"binding for {name!r} is not a TensorObject")
        if t.dim != dim:
            raise ShapeError(
                f"binding for {name!r} has dim {t.dim}, plan expects {dim}"
            )
        if plan.mode is Mode.STRICT:
            if t.slots != slots:
                raise ShapeError(
                    f"binding for {name!r} has slots "
                    f"({', '.join(s.value for s in t.slots)}), plan expects "
                    f"({', '.join(s.value for s in slots)})"
                )
        elif t.rank != len(slots):
            raise ShapeError(
                f"binding for {name!r} has rank {t.rank}, plan expects {len(slots)}"
            )
        if t.weight != weight:
            raise ShapeError(
                f"binding for {name!r} has weight {t.weight}, plan expects {weight}"
            )


def execute(plan: ContractionPlan, bindings: dict[str, TensorObject]) -> TensorObject:
    """Run the plan and return the result object.

    Bindings must match the signatures recorded in the plan (exactly in
    strict mode; up to variance coercion in orthogonal mode).
    """
    _check_bindings(plan, bindings)
    total: np.ndarray | None = None
    for term in plan.terms:
        items = []
        for fp in term.factors:
            arr = bindings[fp.name].components[fp.index]
            for a, b in fp.traces:
                arr = np.trace(arr, axis1=a, axis2=b)
            items.append(arr)
        for step in term.steps:
            right = items.pop(step.right)
            items[step.left] = np.tensordot(items[step.left], right, axes=step.axes)
        arr = np.transpose(items[0], term.output_axes)
        if term.coefficient != 1.0:
            arr = arr * term.coefficient
        total = arr if total is None else total + arr
    return new_object(plan.dim, plan.result_slots, plan.weight, total)
