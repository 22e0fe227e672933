"""Evaluate a ContractionPlan against concrete bindings.

The plan holds every numpy argument, so ``execute`` only replays it: index
and trace each factor, run each step as one matrix product whose operand
permutations and 2-D shapes the plan fixed, transpose and scale each term,
sum the terms.  A trace is ``objects._trace``, the reduction ``np.trace``
runs, without its Python wrapper; ``contract`` traces through it too.  The
product is ``ndarray.dot``, the product numpy's own pairwise tensor
contraction ends in after the same transposes and reshapes, so the bytes
equal that contraction's.  A reshape that would not change an operand's or
a product's shape is skipped; the plan keeps every shape, since a step's
``cost`` reads them.  The bindings are checked inline against the plan's
signatures, and only a mismatch calls ``_check_binding``, which words the
failure.  A plan rescheduled by ``order_contractions`` runs in its new
order, and a plan whose schedule has a step product beyond the dense
storage cap is refused before anything is allocated.  The result signature
was proved by ``validate``, so the result is built without re-validation.
It is C-ordered and shares no memory with a binding: only a lone factor
that is neither traced, multiplied nor scaled can be a view of its binding,
and only that result is copied; every other one is already a fresh array,
which ``_result`` freezes in place.
Bindings are never mutated, so evaluation is safe to run concurrently.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..objects import MAX_COMPONENTS, TensorObject, _result, _trace
from .planner import ContractionPlan, Mode, Signature


def _check_binding(
    mode: Mode, name: str, signature: Signature, bindings: dict[str, TensorObject]
) -> None:
    """Raise the ShapeError that names how a binding differs from the plan;
    return when the difference is an orthogonal-mode variance coercion."""
    dim, slots, weight = signature
    if name not in bindings:
        raise ShapeError(f"no binding for name {name!r}")
    t = bindings[name]
    if not isinstance(t, TensorObject):
        raise ShapeError(f"binding for {name!r} is not a TensorObject")
    if t.dim != dim:
        raise ShapeError(
            f"binding for {name!r} has dim {t.dim}, plan expects {dim}"
        )
    if mode is Mode.STRICT:
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
    strict mode; up to variance coercion in orthogonal mode).  Raises
    ShapeError, before allocating, when a step of the plan's schedule would
    hold more than ``MAX_COMPONENTS`` components.
    """
    for name, signature in plan.signatures.items():
        t = bindings.get(name)
        if type(t) is not TensorObject or (t.dim, t.slots, t.weight) != signature:
            _check_binding(plan.mode, name, signature, bindings)
    for term in plan.terms:
        if term.largest_intermediate > MAX_COMPONENTS:
            raise ShapeError(
                f"dense storage cap exceeded: a contraction step holds "
                f"{term.largest_intermediate} > {MAX_COMPONENTS} components"
            )
    total: np.ndarray | None = None
    shared = False  # whether total may be a view of a binding's components
    for term in plan.terms:
        items = []
        for fp in term.factors:
            arr = bindings[fp.name].components
            if fp.index != ():
                arr = arr[fp.index]
            for a, b in fp.traces:
                arr = _trace(arr, a, b)
            items.append(arr)
        for step in term.steps:
            right = items.pop(step.right)
            left = items[step.left]
            if step.left_perm is not None:
                left = left.transpose(step.left_perm)
            if step.right_perm is not None:
                right = right.transpose(step.right_perm)
            if left.shape != step.left_shape:
                left = left.reshape(step.left_shape)
            if right.shape != step.right_shape:
                right = right.reshape(step.right_shape)
            product = left.dot(right)
            if product.shape != step.result_shape:
                product = product.reshape(step.result_shape)
            items[step.left] = product
        arr = items[0]
        if term.output_axes is not None:
            arr = arr.transpose(term.output_axes)
        if term.coefficient != 1.0:
            arr = arr * term.coefficient
        if total is None:
            # only a lone factor, neither traced, multiplied nor scaled,
            # reaches here as a view: indexing and transposing do not copy
            total = arr
            shared = (
                not term.steps and term.coefficient == 1.0 and not term.factors[0].traces
            )
        else:
            total = total + arr
            shared = False
    if shared:
        # np.array copies: the result never shares memory with a binding
        total = np.array(total, order="C")
    return _result(plan.dim, plan.result_slots, plan.weight, total)
