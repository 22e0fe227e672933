"""Evaluate a ContractionPlan against concrete bindings.

The plan holds every numpy argument as plain tuples, built once when each
term is scheduled, and keeps them in its replay (see ``ContractionPlan``).
On its way to a result ``execute`` reads nothing else, so it walks none of
the plan's objects; it only replays the tuple: index and trace each factor,
run each step as one matrix product whose operand permutations and shapes
the plan fixed, transpose and scale each term, sum the terms.  A trace is
``objects._trace``, the reduction ``np.trace`` runs, without its Python
wrapper; ``contract`` traces through it too.  The product is
``ndarray.dot``, the product numpy's own pairwise tensor contraction ends in
after the same transposes and reshapes, so the bytes equal that
contraction's.  A side that shares letters but keeps none is planned 1-D, so
a mat-vec runs ``A.dot(x)`` and an inner product ``x.dot(w)``: numpy's BLAS
dispatch makes the same call for a ``(k,)`` vector as for the ``(k, 1)``
column or ``(1, k)`` row numpy's contraction builds, so the bytes are
unchanged.  What the plan fixes is decided when the plan is built, not
tested per call: a reshape that would not change an operand's or a
product's shape is absent from the replay, each factor names its binding by
position, and the replay says how the result is owned.  The bindings are
checked inline against the plan's signatures, each read once, and only a
mismatch calls ``_check_binding``, which words the failure.  A plan rescheduled by
``order_contractions`` is a new plan with its own replay, so it runs in its
new order, and a plan whose schedule has a step product beyond the dense
storage cap is refused before anything is allocated.  The result signature
was proved by ``validate``, so the result is built without re-validation.
It is C-ordered and shares no memory with a binding.  When every term ends
in a step product with no output transpose and the rank is at least 1, the
result is that fresh product (scaled or summed), which ``execute`` freezes
in place.  A lone factor that is neither traced, multiplied nor scaled can
be a view of its binding, so it is copied.  Every other result (a
transposed term, a rank-0 result, a traced or scaled lone factor) goes
through ``_result``, which copies a view that is not C-ordered into C
order and freezes the array.
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
    ShapeError for a ``plan`` that is not a ContractionPlan and for
    ``bindings`` that are no mapping, and, before allocating, when a step
    of the plan's schedule would hold more than ``MAX_COMPONENTS``
    components.
    """
    try:
        checks, largest, terms, lone, fresh, (dim, result_slots, weight) = plan._replay
    except AttributeError:
        raise ShapeError(
            f"plan must be a ContractionPlan, got {type(plan).__name__}"
        ) from None
    arrays = []
    try:
        for name, signature in checks:
            t = bindings.get(name)
            if type(t) is not TensorObject or (t.dim, t.slots, t.weight) != signature:
                _check_binding(plan.mode, name, signature, bindings)
            arrays.append(t.components)
    except AttributeError:
        # only bindings.get raises it: t is read once its type is known
        raise ShapeError(
            f"bindings must be a mapping of names, got {type(bindings).__name__}"
        ) from None
    if largest > MAX_COMPONENTS:
        raise ShapeError(
            f"dense storage cap exceeded: a contraction step holds "
            f"{largest} > {MAX_COMPONENTS} components"
        )
    total: np.ndarray | None = None
    for factors, steps, output_axes, coefficient, _ in terms:
        items = []
        for at, index, traces in factors:
            arr = arrays[at]
            if index is not None:
                arr = arr[index]
            for a, b in traces:
                arr = _trace(arr, a, b)
            items.append(arr)
        for (left_at, right_at, left_perm, left_shape,
             right_perm, right_shape, result_shape) in steps:
            right = items.pop(right_at)
            left = items[left_at]
            if left_perm is not None:
                left = left.transpose(left_perm)
            if right_perm is not None:
                right = right.transpose(right_perm)
            if left_shape is not None:
                left = left.reshape(left_shape)
            if right_shape is not None:
                right = right.reshape(right_shape)
            product = left.dot(right)
            if result_shape is not None:
                product = product.reshape(result_shape)
            items[left_at] = product
        arr = items[0]
        if output_axes is not None:
            arr = arr.transpose(output_axes)
        if coefficient != 1.0:
            arr = arr * coefficient
        total = arr if total is None else total + arr
    if fresh:
        # a step product, scaled or summed: C-ordered and held by no one else
        total.setflags(False)
        return TensorObject(dim, result_slots, weight, total)
    if lone:
        # indexing and transposing do not copy, so a lone factor, neither
        # traced, multiplied nor scaled, is still a view of its binding;
        # np.array copies: the result never shares memory with a binding
        total = np.array(total, order="C")
    return _result(dim, result_slots, weight, total)
