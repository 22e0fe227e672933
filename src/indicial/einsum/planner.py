"""Validation of parsed statements and their lowering to numpy operations.

``validate`` checks a statement against the bound signatures and lowers it
into a ContractionPlan holding only what execution reads: per factor, the
index tuple that pins fixed digits and the axis pairs to trace; per term,
the pairwise schedule and the transpose into target order.  Each step is
lowered to one matrix product: the permutation that moves each operand's
shared letters inward and the shapes ``(d**m, d**k)`` and ``(d**k, d**n)``
are fixed here, together with the result shape.  A side that shares letters
but keeps none is the 1-D vector ``(d**k,)``: numpy's BLAS dispatch makes
the same call for it as for the ``(1, d**k)`` row or ``(d**k, 1)`` column
that ``np.tensordot`` builds, so the bytes still equal that contraction's.
The term records its largest step product so that execution can refuse one
beyond the dense storage cap before it allocates.  The default schedule
contracts left to right; ``order_contractions`` reschedules greedily, always
merging the pair with the smallest result first (ties broken by position),
and keeps a term's given schedule when that one is cheaper, which never
changes values, only cost.

Both stages memoize, as ``parse`` does, in caches of ``CACHE_SIZE``
entries: ``validate`` on the statement, the mode and the signatures of the
names the statement references (never on the bindings themselves), and
``order_contractions`` on the plan object.  Plans are immutable, so every
caller shares them.  One resolver reads the bindings ahead of the cache
and raises the binding errors there (an unbound or malformed name, a dim
that differs from the first factor's); the cached body checks the rest.
Its failures (ShapeError, ConventionError, AddressingError) share the
cache with its plans as ``(class, args)`` records, and ``validate`` raises
a fresh instance from the record on every call.  Resolver errors and
``parse`` errors are not cached.

Index-to-slot matching: in strict mode the written upper indices bind the
upper slots in order and the written lower indices bind the lower slots in
order, so ``x_1^r`` and ``x^r_1`` address the same object.  In orthogonal
mode variance carries no information and matching is positional: written
index k binds slot k, and the binding's variances are coerced to the
written ones.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable, Mapping

from ..errors import AddressingError, ConventionError, ShapeError
from ..objects import (
    DOWN,
    MAX_COMPONENTS,
    UP,
    TensorObject,
    Variance,
    require_signature,
    require_storable,
)
from .syntax import CACHE_SIZE, FactorRef, Statement


class Mode(enum.Enum):
    STRICT = "strict"
    ORTHOGONAL = "orthogonal"

    # as for Variance: Enum's own hash runs in Python, once per validate call
    __hash__ = object.__hash__


Signature = tuple[int, tuple[Variance, ...], int]  # (dim, slots, weight)


@dataclass(frozen=True)
class FactorPlan:
    """One factor occurrence lowered against its binding.

    ``index`` pins the fixed digits by basic indexing: ``value - 1`` in a
    pinned slot, ``slice(None)`` in every other one, or ``()`` when no
    digit is fixed.  ``traces`` are the axis pairs contracted inside the
    factor, numbered after slicing and after the earlier traces.
    ``open_letters`` name the axes that remain, in order.
    """

    name: str
    index: tuple[int | slice, ...]
    traces: tuple[tuple[int, int], ...]
    open_letters: tuple[str, ...]


@dataclass(frozen=True)
class ScheduleStep:
    """Contract working items ``left`` and ``right`` (left < right) as one
    matrix product.

    ``left_perm`` moves the left item's shared letters last and
    ``right_perm`` moves the right item's shared letters first, in the same
    order (None when the item is already in that order).  The operands are
    then reshaped to ``left_shape`` ``(d**m, d**k)`` and ``right_shape``
    ``(d**k, d**n)``, except that a side sharing ``k > 0`` letters and
    keeping none is the 1-D vector ``(d**k,)``, which numpy's BLAS dispatch
    takes as it takes a ``(1, d**k)`` row or a ``(d**k, 1)`` column, so the
    bytes are those of the 2-D product.  An outer product has ``k = 0``, so
    its inner axis has length 1, and a side that shares and keeps nothing is
    ``(1, 1)``.  The product, reshaped to ``result_shape``, replaces
    position ``left`` and position ``right`` is removed.  ``cost``, the
    multiply-add estimate dim ** |letter union|, is derived from the two
    shapes, a 1-D side counting as its length.
    """

    left: int
    right: int
    left_perm: tuple[int, ...] | None
    left_shape: tuple[int, ...]
    right_perm: tuple[int, ...] | None
    right_shape: tuple[int, ...]
    result_shape: tuple[int, ...]

    @property
    def cost(self) -> int:
        # the inner axis is the last of left_shape and the first of right_shape
        return math.prod(self.left_shape) * math.prod(self.right_shape[1:])


@dataclass(frozen=True)
class TermPlan:
    """``output_axes`` transposes the last working item into target order
    (None when it is already in it).  ``largest_intermediate`` counts the
    components of the largest step product (0 when there is no step)."""

    coefficient: float
    factors: tuple[FactorPlan, ...]
    steps: tuple[ScheduleStep, ...]
    output_axes: tuple[int, ...] | None
    largest_intermediate: int
    prep_cost: int
    naive_cost: int

    @property
    def scheduled_cost(self) -> int:
        return self.prep_cost + sum(s.cost for s in self.steps)


@dataclass(frozen=True, eq=False)
class ContractionPlan:
    """A lowered statement.  Plans are shared, so ``signatures`` is read-only
    and a plan compares and hashes by identity."""

    mode: Mode
    dim: int
    result_slots: tuple[Variance, ...]
    weight: int
    free_letters: tuple[str, ...]
    signatures: Mapping[str, Signature]
    terms: tuple[TermPlan, ...]

    @property
    def total_cost(self) -> int:
        return sum(t.scheduled_cost for t in self.terms)

    @property
    def naive_cost(self) -> int:
        return sum(t.naive_cost for t in self.terms)


def _signature(name: str, value: object) -> Signature:
    if isinstance(value, TensorObject):
        return (value.dim, value.slots, value.weight)
    try:
        dim, slots, weight = value  # type: ignore[misc]
        slots = tuple(slots)
    except (TypeError, ValueError):
        raise ShapeError(
            f"signature for {name!r} must be a TensorObject or (dim, slots, weight)"
        ) from None
    # the rules and messages of new_object: no coercion of 3.7, "3" or True
    require_signature(dim, slots, weight)
    return (dim, slots, weight)


def _resolve_slots(factor: FactorRef, slots: tuple[Variance, ...], mode: Mode) -> list[int]:
    """Map written index position -> bound slot position."""
    if len(factor.indices) != len(slots):
        raise ShapeError(
            f"factor {factor.name!r} is written with {len(factor.indices)} "
            f"indices but is bound to a rank-{len(slots)} object"
        )
    if mode is Mode.ORTHOGONAL:
        return list(range(len(slots)))
    by_variance = {UP: [k for k, s in enumerate(slots) if s is UP],
                   DOWN: [k for k, s in enumerate(slots) if s is DOWN]}
    mapping: list[int] = []
    taken = {UP: 0, DOWN: 0}
    for spec in factor.indices:
        pool = by_variance[spec.variance]
        if taken[spec.variance] >= len(pool):
            ups = sum(1 for i in factor.indices if i.variance is UP)
            raise ShapeError(
                f"factor {factor.name!r} is written with {ups} upper and "
                f"{len(factor.indices) - ups} lower indices but is bound to "
                f"slots ({', '.join(s.value for s in slots)})"
            )
        mapping.append(pool[taken[spec.variance]])
        taken[spec.variance] += 1
    return mapping


def _lower_factor(
    name: str, slot_letters: list[str | None], index: tuple[int | slice, ...], dim: int
) -> tuple[FactorPlan, int]:
    """Number one factor's self-contractions; return its plan and their cost.

    ``slot_letters`` is None where a digit pins the slot.  A letter written
    twice in the factor is traced, leftmost pair first.
    """
    letters = [l for l in slot_letters if l is not None]
    traces: list[tuple[int, int]] = []
    cost = 0
    a = 0
    while a < len(letters):
        if letters.count(letters[a]) == 1:
            a += 1
            continue
        b = letters.index(letters[a], a + 1)
        traces.append((a, b))
        cost += dim ** len(letters)
        del letters[b], letters[a]
    return FactorPlan(name, index, tuple(traces), tuple(letters)), cost


def validate(
    statement: Statement,
    signatures: dict[str, object],
    mode: Mode = Mode.STRICT,
) -> ContractionPlan:
    """Check conventions and bindings; return an executable plan.

    Raises ShapeError for a ``mode`` that is not a Mode, for binding
    mismatches (unbound name, wrong arity or variance counts, conflicting
    dims) and for a result beyond the dense
    storage cap, ConventionError for summation convention violations (a
    letter used three times, a dummy pair that is not upper+lower in strict
    mode, free-letter or weight mismatches across terms, a missing or
    non-matching target layout), and AddressingError for a fixed digit
    index outside 1..dim.  Plans are memoized and shared between callers,
    and so are the failures of the checks after the binding errors: a
    repeated one raises a fresh exception of the same class and message.
    """
    if not isinstance(mode, Mode):
        raise ShapeError(f"mode {mode!r} is not a Mode")
    plan = _validate(statement, mode, _resolve(statement, signatures))
    if type(plan) is ContractionPlan:
        return plan
    cls, args = plan
    raise cls(*args)


def _resolve(
    statement: Statement, signatures: dict[str, object]
) -> tuple[tuple[str, Signature], ...]:
    """The signature of each referenced name, by first appearance.

    Raises the binding errors: an unbound or malformed name, or a dim that
    differs from the first factor's.
    """
    key = []
    dim = None
    for name in statement.names:
        if name not in signatures:
            raise ShapeError(f"no binding for name {name!r}")
        t = signatures[name]
        if type(t) is TensorObject:
            sig = (t.dim, t.slots, t.weight)
        else:
            sig = _signature(name, t)
        if dim is None:
            dim = sig[0]
        elif sig[0] != dim:
            raise ShapeError(
                f"dim mismatch: {name!r} has dim {sig[0]}, expected {dim}"
            )
        key.append((name, sig))
    return tuple(key)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _validate(
    statement: Statement, mode: Mode, key: tuple[tuple[str, Signature], ...]
) -> ContractionPlan | tuple[type[Exception], tuple[object, ...]]:
    """The plan, or ``(class, args)`` of the check that fails: the record
    holds no exception instance, so no traceback or binding stays cached."""
    try:
        return _lower(statement, mode, key)
    except (ShapeError, ConventionError, AddressingError) as exc:
        return type(exc), exc.args


def _lower(
    statement: Statement, mode: Mode, key: tuple[tuple[str, Signature], ...]
) -> ContractionPlan:
    # every check reads only the statement, the mode and these signatures
    signatures = dict(key)
    dim = key[0][1][0]

    lowered: list[tuple[float, tuple[FactorPlan, ...], int, int]] = []
    term_free: list[dict[str, Variance]] = []
    term_weights: list[int] = []

    for term in statement.terms:
        # letter -> written variance of each occurrence
        occurrences: dict[str, list[Variance]] = {}
        factor_plans: list[FactorPlan] = []
        prep_cost = 0
        for factor in term.factors:
            _, slots, _ = signatures[factor.name]
            mapping = _resolve_slots(factor, slots, mode)
            slot_letters: list[str | None] = [None] * len(slots)
            index: list[int | slice] = [slice(None)] * len(slots)
            for spec, slot in zip(factor.indices, mapping):
                if spec.is_fixed:
                    value = int(spec.letter)
                    if value > dim:
                        raise AddressingError(
                            f"fixed index {value} outside 1..{dim} "
                            f"in factor {factor.name!r}"
                        )
                    index[slot] = value - 1
                else:
                    slot_letters[slot] = spec.letter
                    occurrences.setdefault(spec.letter, []).append(spec.variance)
            pinned = tuple(index) if None in slot_letters else ()
            fp, cost = _lower_factor(factor.name, slot_letters, pinned, dim)
            factor_plans.append(fp)
            prep_cost += cost

        free: dict[str, Variance] = {}
        for letter, variances in occurrences.items():
            if len(variances) > 2:
                raise ConventionError(
                    f"index {letter!r} appears {len(variances)} times in one term; "
                    "an index may appear at most twice"
                )
            if len(variances) == 1:
                free[letter] = variances[0]
            elif mode is Mode.STRICT and set(variances) != {UP, DOWN}:
                v1, v2 = variances
                raise ConventionError(
                    f"summed index {letter!r} must appear once as an upper and "
                    f"once as a lower index, got {v1.value} and {v2.value}"
                )
        lowered.append(
            (term.coefficient, tuple(factor_plans), prep_cost, dim ** len(occurrences))
        )
        term_free.append(free)
        term_weights.append(sum(signatures[f.name][2] for f in term.factors))

    first_free = term_free[0]
    for k, free in enumerate(term_free[1:], start=2):
        if set(free) != set(first_free):
            raise ConventionError(
                f"free indices differ between terms: "
                f"{sorted(first_free)} in term 1 vs {sorted(free)} in term {k}"
            )
        if mode is Mode.STRICT:
            for letter in free:
                if free[letter] is not first_free[letter]:
                    raise ConventionError(
                        f"free index {letter!r} changes variance between terms"
                    )
    for k, w in enumerate(term_weights[1:], start=2):
        if w != term_weights[0]:
            raise ConventionError(
                f"weight mismatch between summed terms: "
                f"{term_weights[0]} in term 1 vs {w} in term {k}"
            )

    target = statement.target
    if target is None:
        if first_free:
            raise ConventionError(
                "a target layout is required when free indices exist: "
                f"{sorted(first_free)}"
            )
        free_letters: tuple[str, ...] = ()
        result_slots: tuple[Variance, ...] = ()
    else:
        for spec in target.indices:
            if spec.is_fixed:
                raise ConventionError("target indices must be letters, not digits")
        target_letters = [spec.letter for spec in target.indices]
        if sorted(target_letters) != sorted(first_free):
            raise ConventionError(
                f"target layout {target_letters} is not a permutation of the "
                f"free indices {sorted(first_free)}"
            )
        if mode is Mode.STRICT:
            for spec in target.indices:
                if spec.variance is not first_free[spec.letter]:
                    raise ConventionError(
                        f"target writes index {spec.letter!r} as "
                        f"{spec.variance.value} but it is free as "
                        f"{first_free[spec.letter].value}"
                    )
        free_letters = tuple(target_letters)
        result_slots = tuple(spec.variance for spec in target.indices)
    require_storable(dim, len(free_letters))

    terms = []
    for coeff, factors, prep, naive in lowered:
        schedule = _schedule(factors, free_letters, dim, lambda *_: (0, 1))
        terms.append(TermPlan(coeff, factors, *schedule, prep, naive))
    return ContractionPlan(
        mode, dim, result_slots, term_weights[0], free_letters,
        MappingProxyType(signatures), tuple(terms),
    )


def _smallest_pair(items: list[tuple[str, ...]], dim: int) -> tuple[int, int]:
    """The pair whose result has the fewest components; ties go to the first."""
    def size(pair: tuple[int, int]) -> int:
        left, right = items[pair[0]], items[pair[1]]
        shared = sum(1 for l in left if l in right)
        return dim ** (len(left) + len(right) - 2 * shared)

    return min(itertools.combinations(range(len(items)), 2), key=size)


def _perm(
    letters: tuple[str, ...], order: list[str] | tuple[str, ...]
) -> tuple[int, ...] | None:
    """The transpose taking axes named ``letters`` into ``order``; None for
    the identity."""
    perm = tuple(letters.index(l) for l in order)
    return None if perm == tuple(range(len(perm))) else perm


def _schedule(
    factors: tuple[FactorPlan, ...],
    free_letters: tuple[str, ...],
    dim: int,
    pick: Callable[[list[tuple[str, ...]], int], tuple[int, int]],
) -> tuple[tuple[ScheduleStep, ...], tuple[int, ...] | None, int]:
    """Contract the pairs ``pick`` chooses; return the steps, the output
    transpose and the largest step product."""
    items = [f.open_letters for f in factors]
    steps: list[ScheduleStep] = []
    while len(items) > 1:
        i, j = pick(items, dim)
        left, right = items[i], items[j]
        shared = [l for l in left if l in right]
        kept_left = [l for l in left if l not in shared]
        kept_right = [l for l in right if l not in shared]
        inner = dim ** len(shared)
        left_shape: tuple[int, ...] = (dim ** len(kept_left), inner)
        right_shape: tuple[int, ...] = (inner, dim ** len(kept_right))
        if shared:
            # a side that keeps no letter is a vector, so the product is
            # A.dot(x) or x.dot(w) with no reshape
            if not kept_left:
                left_shape = (inner,)
            if not kept_right:
                right_shape = (inner,)
        result = tuple(kept_left + kept_right)
        steps.append(ScheduleStep(
            i, j,
            _perm(left, kept_left + shared), left_shape,
            _perm(right, shared + kept_right), right_shape,
            (dim,) * len(result),
        ))
        items[i] = result
        del items[j]
    largest = max((dim ** len(s.result_shape) for s in steps), default=0)
    return tuple(steps), _perm(items[0], free_letters), largest


@functools.lru_cache(maxsize=CACHE_SIZE)
def order_contractions(plan: ContractionPlan) -> ContractionPlan:
    """Reschedule every term by the greedy smallest-result rule, keeping the
    term's given schedule when that one is cheaper.

    A schedule with a step beyond ``MAX_COMPONENTS`` ranks last, and a tie
    goes to the greedy one, so the plan's ``total_cost`` never rises.
    Pure: returns a new plan; values are unchanged, only the cost model.
    Memoized on the plan object.
    """
    free_letters, dim = plan.free_letters, plan.dim
    terms = []
    for term in plan.terms:
        steps, output_axes, largest = _schedule(
            term.factors, free_letters, dim, _smallest_pair
        )
        greedy = replace(
            term, steps=steps, output_axes=output_axes, largest_intermediate=largest
        )
        terms.append(min(greedy, term, key=_schedule_rank))
    return replace(plan, terms=tuple(terms))


def _schedule_rank(term: TermPlan) -> tuple[bool, int]:
    return term.largest_intermediate > MAX_COMPONENTS, term.scheduled_cost
