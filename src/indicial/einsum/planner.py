"""Validation of parsed statements and their lowering to numpy operations.

``validate`` checks a statement against the bound signatures and lowers it
into a ContractionPlan holding only what execution reads: per factor, the
index tuple that pins fixed digits and the axis pairs to trace; per term,
the pairwise ``tensordot`` schedule with each step's axes and the transpose
into target order.  The default schedule contracts left to right;
``order_contractions`` reschedules greedily, always merging the pair with
the smallest result first (ties broken by position), which never changes
values, only cost.

Both stages memoize, as ``parse`` does, in caches of ``CACHE_SIZE``
entries: ``validate`` on the statement, the mode and the signatures of the
names the statement references (never on the bindings themselves), and
``order_contractions`` on the plan object.  Plans are immutable, so every
caller shares them.

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
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable, Mapping

from ..errors import AddressingError, ConventionError, ShapeError
from ..objects import DOWN, UP, TensorObject, Variance, require_storable
from .syntax import CACHE_SIZE, FactorRef, Statement


class Mode(enum.Enum):
    STRICT = "strict"
    ORTHOGONAL = "orthogonal"


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
    """Contract working items ``left`` and ``right`` (left < right).

    ``axes`` are the ``tensordot`` axes of the shared letters.  The result
    replaces position ``left`` and position ``right`` is removed.  ``cost``
    is the multiply-add estimate dim ** |letter union|.
    """

    left: int
    right: int
    axes: tuple[tuple[int, ...], tuple[int, ...]]
    cost: int


@dataclass(frozen=True)
class TermPlan:
    """``output_axes`` transposes the last working item into target order."""

    coefficient: float
    factors: tuple[FactorPlan, ...]
    steps: tuple[ScheduleStep, ...]
    output_axes: tuple[int, ...]
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
    if not all(isinstance(s, Variance) for s in slots):
        raise ShapeError(f"signature for {name!r} has non-Variance slots")
    return (int(dim), slots, int(weight))


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

    Raises ShapeError for binding mismatches (unbound name, wrong arity or
    variance counts, conflicting dims) and for a result beyond the dense
    storage cap, ConventionError for summation convention violations (a
    letter used three times, a dummy pair that is not upper+lower in strict
    mode, free-letter or weight mismatches across terms, a missing or
    non-matching target layout), and AddressingError for a fixed digit
    index outside 1..dim.  Plans are memoized and shared between callers.
    """
    try:
        key = _signatures_key(statement, signatures)
    except Exception:  # a missing or malformed binding: the body raises its error
        return _validate(statement, signatures, mode)
    return _validate_cached(statement, mode, key)


def _signatures_key(
    statement: Statement, signatures: dict[str, object]
) -> tuple[tuple[str, Signature], ...]:
    """The normalized signature of each referenced name, by first appearance."""
    key = []
    for name in dict.fromkeys(f.name for term in statement.terms for f in term.factors):
        if name not in signatures:
            raise KeyError(name)
        key.append((name, _signature(name, signatures[name])))
    return tuple(key)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _validate_cached(
    statement: Statement, mode: Mode, key: tuple[tuple[str, Signature], ...]
) -> ContractionPlan:
    # every check reads only the statement, the mode and these signatures
    return _validate(statement, dict(key), mode)


def _validate(
    statement: Statement, signatures: dict[str, object], mode: Mode
) -> ContractionPlan:
    resolved: dict[str, Signature] = {}

    def lookup(name: str) -> Signature:
        if name not in resolved:
            if name not in signatures:
                raise ShapeError(f"no binding for name {name!r}")
            resolved[name] = _signature(name, signatures[name])
        return resolved[name]

    dim: int | None = None
    for term in statement.terms:
        for factor in term.factors:
            d = lookup(factor.name)[0]
            if dim is None:
                dim = d
            elif d != dim:
                raise ShapeError(
                    f"dim mismatch: {factor.name!r} has dim {d}, expected {dim}"
                )
    assert dim is not None  # the grammar guarantees at least one factor

    lowered: list[tuple[float, tuple[FactorPlan, ...], int, int]] = []
    term_free: list[dict[str, Variance]] = []
    term_weights: list[int] = []

    for term in statement.terms:
        # letter -> written variance of each occurrence
        occurrences: dict[str, list[Variance]] = {}
        factor_plans: list[FactorPlan] = []
        prep_cost = 0
        for factor in term.factors:
            _, slots, _ = lookup(factor.name)
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
        term_weights.append(sum(lookup(f.name)[2] for f in term.factors))

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
        steps, output_axes = _schedule(factors, free_letters, dim, lambda *_: (0, 1))
        terms.append(TermPlan(coeff, factors, steps, output_axes, prep, naive))
    return ContractionPlan(
        mode, dim, result_slots, term_weights[0], free_letters,
        MappingProxyType(resolved), tuple(terms),
    )


def _smallest_pair(items: list[tuple[str, ...]], dim: int) -> tuple[int, int]:
    """The pair whose result has the fewest components; ties go to the first."""
    def size(pair: tuple[int, int]) -> int:
        left, right = items[pair[0]], items[pair[1]]
        shared = sum(1 for l in left if l in right)
        return dim ** (len(left) + len(right) - 2 * shared)

    return min(itertools.combinations(range(len(items)), 2), key=size)


def _schedule(
    factors: tuple[FactorPlan, ...],
    free_letters: tuple[str, ...],
    dim: int,
    pick: Callable[[list[tuple[str, ...]], int], tuple[int, int]],
) -> tuple[tuple[ScheduleStep, ...], tuple[int, ...]]:
    """Contract the pairs ``pick`` chooses; return the steps and output transpose."""
    items = [f.open_letters for f in factors]
    steps: list[ScheduleStep] = []
    while len(items) > 1:
        i, j = pick(items, dim)
        left, right = items[i], items[j]
        shared = [l for l in left if l in right]
        result = tuple(l for l in left + right if l not in shared)
        axes = tuple(tuple(item.index(l) for l in shared) for item in (left, right))
        steps.append(ScheduleStep(i, j, axes, dim ** (len(result) + len(shared))))
        items[i] = result
        del items[j]
    return tuple(steps), tuple(items[0].index(l) for l in free_letters)


@functools.lru_cache(maxsize=CACHE_SIZE)
def order_contractions(plan: ContractionPlan) -> ContractionPlan:
    """Reschedule every term by the greedy smallest-result rule.

    Pure: returns a new plan; values are unchanged, only the cost model.
    Memoized on the plan object.
    """
    free_letters, dim = plan.free_letters, plan.dim
    terms = []
    for term in plan.terms:
        steps, output_axes = _schedule(term.factors, free_letters, dim, _smallest_pair)
        terms.append(replace(term, steps=steps, output_axes=output_axes))
    return replace(plan, terms=tuple(terms))
