"""Validation of parsed statements and their lowering to numpy operations.

``validate`` checks a statement against the bound signatures and lowers it
into a ContractionPlan holding only what execution reads: per factor, the
index tuple that pins fixed digits and the axis pairs to trace; per term,
the pairwise schedule and the transpose into target order.  Each term's
steps are built once, where the term is scheduled, as the plain tuples
``execute`` replays.  Each step is lowered to one matrix product: the
permutation that moves each operand's shared letters inward and the shapes
``(d**m, d**k)`` and ``(d**k, d**n)`` are fixed here, together with the
result shape, and a reshape that would not change a shape is left out.  A
side that shares letters but keeps none is the 1-D vector ``(d**k,)``:
numpy's BLAS dispatch makes the same call for it as for the ``(1, d**k)``
row or ``(d**k, 1)`` column that ``np.tensordot`` builds, so the bytes
still equal that contraction's.  Each term also records what rescheduling
reads: its factors' open letters, its costs and its largest step product,
which execution also reads, to refuse a step beyond the dense storage cap
before it allocates.  The default schedule contracts left to right;
``order_contractions`` reschedules greedily, always merging the pair with
the smallest result first (ties broken by position), and keeps a term's
given schedule when that one is cheaper, which never changes values, only
cost.

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
from dataclasses import dataclass, field
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


@dataclass(frozen=True, eq=False)
class ContractionPlan:
    """A lowered statement.  Plans are shared, so ``signatures`` is read-only
    (a plain mapping passed in is copied and wrapped) and a plan compares
    and hashes by identity.

    ``terms`` is the plan's one representation of its schedule: plain
    tuples, built where each term is scheduled, that ``execute`` replays as
    they are.  The replay holds the same term tuples beside the few facts
    ``execute`` reads of the plan itself, so ``execute`` walks none of the
    plan's objects and re-tests none of the facts the plan fixes.  A plan
    made by ``dataclasses.replace`` or by unpickling goes through the
    constructor and derives its own replay.
    """

    mode: Mode
    dim: int
    result_slots: tuple[Variance, ...]
    weight: int
    free_letters: tuple[str, ...]
    signatures: Mapping[str, Signature]
    # (factors, steps, output_axes, coefficient, schedule) per term:
    #   factors: (its binding's position in signatures, index or None,
    #     traces) per factor;
    #   steps: (left, right, left_perm, left_shape, right_perm, right_shape,
    #     result_shape) per step, with None for a perm that is the identity
    #     and for a shape that the reshape would not change: a working
    #     item's shape is (dim,) * its letter count, and a product's is
    #     left_shape[:-1] + right_shape[1:];
    #   schedule: (letters, prep_cost, naive_cost, cost, largest), what
    #     order_contractions reads: each factor's open letters, the cost of
    #     the traces, of the naive loop and of the steps, and the largest
    #     step product (0 when there is no step)
    terms: tuple[tuple, ...]
    # (checks, largest, terms, lone, fresh, (dim, result_slots, weight)):
    #   checks: (name, signature) per referenced name;
    #   largest: the largest step product of any term;
    #   lone: whether the result can be a view of a binding (one term, a
    #     lone untraced factor, coefficient 1), so execute copies it;
    #   fresh: whether the result is a step product that no binding holds,
    #     already C-ordered (rank >= 1, and every term ends in a step with
    #     no output transpose), so execute freezes it in place; a result
    #     neither lone nor fresh goes through objects._result
    _replay: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.signatures) is not MappingProxyType:
            object.__setattr__(
                self, "signatures", MappingProxyType(dict(self.signatures))
            )
        terms = self.terms
        largest = 0
        fresh = self.result_slots != ()
        for _, steps, output_axes, _, schedule in terms:
            largest = max(largest, schedule[4])
            fresh = fresh and steps != () and output_axes is None
        factors, steps, _, coefficient, _ = terms[0]
        object.__setattr__(self, "_replay", (
            tuple(self.signatures.items()),
            largest,
            terms,
            len(terms) == 1 and steps == () and coefficient == 1.0
            and factors[0][2] == (),
            fresh,
            (self.dim, self.result_slots, self.weight),
        ))

    def __reduce__(self) -> tuple:
        # through the constructor, so the copy derives its own replay; a
        # mappingproxy does not pickle, so signatures travel as a dict
        return ContractionPlan, (
            self.mode, self.dim, self.result_slots, self.weight,
            self.free_letters, dict(self.signatures), self.terms,
        )

    @property
    def total_cost(self) -> int:
        return sum([prep + cost for *_, (_, prep, _, cost, _) in self.terms])

    @property
    def naive_cost(self) -> int:
        return sum([naive for *_, (_, _, naive, _, _) in self.terms])

    @property
    def largest_intermediate(self) -> int:
        """The components of the largest step product of any term, which
        ``execute`` refuses beyond the dense storage cap (0 with no step)."""
        return self._replay[1]


def _signature(name: str, value: object) -> Signature:
    try:
        dim, slots, weight = value  # type: ignore[misc]
        slots = tuple(slots)
    except (TypeError, ValueError):
        raise ShapeError(
            f"signature for {name!r} must be a TensorObject or (dim, slots, weight)"
        ) from None
    # the rules and messages of new_object: no coercion of 3.7, "3" or True,
    # and no signature past the storage cap, whose costs would be huge ints
    require_signature(dim, slots, weight)
    require_storable(dim, len(slots))
    return (dim, slots, weight)


def _lower_factor(
    factor: FactorRef,
    slots: tuple[Variance, ...],
    mode: Mode,
    dim: int,
    occurrences: dict[str, list[Variance]],
) -> tuple[tuple | None, tuple[tuple[int, int], ...], tuple[str, ...], int]:
    """Lower one factor against its bound slots; return its index, its
    traces, its open letters and the cost of its self-contractions.

    Each written letter's variance is appended to ``occurrences``, in
    written order.  A digit pins its slot: the index holds ``value - 1`` in
    a pinned slot and ``slice(None)`` in every other one, and is None when
    no digit is written.  A letter written twice in the factor is traced,
    leftmost pair first: the traces are axis pairs numbered after slicing
    and after the earlier traces.  The open letters name the axes that
    remain, in order.
    """
    indices = factor.indices
    if len(indices) != len(slots):
        raise ShapeError(
            f"factor {factor.name!r} is written with {len(indices)} "
            f"indices but is bound to a rank-{len(slots)} object"
        )
    for spec in indices:
        letter = spec.letter
        if letter in occurrences:
            occurrences[letter].append(spec.variance)
        elif not letter.isdigit():
            occurrences[letter] = [spec.variance]
    # the written indices in slot order
    if mode is Mode.STRICT and tuple([spec.variance for spec in indices]) != slots:
        indices = _in_slot_order(factor, slots)
    letters = [spec.letter for spec in indices]
    index = None
    if not "".join(letters).isalpha():  # a digit pins a slot
        for spec in factor.indices:
            if spec.is_fixed and int(spec.letter) > dim:
                raise AddressingError(
                    f"fixed index {spec.letter} outside 1..{dim} "
                    f"in factor {factor.name!r}"
                )
        index = tuple([int(l) - 1 if l.isdigit() else slice(None) for l in letters])
        letters = [l for l in letters if not l.isdigit()]
    traces: list[tuple[int, int]] = []
    cost = 0
    if len(set(letters)) < len(letters):
        a = 0
        while a < len(letters):
            if letters.count(letters[a]) == 1:
                a += 1
                continue
            b = letters.index(letters[a], a + 1)
            traces.append((a, b))
            cost += dim ** len(letters)
            del letters[b], letters[a]
    return index, tuple(traces), tuple(letters), cost


def _in_slot_order(factor: FactorRef, slots: tuple[Variance, ...]) -> list:
    """Strict mode's matching: the k-th written upper index binds the k-th
    upper slot, and likewise for lower ones."""
    ups = sum(1 for spec in factor.indices if spec.variance is UP)
    if ups != slots.count(UP):
        raise ShapeError(
            f"factor {factor.name!r} is written with {ups} upper and "
            f"{len(factor.indices) - ups} lower indices but is bound to "
            f"slots ({', '.join(s.value for s in slots)})"
        )
    written = {UP: iter([s for s in factor.indices if s.variance is UP]),
               DOWN: iter([s for s in factor.indices if s.variance is DOWN])}
    return [next(written[s]) for s in slots]


def validate(
    statement: Statement,
    signatures: dict[str, object],
    mode: Mode = Mode.STRICT,
) -> ContractionPlan:
    """Check conventions and bindings; return an executable plan.

    Raises ShapeError for a ``statement`` that is not a Statement, for
    ``signatures`` that are no mapping, for a ``mode`` that is not a Mode,
    for binding mismatches (unbound name, wrong arity or variance counts,
    conflicting dims) and for a result beyond the dense storage cap,
    ConventionError for summation convention violations (a letter used
    three times, a dummy pair that is not upper+lower in strict mode,
    free-letter or weight mismatches across terms, a missing or
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

    Raises the binding errors: an unbound or malformed name (a signature
    past the storage cap among them), or a dim that differs from the first
    factor's.
    """
    try:
        names = statement.names
    except AttributeError:
        raise ShapeError(
            f"statement must be a Statement, got {type(statement).__name__}"
        ) from None
    key = []
    dim = None
    try:
        for name in names:
            if name not in signatures:
                raise ShapeError(f"no binding for name {name!r}")
            t = signatures[name]
            if isinstance(t, TensorObject):
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
    except TypeError:
        # only ``in`` and ``[]`` on signatures raise it: _signature words
        # a malformed entry as a ShapeError
        raise ShapeError(
            f"signatures must be a mapping of names, got {type(signatures).__name__}"
        ) from None
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
    names = list(signatures)
    dim = key[0][1][0]

    lowered = []
    term_free: list[dict[str, Variance]] = []
    term_weights: list[int] = []

    for term in statement.terms:
        # letter -> written variance of each occurrence
        occurrences: dict[str, list[Variance]] = {}
        factors, letters = [], []
        prep_cost = weight = 0
        for factor in term.factors:
            _, slots, w = signatures[factor.name]
            index, traces, open_letters, cost = _lower_factor(
                factor, slots, mode, dim, occurrences
            )
            factors.append((names.index(factor.name), index, traces))
            letters.append(open_letters)
            prep_cost += cost
            weight += w

        free: dict[str, Variance] = {}
        for letter, variances in occurrences.items():
            if len(variances) == 1:
                free[letter] = variances[0]
            elif len(variances) > 2:
                raise ConventionError(
                    f"index {letter!r} appears {len(variances)} times in one term; "
                    "an index may appear at most twice"
                )
            elif mode is Mode.STRICT and variances[0] is variances[1]:
                v1, v2 = variances
                raise ConventionError(
                    f"summed index {letter!r} must appear once as an upper and "
                    f"once as a lower index, got {v1.value} and {v2.value}"
                )
        lowered.append((tuple(factors), term.coefficient, tuple(letters),
                        prep_cost, dim ** len(occurrences)))
        term_free.append(free)
        term_weights.append(weight)

    first_free = term_free[0]
    for k, free in enumerate(term_free[1:], start=2):
        if free.keys() != first_free.keys():
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
        target_letters = [spec.letter for spec in target.indices]
        if any(letter.isdigit() for letter in target_letters):
            raise ConventionError("target indices must be letters, not digits")
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
        result_slots = tuple([spec.variance for spec in target.indices])
    require_storable(dim, len(free_letters))

    terms = []
    for factors, coefficient, letters, prep, naive in lowered:
        steps, output_axes, cost, largest = _schedule(
            letters, free_letters, dim, _first_pair
        )
        terms.append((factors, steps, output_axes, coefficient,
                      (letters, prep, naive, cost, largest)))
    return ContractionPlan(
        mode, dim, result_slots, term_weights[0], free_letters,
        MappingProxyType(signatures), tuple(terms),
    )


def _first_pair(items: list[tuple[str, ...]], dim: int) -> tuple[int, int]:
    """The written schedule's pick: left to right."""
    return 0, 1


def _smallest_pair(items: list[tuple[str, ...]], dim: int) -> tuple[int, int]:
    """The pair whose result has the fewest components; ties go to the first."""
    best = (0, 1)
    if len(items) > 2:
        fewest = None
        for pair in itertools.combinations(range(len(items)), 2):
            left, right = items[pair[0]], items[pair[1]]
            size = dim ** (len(left) + len(right) - 2 * len(set(left).intersection(right)))
            if fewest is None or size < fewest:
                best, fewest = pair, size
    return best


def _perm(letters: tuple[str, ...], order: tuple[str, ...]) -> tuple[int, ...] | None:
    """The transpose taking axes named ``letters`` into ``order``; None for
    the identity."""
    return None if order == letters else tuple(map(letters.index, order))


def _schedule(
    letters: tuple[tuple[str, ...], ...],
    free_letters: tuple[str, ...],
    dim: int,
    pick: Callable[[list[tuple[str, ...]], int], tuple[int, int]],
) -> tuple[tuple[tuple, ...], tuple[int, ...] | None, int, int]:
    """Contract the pairs ``pick`` chooses among factors with open
    ``letters``; return the replay's steps, the output transpose, the cost
    of the steps and the largest step product.

    Each step contracts working items ``left`` and ``right`` (left < right)
    as one matrix product.  ``left_perm`` moves the left item's shared
    letters last and ``right_perm`` moves the right item's shared letters
    first, in the same order (None when the item is already in that order).
    The operands are then reshaped to ``(d**m, d**k)`` and ``(d**k, d**n)``,
    except that a side sharing ``k > 0`` letters and keeping none is the 1-D
    vector ``(d**k,)``, which numpy's BLAS dispatch takes as it takes a
    ``(1, d**k)`` row or a ``(d**k, 1)`` column, so the bytes are those of
    the 2-D product.  An outer product has ``k = 0``, so its inner axis has
    length 1, and a side that shares and keeps nothing is ``(1, 1)``.  The
    product, reshaped to the result's ``(d,) * (m + n)``, replaces position
    ``left`` and position ``right`` is removed.  A step costs
    ``dim ** |letter union|`` multiply-adds.
    """
    items = list(letters)
    steps = []
    cost = largest = 0
    while len(items) > 1:
        i, j = pick(items, dim)
        left, right = items[i], items[j]
        shared = tuple([l for l in left if l in right])
        kept_left, kept_right = left, right
        if shared:
            kept_left = tuple([l for l in left if l not in right])
            kept_right = tuple([l for l in right if l not in left])
        inner = dim ** len(shared)
        # a side that keeps no letter but shares one is a vector, so the
        # product is A.dot(x) or x.dot(w) with no reshape
        left_shape = (dim ** len(kept_left), inner) if kept_left or not shared else (inner,)
        right_shape = (inner, dim ** len(kept_right)) if kept_right or not shared else (inner,)
        result = kept_left + kept_right
        result_shape = (dim,) * len(result)
        steps.append((
            i, j,
            _perm(left, kept_left + shared),
            None if left_shape == (dim,) * len(left) else left_shape,
            _perm(right, shared + kept_right),
            None if right_shape == (dim,) * len(right) else right_shape,
            None if left_shape[:-1] + right_shape[1:] == result_shape else result_shape,
        ))
        cost += dim ** (len(left) + len(kept_right))
        largest = max(largest, dim ** len(result))
        items[i] = result
        del items[j]
    return tuple(steps), _perm(items[0], free_letters), cost, largest


@functools.lru_cache(maxsize=CACHE_SIZE)
def order_contractions(plan: ContractionPlan) -> ContractionPlan:
    """Reschedule every term by the greedy smallest-result rule, keeping the
    term's given schedule when that one is cheaper.

    A schedule with a step beyond ``MAX_COMPONENTS`` ranks last, and a tie
    goes to the greedy one, so the plan's ``total_cost`` never rises.  A
    term with fewer than three factors has only one schedule, and a term
    whose greedy schedule is the one it has (compared by content) is kept
    as it is.  Pure: returns the plan itself when no term's schedule
    changes, else a new plan; values are unchanged, only the cost model.
    Memoized on the plan object.  Raises ShapeError for a ``plan`` that is
    not a ContractionPlan; an unhashable one fails in the cache with
    ``TypeError``.
    """
    if not isinstance(plan, ContractionPlan):
        raise ShapeError(f"plan must be a ContractionPlan, got {type(plan).__name__}")
    terms = plan.terms
    for k, (factors, steps, _, coefficient, schedule) in enumerate(plan.terms):
        if len(factors) > 2:
            letters, prep, naive, cost, largest = schedule
            greedy, output_axes, greedy_cost, greedy_largest = _schedule(
                letters, plan.free_letters, plan.dim, _smallest_pair
            )
            # equal steps make equal items, so an equal output transpose
            if greedy != steps and (greedy_largest > MAX_COMPONENTS, greedy_cost) <= (
                largest > MAX_COMPONENTS, cost
            ):
                term = (factors, greedy, output_axes, coefficient,
                        (letters, prep, naive, greedy_cost, greedy_largest))
                terms = terms[:k] + (term,) + terms[k + 1:]
    if terms is plan.terms:
        return plan
    return ContractionPlan(
        plan.mode, plan.dim, plan.result_slots, plan.weight, plan.free_letters,
        plan.signatures, terms,
    )
