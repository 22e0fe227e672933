"""Dense coordinate objects of rank (m, n) and the pointwise algebra on them.

Components are float64 in a numpy array of shape ``(dim,) * rank`` in C
order, so the flat layout is lexicographic with slot 0 outermost.  Index
values are 1-based at the API surface; slot positions are 0-based.  Objects
are immutable (the backing array is marked read-only) and every operation
is a pure function, so values can be shared freely across threads.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import AddressingError, ConventionError, ShapeError

# dense storage cap: dim ** rank may not exceed this
MAX_COMPONENTS = 10_000_000

DEFAULT_SYMMETRY_TOL = 1e-12


class Variance(enum.Enum):
    """Whether an index slot is contravariant (upper) or covariant (lower)."""

    UP = "up"
    DOWN = "down"

    # members compare by identity; Enum's own hash runs in Python, and slot
    # tuples are hashed on every cached parse and validate
    __hash__ = object.__hash__


UP = Variance.UP
DOWN = Variance.DOWN

# slots of a mixed rank-(1,1) object: the upper slot indexes rows
MIXED_SLOTS = (UP, DOWN)


class Symmetry(enum.Enum):
    SYMMETRIC = "symmetric"
    ANTISYMMETRIC = "antisymmetric"
    NEITHER = "neither"


@dataclass(frozen=True, eq=False)
class TensorObject:
    """An immutable dense object with a fixed slot signature and weight.

    ``slots`` fixes the number, order and variance of the index slots;
    ``weight`` is the integer pseudotensor weight used by frame
    transformations.  ``components`` has shape ``(dim,) * len(slots)``.
    """

    dim: int
    slots: tuple[Variance, ...]
    weight: int
    components: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.slots)

    @property
    def n_upper(self) -> int:
        return sum(1 for s in self.slots if s is UP)

    @property
    def n_lower(self) -> int:
        return sum(1 for s in self.slots if s is DOWN)

    def component(self, idx: Sequence[int]) -> float:
        """Return one component by 1-based multi-index."""
        idx = tuple(idx)
        if len(idx) != self.rank:
            raise AddressingError(
                f"multi-index length {len(idx)} does not match rank {self.rank}"
            )
        for v in idx:
            if not is_index_value(v) or not 1 <= v <= self.dim:
                raise AddressingError(
                    f"index value {v!r} outside 1..{self.dim}"
                )
        return float(self.components[tuple(v - 1 for v in idx)])

    def as_scalar(self) -> float:
        if self.rank != 0:
            raise ShapeError(f"rank-{self.rank} object is not a scalar")
        return float(self.components)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorObject):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.slots == other.slots
            and self.weight == other.weight
            and bool(np.array_equal(self.components, other.components))
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        sig = "".join("u" if s is UP else "d" for s in self.slots)
        return (
            f"TensorObject(dim={self.dim}, slots={sig or 'scalar'}, "
            f"weight={self.weight})"
        )


def new_object(
    dim: int,
    slots: Iterable[Variance],
    weight: int,
    components: object,
) -> TensorObject:
    """Build a TensorObject, validating shape and freezing the array.

    ``components`` may be a flat sequence of length ``dim ** rank``, a
    nested structure, or an ndarray of the target shape.
    """
    slots = tuple(slots)
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ShapeError(f"dim must be a positive integer, got {dim!r}")
    for s in slots:
        if not isinstance(s, Variance):
            raise ShapeError(f"slot {s!r} is not a Variance")
    if not isinstance(weight, int) or isinstance(weight, bool):
        raise ShapeError(f"weight must be an integer, got {weight!r}")
    size = require_storable(dim, len(slots))
    arr = np.asarray(components, dtype=np.float64)
    shape = (dim,) * len(slots)
    if arr.shape != shape:
        if arr.ndim == 1 and arr.size == size:
            arr = arr.reshape(shape)
        else:
            raise ShapeError(
                f"expected {size} components for dim {dim} rank {len(slots)}, "
                f"got shape {arr.shape} ({arr.size} values)"
            )
    else:
        arr = arr.copy()
    arr.setflags(write=False)
    return TensorObject(dim, slots, weight, arr)


def zeros(dim: int, slots: Iterable[Variance], weight: int = 0) -> TensorObject:
    slots = tuple(slots)
    return new_object(dim, slots, weight, np.zeros((dim,) * len(slots)))


def _require_same_signature(a: TensorObject, b: TensorObject) -> None:
    if a.dim != b.dim:
        raise ShapeError(f"dim mismatch: {a.dim} vs {b.dim}")
    if a.slots != b.slots:
        raise ShapeError(f"slot signature mismatch: {a!r} vs {b!r}")
    if a.weight != b.weight:
        raise ShapeError(f"weight mismatch: {a.weight} vs {b.weight}")


def add(a: TensorObject, b: TensorObject) -> TensorObject:
    """Componentwise sum; signatures (dim, slots, weight) must match."""
    _require_same_signature(a, b)
    return TensorObject(a.dim, a.slots, a.weight, _frozen(a.components + b.components))


def scale(a: TensorObject, k: float) -> TensorObject:
    """Multiply every component by the real number k."""
    return TensorObject(a.dim, a.slots, a.weight, _frozen(a.components * float(k)))


def outer_product(a: TensorObject, b: TensorObject) -> TensorObject:
    """Tensor product: slots concatenate, weights add."""
    if a.dim != b.dim:
        raise ShapeError(f"dim mismatch: {a.dim} vs {b.dim}")
    require_storable(a.dim, a.rank + b.rank)
    arr = np.multiply.outer(a.components, b.components)
    return TensorObject(a.dim, a.slots + b.slots, a.weight + b.weight, _frozen(arr))


def is_index_value(v: object) -> bool:
    """True for any integer (numpy integers included) except a bool."""
    # the exact-type test is the fast path; an ABC check costs ~0.5 us
    return type(v) is int or (
        isinstance(v, numbers.Integral) and not isinstance(v, bool)
    )


def require_storable(dim: int, rank: int) -> int:
    """``dim ** rank``; ShapeError when it exceeds the dense storage cap."""
    size = dim ** rank
    if size > MAX_COMPONENTS:
        raise ShapeError(
            f"dense storage cap exceeded: dim**rank = {size} > {MAX_COMPONENTS}"
        )
    return size


def require_vector(x: object, dim: int, what: str = "vector") -> np.ndarray:
    """Components of ``x`` if it is a rank-(0,1) dim-``dim`` object."""
    if not isinstance(x, TensorObject) or x.slots != (UP,):
        raise ShapeError(f"{what} must be a rank-(0,1) object, got {x!r}")
    if x.dim != dim:
        raise ShapeError(f"{what} has dim {x.dim}, expected {dim}")
    return x.components


def _check_slot(t: TensorObject, pos: int) -> None:
    if not isinstance(pos, int) or isinstance(pos, bool) or not 0 <= pos < t.rank:
        raise AddressingError(f"slot position {pos!r} outside 0..{t.rank - 1}")


def contract(t: TensorObject, up_slot: int, down_slot: int) -> TensorObject:
    """Sum over a paired upper and lower slot (the summation convention).

    ``up_slot`` must be contravariant and ``down_slot`` covariant; both are
    removed from the signature.  The weight is unchanged.
    """
    _check_slot(t, up_slot)
    _check_slot(t, down_slot)
    if up_slot == down_slot:
        raise AddressingError("contraction needs two distinct slots")
    if t.slots[up_slot] is not UP or t.slots[down_slot] is not DOWN:
        raise ConventionError(
            "contraction pairs one upper and one lower slot; got "
            f"{t.slots[up_slot].value} at {up_slot} and "
            f"{t.slots[down_slot].value} at {down_slot}"
        )
    arr = np.trace(t.components, axis1=up_slot, axis2=down_slot)
    slots = tuple(s for k, s in enumerate(t.slots) if k not in (up_slot, down_slot))
    return TensorObject(t.dim, slots, t.weight, _frozen(np.asarray(arr)))


def swap_slots(t: TensorObject, i: int, j: int) -> TensorObject:
    """Exchange two slots of equal variance."""
    _check_slot(t, i)
    _check_slot(t, j)
    if t.slots[i] is not t.slots[j]:
        raise ConventionError(
            f"cannot swap slots of different variance "
            f"({t.slots[i].value} at {i}, {t.slots[j].value} at {j})"
        )
    if i == j:
        return t
    return TensorObject(
        t.dim, t.slots, t.weight, _frozen(np.swapaxes(t.components, i, j))
    )


def symmetry_check(
    t: TensorObject, i: int, j: int, tol: float = DEFAULT_SYMMETRY_TOL
) -> Symmetry:
    """Classify the slot pair (i, j) as symmetric, antisymmetric, or neither.

    Comparison is absolute with the given tolerance.  The zero object
    satisfies both conditions and reports SYMMETRIC.
    """
    _check_slot(t, i)
    _check_slot(t, j)
    if t.slots[i] is not t.slots[j]:
        raise ConventionError("symmetry is only defined for slots of equal variance")
    swapped = np.swapaxes(t.components, i, j)
    if float(np.max(np.abs(t.components - swapped), initial=0.0)) <= tol:
        return Symmetry.SYMMETRIC
    if float(np.max(np.abs(t.components + swapped), initial=0.0)) <= tol:
        return Symmetry.ANTISYMMETRIC
    return Symmetry.NEITHER


def symmetrize(t: TensorObject, i: int, j: int) -> TensorObject:
    """Return the symmetric part over the slot pair (i, j)."""
    return scale(add(t, swap_slots(t, i, j)), 0.5)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr
