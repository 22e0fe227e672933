"""Dense coordinate objects of rank (m, n) and the pointwise algebra on them.

Components are float64 in a numpy array of shape ``(dim,) * rank`` in C
order, so the flat layout is lexicographic with slot 0 outermost.  Index
values are 1-based at the API surface; slot positions are 0-based.  Both
accept any integer, numpy integers included, except a bool.  Objects
are immutable: ``TensorObject`` stores its four fields in ``__slots__`` and
refuses assignment and deletion, and the backing array is marked read-only.
Three builders apply that storage rule.  ``new_object`` is the one for
caller data: it validates and always copies its input, so an object never
shares memory with the caller's array.  ``_result`` is the one for an array
the library has just computed: it freezes that array in place, after an
``np.asarray`` that makes a view C-ordered.  ``_fresh_result`` freezes, as
it is, an array known to be fresh and C-ordered: a LAPACK inverse, a 2-D
BLAS product, or the one private copy that ``matrix_object`` reads a square
array-like into.  ``execute`` freezes a fresh product of its plan the same
way, inline.  Pickling and copying rebuild through ``new_object``.  The
geometry modules multiply operands of at most two axes with
``ndarray.dot`` from dim 2 up, the same BLAS call and bits as ``@`` at
about half the per-call cost, and keep ``@`` for stacks and at dim 1 (see
``frames``).  Every operation is a pure function, so values can be
shared freely across threads.  The geometry modules share three rules from
here: ``_read_array`` (every array a caller passes), ``_read_number`` (a
real number, read as ``float(value)``) and ``_scale`` (max |entry|).
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import FrozenInstanceError
from typing import Iterable, Sequence

import numpy as np

from .errors import AddressingError, ConventionError, ShapeError

# dense storage cap: dim ** rank may not exceed this
MAX_COMPONENTS = 10_000_000
# slot cap: numpy 1.x arrays have at most 32 dimensions (2.x: 64)
MAX_RANK = 32

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


class TensorObject:
    """An immutable dense object with a fixed slot signature and weight.

    ``slots`` fixes the number, order and variance of the index slots;
    ``weight`` is the integer pseudotensor weight used by frame
    transformations.  ``components`` has shape ``(dim,) * len(slots)``.
    The constructor trusts its arguments; ``new_object`` validates them.
    """

    # fixed fields, set once in __init__ through the slot descriptors;
    # assigning or deleting one afterwards raises FrozenInstanceError
    __slots__ = ("dim", "slots", "weight", "components", "__weakref__")

    dim: int
    slots: tuple[Variance, ...]
    weight: int
    components: np.ndarray

    def __init__(
        self,
        dim: int,
        slots: tuple[Variance, ...],
        weight: int,
        components: np.ndarray,
    ) -> None:
        _set_dim(self, dim)
        _set_slots(self, slots)
        _set_weight(self, weight)
        _set_components(self, components)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[object, tuple[object, ...]]:
        # pickle and copy rebuild through new_object, not through setattr, so
        # the rebuilt object holds a fresh read-only array
        return (new_object, (self.dim, self.slots, self.weight, self.components))

    @property
    def rank(self) -> int:
        return len(self.slots)

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


_set_dim = TensorObject.dim.__set__  # type: ignore[attr-defined]
_set_slots = TensorObject.slots.__set__  # type: ignore[attr-defined]
_set_weight = TensorObject.weight.__set__  # type: ignore[attr-defined]
_set_components = TensorObject.components.__set__  # type: ignore[attr-defined]
_FLOAT64 = np.dtype(np.float64)


def new_object(
    dim: int,
    slots: Iterable[Variance],
    weight: int,
    components: object,
) -> TensorObject:
    """Build a TensorObject, validating shape and freezing a private copy.

    ``components`` may be a flat sequence of length ``dim ** rank``, a
    nested structure, or an ndarray of the target shape.  It is always
    copied, so the object never shares memory with the caller's array.
    """
    slots = tuple(slots)
    # the exact-type tests are the fast path; require_signature behind them
    # decides and words every rejection
    if type(dim) is not int or dim < 1 or type(weight) is not int:
        require_signature(dim, slots, weight)
    for s in slots:
        if s is not UP and s is not DOWN:
            require_signature(dim, slots, weight)
    rank = len(slots)
    # require_storable's test inline, on the same bounded power; it
    # decides and words every refusal
    size = dim ** rank if dim <= MAX_COMPONENTS and rank <= MAX_RANK else MAX_COMPONENTS + 1
    if size > MAX_COMPONENTS:
        size = require_storable(dim, rank)
    # the reader's fast path inline, so a float64 ndarray pays no extra call
    fast = type(components) is np.ndarray and components.dtype is _FLOAT64
    arr = components.copy() if fast else _read_array(components, "components")
    shape = (dim,) * rank
    if arr.shape != shape:
        if arr.ndim == 1 and arr.size == size:
            arr = arr.reshape(shape)
        else:
            raise ShapeError(
                f"expected {size} components for dim {dim} rank {rank}, "
                f"got shape {arr.shape} ({arr.size} values)"
            )
    arr.setflags(False)  # write=False, passed positionally: no keyword parsing
    return TensorObject(dim, slots, weight, arr)


def _result(
    dim: int, slots: tuple[Variance, ...], weight: int, arr: object
) -> TensorObject:
    """An object holding ``arr``, an array the library has just computed.

    ``np.asarray(order="C")`` copies only a view that is not C-ordered, and
    turns a numpy scalar or a list into an array, keeping rank 0 as rank 0
    (``np.ascontiguousarray`` would promote it to shape (1,)).  The array is
    then frozen in place, so ``arr`` must be fresh or already read-only.
    """
    arr = np.asarray(arr, order="C")
    arr.setflags(False)
    return TensorObject(dim, slots, weight, arr)


def _fresh_result(
    dim: int, slots: tuple[Variance, ...], weight: int, arr: np.ndarray
) -> TensorObject:
    """An object holding ``arr``, a C-ordered ndarray that the library has
    just allocated and that nothing else holds (a LAPACK or BLAS output, or
    a private copy): frozen in place, without ``_result``'s ``np.asarray``,
    which would hand such an array back as itself."""
    arr.setflags(False)
    return TensorObject(dim, slots, weight, arr)


def _read_array(x: object, what: str) -> np.ndarray:
    """A caller's array-like as float64: an exact float64 ndarray as itself,
    else a fresh C-ordered array.  ShapeError when it is non-numeric or ragged,
    or holds None (numpy reads NaN) or an int beyond float64 (OverflowError)."""
    if type(x) is np.ndarray and x.dtype is _FLOAT64:
        return x
    try:
        arr = np.array(x, dtype=np.float64, order="C")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ShapeError(f"{what} must be a rectangular array of numbers ({exc})") from None
    # None reads as NaN: look for it only in Python objects after a non-finite sum
    if (
        (not isinstance(x, np.ndarray) or x.dtype.hasobject)
        and not math.isfinite(sum(arr.ravel().tolist()))
        and None in np.array(x, dtype=object).ravel().tolist()
    ):
        raise ShapeError(f"{what} must be a rectangular array of numbers, not None")
    return arr


def matrix_object(
    x: object, slots: tuple[Variance, Variance], what: str
) -> TensorObject:
    """A rank-2 object with ``slots``: a TensorObject with exactly those
    slots as it is, or a square array-like as the weight-0 components, read
    into one private C-ordered float64 copy."""
    if isinstance(x, TensorObject):
        if x.slots != slots:
            names = ", ".join(s.value for s in slots)
            raise ShapeError(f"{what} needs slots ({names}), got {x!r}")
        return x
    arr = _read_array(x, what)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"{what} must be square, got shape {arr.shape}")
    dim = arr.shape[0]
    if dim == 0:
        require_signature(dim, slots, 0)  # words the rejection of 0 x 0
    require_storable(dim, 2)
    # the reader hands a float64 ndarray back as itself: copy the caller's array
    return _fresh_result(dim, slots, 0, arr.copy() if arr is x else arr)


def require_signature(dim: object, slots: tuple, weight: object) -> None:
    """Raise ShapeError unless dim is a positive int, every slot a Variance
    and weight an int (bools are not integers here)."""
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ShapeError(f"dim must be a positive integer, got {dim!r}")
    for s in slots:
        if not isinstance(s, Variance):
            raise ShapeError(f"slot {s!r} is not a Variance")
    if not isinstance(weight, int) or isinstance(weight, bool):
        raise ShapeError(f"weight must be an integer, got {weight!r}")


def zeros(dim: int, slots: Iterable[Variance], weight: int = 0) -> TensorObject:
    slots = tuple(slots)
    # checked before np.zeros, which would allocate past the cap or fail
    # with its own error on a bad dim
    require_signature(dim, slots, weight)
    require_storable(dim, len(slots))
    return _result(dim, slots, weight, np.zeros((dim,) * len(slots)))


def _frozen_eye(dim: int) -> np.ndarray:
    eye = np.eye(dim)
    eye.setflags(False)
    return eye


# one read-only identity per dim up to 16, shared by every caller (12 kB in all)
_IDENTITIES = tuple(_frozen_eye(d) for d in range(17))


def _identity(dim: int) -> np.ndarray:
    """The read-only dim x dim identity: a shared one up to dim 16, a fresh
    one above, so that the shared ones stay small."""
    return _IDENTITIES[dim] if dim < len(_IDENTITIES) else _frozen_eye(dim)


def _identity_object(dim: int, slots: tuple[Variance, Variance]) -> TensorObject:
    """The weight-0 identity with ``slots``; a bad or over-cap dim raises
    ShapeError before anything is allocated."""
    require_signature(dim, slots, 0)
    require_storable(dim, 2)
    return _result(dim, slots, 0, _identity(dim))


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
    return _result(a.dim, a.slots, a.weight, a.components + b.components)


def scale(a: TensorObject, k: float) -> TensorObject:
    """Multiply every component by the real number k, read by ``_read_number``."""
    return _result(a.dim, a.slots, a.weight, a.components * _read_number(k, "scale factor"))


def _read_number(value: object, what: str) -> float:
    """``float(value)``; an int beyond float64 reads as +-inf, like ``1e400``,
    and a value ``float`` cannot read raises ShapeError."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf
    except (TypeError, ValueError):
        raise ShapeError(f"{what} must be a real number, got {value!r}") from None


def outer_product(a: TensorObject, b: TensorObject) -> TensorObject:
    """Tensor product: slots concatenate, weights add."""
    if a.dim != b.dim:
        raise ShapeError(f"dim mismatch: {a.dim} vs {b.dim}")
    require_storable(a.dim, a.rank + b.rank)
    arr = np.multiply.outer(a.components, b.components)
    return _result(a.dim, a.slots + b.slots, a.weight + b.weight, arr)


def is_index_value(v: object) -> bool:
    """True for any integer (numpy integers included) except a bool."""
    # the exact-type test is the fast path; an ABC check costs ~0.5 us
    return type(v) is int or (
        isinstance(v, numbers.Integral) and not isinstance(v, bool)
    )


def require_storable(dim: int, rank: int) -> int:
    """``dim ** rank``; ShapeError when it exceeds the dense storage cap or
    ``rank`` exceeds the slot cap, or when ``dim`` exceeds the storage cap.

    The storage cap binds first, so the slot cap alone refuses at dim 1.
    The power is computed only with dim and rank within both caps, so it
    never exceeds ``MAX_COMPONENTS ** MAX_RANK``.  Past either cap at
    dim >= 2 the power is past the storage cap, since ``MAX_COMPONENTS``
    is below ``2 ** (MAX_RANK + 1)``, and that refusal names the rank, not
    a power that can be too long for Python to format.  A dim past the
    storage cap is refused at rank 0 as well, although such an object would
    store one component: no object of rank 1 or more can have that dim, and
    a message that formats it could be too long for Python to format.
    """
    if dim <= MAX_COMPONENTS and rank <= MAX_RANK:
        size = dim ** rank
        if size > MAX_COMPONENTS:
            raise ShapeError(
                f"dense storage cap exceeded: dim**rank = {size} > {MAX_COMPONENTS}"
            )
        return size
    if dim > 1 and rank > 0:
        raise ShapeError(
            f"dense storage cap exceeded: dim**rank > {MAX_COMPONENTS} at rank {rank}"
        )
    if rank > MAX_RANK:
        raise ShapeError(f"rank {rank} exceeds the slot cap of {MAX_RANK}")
    raise ShapeError(f"dense storage cap exceeded: dim > {MAX_COMPONENTS} at rank 0")


def require_vector(x: object, dim: int, what: str = "vector") -> np.ndarray:
    """Components of ``x`` if it is a rank-(0,1) dim-``dim`` object."""
    if not isinstance(x, TensorObject) or x.slots != (UP,):
        raise ShapeError(f"{what} must be a rank-(0,1) object, got {x!r}")
    if x.dim != dim:
        raise ShapeError(f"{what} has dim {x.dim}, expected {dim}")
    return x.components


def _check_slot(t: TensorObject, pos: int) -> None:
    if not is_index_value(pos) or not 0 <= pos < t.rank:
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
    arr = _trace(t.components, up_slot, down_slot)
    slots = tuple(s for k, s in enumerate(t.slots) if k not in (up_slot, down_slot))
    return _result(t.dim, slots, t.weight, arr)


_add_reduce = np.add.reduce
_max_reduce = np.maximum.reduce


def _scale(m: np.ndarray) -> float:
    """max |entry|, NaN if an entry is NaN: the reduction ``ndarray.max``
    runs, without its Python wrapper."""
    return float(_max_reduce(np.abs(m), None))


def _trace(arr: np.ndarray, a: int, b: int) -> np.ndarray | np.float64:
    """``np.trace(arr, axis1=a, axis2=b)`` without its Python wrapper.

    ``ndarray.trace`` runs this same ``add.reduce`` over the last axis of
    the diagonal view in C, so the bits are the same.  Rank 2 gives a numpy
    scalar, as ``np.trace`` does.
    """
    return _add_reduce(arr.diagonal(0, a, b), -1)


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
    return _result(t.dim, t.slots, t.weight, t.components.swapaxes(i, j))


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
    swapped = t.components.swapaxes(i, j)
    # a difference or sum beyond float64 is a miss, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if _scale(t.components - swapped) <= tol:
            return Symmetry.SYMMETRIC
        if _scale(t.components + swapped) <= tol:
            return Symmetry.ANTISYMMETRIC
    return Symmetry.NEITHER


def symmetrize(t: TensorObject, i: int, j: int) -> TensorObject:
    """Return the symmetric part over the slot pair (i, j)."""
    return scale(add(t, swap_slots(t, i, j)), 0.5)
