"""Numeric index symbols: Kronecker deltas and Levi-Civita symbols."""

from __future__ import annotations

import enum
import functools
import itertools
from typing import Sequence

import numpy as np

from .errors import AddressingError, ShapeError
from .objects import (
    DOWN,
    MIXED_SLOTS,
    UP,
    TensorObject,
    Variance,
    _result,
    is_index_value,
    new_object,
)


class KroneckerKind(enum.Enum):
    """Slot signature of a Kronecker delta."""

    LOWER_LOWER = (DOWN, DOWN)
    UPPER_UPPER = (UP, UP)
    MIXED = MIXED_SLOTS  # upper slot first, matching the row/column convention


def permutation_sign(idx: Sequence[int], dim: int | None = None) -> int:
    """Sign of a multi-index: +1/-1 by inversion parity, 0 on any repeat.

    Entries must lie in 1..dim; ``dim`` defaults to ``len(idx)``.
    """
    idx = tuple(idx)
    bound = len(idx) if dim is None else dim
    for v in idx:
        if not is_index_value(v) or not 1 <= v <= bound:
            raise AddressingError(f"index value {v!r} outside 1..{bound}")
    if len(set(idx)) != len(idx):
        return 0
    inversions = 0
    for a, b in itertools.combinations(idx, 2):
        if a > b:
            inversions += 1
    return -1 if inversions % 2 else 1


def kronecker(dim: int, kind: KroneckerKind) -> TensorObject:
    """Kronecker delta of the requested variance signature (weight 0)."""
    if not isinstance(kind, KroneckerKind):
        raise ShapeError(f"{kind!r} is not a KroneckerKind")
    return new_object(dim, kind.value, 0, np.eye(dim))


@functools.lru_cache(maxsize=None)  # called with dims 1..6 only
def _signed_permutations(dim: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """``(sign, zero-based permutation)`` of 1..dim, in itertools order.

    The one table of permutation signs behind the symbols and the small
    determinant.
    """
    return tuple(
        (permutation_sign(perm, dim), tuple(v - 1 for v in perm))
        for perm in itertools.permutations(range(1, dim + 1))
    )


def levi_civita_symbol(dim: int, variance: Variance) -> TensorObject:
    """Rank-``dim`` permutation symbol.

    Components are the permutation signs of the multi-index.  The all-lower
    symbol carries weight -1 and the all-upper symbol weight +1, which makes
    both invariant under the weighted transformation law.  Repeat calls
    return the same immutable object.
    """
    if not isinstance(variance, Variance):
        raise ShapeError(f"{variance!r} is not a Variance")
    if not isinstance(dim, int) or isinstance(dim, bool) or not 1 <= dim <= 6:
        raise ShapeError(f"permutation symbol supports dim 1..6, got {dim!r}")
    return _levi_civita_symbol(dim, variance)


# behind the checks above: True == 1 and hash(True) == hash(1), so a bool
# dim would otherwise hit the dim-1 entry
@functools.lru_cache(maxsize=None)
def _levi_civita_symbol(dim: int, variance: Variance) -> TensorObject:
    arr = np.zeros((dim,) * dim)
    for sign, perm in _signed_permutations(dim):
        arr[perm] = sign
    weight = 1 if variance is UP else -1
    return _result(dim, (variance,) * dim, weight, arr)
