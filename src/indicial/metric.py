"""Positive-definite metrics: raising, lowering, products, cross products.

The metric is a symmetric rank-(2,0) object g with a cached inverse.  The
Levi-Civita tensor (dim 3) rescales the permutation symbol by sqrt(det g),
which makes the cross and triple products below frame-covariant formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConventionError, DefinitenessError, ShapeError
from .objects import (
    DEFAULT_SYMMETRY_TOL,
    DOWN,
    UP,
    TensorObject,
    Variance,
    _frozen,
    new_object,
    require_vector,
)
from .symbols import levi_civita_symbol

# leading principal minors must exceed this for positive-definiteness
MINOR_TOL = 1e-12


@dataclass(frozen=True)
class Metric:
    """A symmetric positive-definite metric and its cached inverse."""

    g: TensorObject
    g_inv: TensorObject
    det_g: float

    @property
    def dim(self) -> int:
        return self.g.dim


def metric_from_tensor(g: TensorObject | Sequence[Sequence[float]]) -> Metric:
    """Validate symmetry and positive-definiteness, cache inverse and det."""
    if not isinstance(g, TensorObject):
        arr = np.asarray(g, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ShapeError(f"metric matrix must be square, got shape {arr.shape}")
        g = new_object(arr.shape[0], (DOWN, DOWN), 0, arr)
    elif g.slots != (DOWN, DOWN):
        raise ShapeError(f"metric needs slots (down, down), got {g!r}")
    m = g.components
    # every comparison with NaN is False, so the checks below would pass it
    if not np.isfinite(m).all():
        raise DefinitenessError("metric components must be finite")
    if float(np.max(np.abs(m - m.T))) > DEFAULT_SYMMETRY_TOL:
        raise DefinitenessError("metric must be symmetric")
    minors = [float(np.linalg.det(m[:k, :k])) for k in range(1, g.dim + 1)]
    if any(minor <= MINOR_TOL for minor in minors):
        raise DefinitenessError(
            f"metric is not positive-definite: leading minors {minors}"
        )
    g_inv = new_object(g.dim, (UP, UP), 0, np.linalg.inv(m))
    return Metric(g, g_inv, minors[-1])


def metric_from_basis(basis: Sequence[TensorObject]) -> Metric:
    """Gram matrix of basis vectors given in ambient orthonormal coordinates.

    A linearly dependent basis fails the positive-definiteness check.
    """
    if not basis:
        raise ShapeError("empty basis")
    dim = len(basis)
    rows = np.stack([require_vector(e, dim, "basis vector") for e in basis])
    with np.errstate(over="ignore"):  # an overflowing Gram matrix is rejected as non-finite
        gram = rows @ rows.T
    return metric_from_tensor(new_object(dim, (DOWN, DOWN), 0, gram))


def orthonormal_metric(dim: int = 3) -> Metric:
    return metric_from_tensor(new_object(dim, (DOWN, DOWN), 0, np.eye(dim)))


def lower_index(t: TensorObject, slot: int, m: Metric) -> TensorObject:
    """Contract an upper slot with g, leaving it lower in place."""
    return _move_index(t, slot, m.g.components, UP, DOWN)


def raise_index(t: TensorObject, slot: int, m: Metric) -> TensorObject:
    """Contract a lower slot with the inverse metric, leaving it upper."""
    return _move_index(t, slot, m.g_inv.components, DOWN, UP)


def _move_index(
    t: TensorObject,
    slot: int,
    matrix: np.ndarray,
    before: Variance,
    after: Variance,
) -> TensorObject:
    if not 0 <= slot < t.rank:
        raise ShapeError(f"slot {slot} outside 0..{t.rank - 1}")
    if t.dim != matrix.shape[0]:
        raise ShapeError(f"object has dim {t.dim}, metric has dim {matrix.shape[0]}")
    if t.slots[slot] is not before:
        raise ConventionError(
            f"slot {slot} is {t.slots[slot].value}, expected {before.value}"
        )
    arr = np.moveaxis(np.tensordot(t.components, matrix, axes=([slot], [1])), -1, slot)
    slots = t.slots[:slot] + (after,) + t.slots[slot + 1 :]
    return TensorObject(t.dim, slots, t.weight, _frozen(np.asarray(arr, order="C")))


def inner(x: TensorObject, y: TensorObject, m: Metric) -> float:
    """Scalar product g_rs x^r y^s of two contravariant vectors."""
    xv = require_vector(x, m.dim)
    yv = require_vector(y, m.dim)
    return float(xv @ m.g.components @ yv)


def levi_civita_tensor(m: Metric, variance: Variance) -> TensorObject:
    """The weight-0 epsilon tensor for a dim-3 metric.

    All-lower components are sqrt(det g) times the permutation symbol;
    all-upper components divide by sqrt(det g).
    """
    if m.dim != 3:
        raise ShapeError(f"the epsilon tensor is provided for dim 3 only, got {m.dim}")
    sym = levi_civita_symbol(3, variance)
    root = math.sqrt(m.det_g)
    factor = root if variance is DOWN else 1.0 / root
    return new_object(3, sym.slots, 0, sym.components * factor)


def cross(x: TensorObject, y: TensorObject, m: Metric) -> TensorObject:
    """Cross product z^r = eps^{rmn} g_ms g_nt x^s y^t (dim 3)."""
    if m.dim != 3:
        raise ShapeError(f"cross product is dim-3 only, got metric dim {m.dim}")
    xl = m.g.components @ require_vector(x, m.dim)
    yl = m.g.components @ require_vector(y, m.dim)
    eps_up = levi_civita_tensor(m, UP).components
    z = np.einsum("rmn,m,n->r", eps_up, xl, yl)
    return new_object(3, (UP,), x.weight + y.weight, z)


def triple(x: TensorObject, y: TensorObject, z: TensorObject, m: Metric) -> float:
    """Triple product eps^{mnp} g_mr g_ns g_pt x^r y^s z^t (dim 3)."""
    if m.dim != 3:
        raise ShapeError(f"triple product is dim-3 only, got metric dim {m.dim}")
    xl = m.g.components @ require_vector(x, m.dim)
    yl = m.g.components @ require_vector(y, m.dim)
    zl = m.g.components @ require_vector(z, m.dim)
    eps_up = levi_civita_tensor(m, UP).components
    return float(np.einsum("mnp,m,n,p->", eps_up, xl, yl, zl))


def random_metric(rng: np.random.Generator, dim: int = 3, min_det: float = 0.1) -> Metric:
    """Test helper: Gram metric of a random well-conditioned basis."""
    while True:
        rows = rng.uniform(-1.0, 1.0, size=(dim, dim))
        if abs(np.linalg.det(rows)) >= min_det:
            basis = [new_object(dim, (UP,), 0, rows[r]) for r in range(dim)]
            return metric_from_basis(basis)
