"""Positive-definite metrics: raising, lowering, products, cross products.

The metric is a symmetric rank-(2,0) object g with a cached inverse.  The
Levi-Civita tensor (dim 3) rescales the permutation symbol by sqrt(det g),
which makes the cross and triple products below frame-covariant formulas.
The inverse and the leading minors are numpy's LAPACK gufuncs called
without the ``np.linalg`` wrapper (see ``determinants``), with the same bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .determinants import _inv, _invertible_rows, _lu_det
from .errors import ConventionError, DefinitenessError, ShapeError
from .objects import (
    DEFAULT_SYMMETRY_TOL,
    DOWN,
    UP,
    TensorObject,
    Variance,
    _check_slot,
    _identity,
    _identity_object,
    _result,
    _scale,
    matrix_object,
    new_object,
    require_vector,
)
from .symbols import levi_civita_symbol

# leading principal minors must exceed this for positive-definiteness
MINOR_TOL = 1e-12

# measured: one stacked det call beats a call per minor up to about dim 20
_STACKED_MINORS_MAX_DIM = 16


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
    """Validate symmetry and positive-definiteness, cache inverse and det.

    The checks run in this order: finite components, then symmetry within
    DEFAULT_SYMMETRY_TOL, then finite leading minors, then minors above
    MINOR_TOL.  One pass over m - m.T decides the first two, since the
    difference is inf or NaN wherever m is; finiteness is tested on its own
    only to word a failure.
    """
    g = matrix_object(g, (DOWN, DOWN), "metric")
    m = g.components
    # an overflowing difference counts as asymmetric; an overflowing minor is
    # refused below, and so is the 0.0 that LAPACK's det can reach on
    # subnormal entries while setting "divide"
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # written so that a NaN difference fails it too
        if not _scale(m - m.T) <= DEFAULT_SYMMETRY_TOL:
            if not np.isfinite(m).all():
                raise DefinitenessError("metric components must be finite")
            raise DefinitenessError("metric must be symmetric")
        minors = _leading_minors(m)
    if not all(math.isfinite(minor) for minor in minors):
        raise DefinitenessError(
            f"metric leading minors overflow float64: {minors}"
        )
    if any(minor <= MINOR_TOL for minor in minors):
        raise DefinitenessError(
            f"metric is not positive-definite: leading minors {minors}"
        )
    g_inv = _result(g.dim, (UP, UP), 0, _inv(m))
    return Metric(g, g_inv, minors[-1])


def _leading_minors(m: np.ndarray) -> list[float]:
    """det of each leading k x k block of m, k = 1..dim, the last being m.

    Up to _STACKED_MINORS_MAX_DIM one determinant call takes them all from
    a stack whose entry k - 1 is the k x k block padded with the identity:
    the full-size entry is m itself, so the last minor is det m bit for bit.
    Above it the dim**3 stack would cost more time than a call per minor,
    and memory without bound.
    """
    dim = len(m)
    if dim > _STACKED_MINORS_MAX_DIM:
        return [float(_lu_det(m[:k, :k])) for k in range(1, dim + 1)]
    mask, identity = _minor_padding(dim)
    return _lu_det(np.where(mask, m, identity)).tolist()


@functools.lru_cache(maxsize=None)  # dims 1.._STACKED_MINORS_MAX_DIM only
def _minor_padding(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``(mask, identity)`` with ``mask[k, i, j] = max(i, j) <= k``."""
    k = np.arange(dim)
    mask = np.maximum.outer(k, k) <= k[:, None, None]
    mask.setflags(write=False)
    return mask, _identity(dim)


def metric_from_basis(basis: Sequence[TensorObject]) -> Metric:
    """Gram matrix of basis vectors given in ambient orthonormal coordinates.

    A linearly dependent basis fails the positive-definiteness check.
    """
    if not basis:
        raise ShapeError("empty basis")
    dim = len(basis)
    rows = np.array([require_vector(e, dim, "basis vector") for e in basis])
    # an overflowing Gram matrix, or a NaN from inf * 0, is rejected as non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        gram = rows @ rows.T
    return metric_from_tensor(_result(dim, (DOWN, DOWN), 0, gram))


def orthonormal_metric(dim: int = 3) -> Metric:
    return metric_from_tensor(_identity_object(dim, (DOWN, DOWN)))


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
    _check_slot(t, slot)
    if t.dim != matrix.shape[0]:
        raise ShapeError(f"object has dim {t.dim}, metric has dim {matrix.shape[0]}")
    if t.slots[slot] is not before:
        raise ConventionError(
            f"slot {slot} is {t.slots[slot].value}, expected {before.value}"
        )
    # the slot, moved last, times matrix.T: sum it against the matrix's column
    # axis.  ndarray.swapaxes is the method np.swapaxes ends in, so the bits
    # are the same without the wrapper's per-call cost.
    arr = (t.components.swapaxes(slot, -1) @ matrix.T).swapaxes(slot, -1)
    slots = t.slots[:slot] + (after,) + t.slots[slot + 1 :]
    return _result(t.dim, slots, t.weight, arr)


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
    return _result(3, sym.slots, 0, sym.components * factor)


def cross(x: TensorObject, y: TensorObject, m: Metric) -> TensorObject:
    """Cross product z^r = eps^{rmn} g_ms g_nt x^s y^t (dim 3), written out:
    the ordinary cross product of g x and g y, divided by sqrt(det g)."""
    if m.dim != 3:
        raise ShapeError(f"cross product is dim-3 only, got metric dim {m.dim}")
    a1, a2, a3 = (m.g.components @ require_vector(x, 3)).tolist()
    b1, b2, b3 = (m.g.components @ require_vector(y, 3)).tolist()
    root = math.sqrt(m.det_g)
    z = [a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1]
    return _result(3, (UP,), x.weight + y.weight, [v / root for v in z])


def triple(x: TensorObject, y: TensorObject, z: TensorObject, m: Metric) -> float:
    """Triple product eps^{mnp} g_mr g_ns g_pt x^r y^s z^t (dim 3): the scalar
    product of cross(x, y) with z, det[g x, g y, g z] / sqrt(det g)."""
    if m.dim != 3:
        raise ShapeError(f"triple product is dim-3 only, got metric dim {m.dim}")
    return inner(cross(x, y, m), z, m)


def random_metric(rng: np.random.Generator, dim: int = 3, min_det: float = 0.1) -> Metric:
    """Test helper: Gram metric of a random well-conditioned basis."""
    rows = _invertible_rows(rng, dim, min_det)
    return metric_from_basis([new_object(dim, (UP,), 0, row) for row in rows])
