"""Coordinate frames and the weighted transformation law.

A Frame holds the new-from-old mixing matrix c (so new coordinates are
x-bar^r = c^r_s x^s) together with its inverse gamma.  Under a change of
frame an object of weight M picks up the factor det(gamma)**M, upper slots
contract with c and lower slots with gamma.

``frame_from_matrix`` inverts c with numpy's LAPACK gufunc called directly
(see ``determinants``), under ``inverse``'s singularity rule, and takes
det(gamma) from the same kernel as ``determinant``: the same bits as the
public functions, without re-checking c for each of them.  Up to dim 4
both determinants are the unrolled permutation sum, in Python floats, and
the residual max |gamma c - 1| is read from one list of the product; above
dim 4, where a list costs more than numpy's reduction, it stays in numpy.
Every product goes through ``objects._matmul`` or ``_slot_product``, with
``@``'s bits.  Gamma and the composed matrices, fresh from LAPACK or BLAS,
are frozen in place (``_fresh_result``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .determinants import _checked_inverse, _det, _det_and_scale, _invertible_rows, _is_singular
from .errors import ShapeError, SingularityError
from .objects import (
    MIXED_SLOTS,
    UP,
    TensorObject,
    _fresh_result,
    _identity,
    _identity_object,
    _matmul,
    _read_number,
    _result,
    _scale,
    _slot_product,
    matrix_object,
    require_signature,
    require_vector,
)

_FRAME_CHECK_TOL = 1e-9


@dataclass(frozen=True, init=False)
class Frame:
    """An invertible change of coordinates.

    ``c`` mixes old components into new ones; ``gamma`` is its matrix
    inverse and ``det_gamma`` the cached determinant of gamma.
    """

    dim: int
    c: TensorObject
    gamma: TensorObject
    det_gamma: float

    def __init__(
        self, dim: int, c: TensorObject, gamma: TensorObject, det_gamma: float
    ) -> None:
        # the state the generated __init__ leaves, in field order, written to
        # the instance dict instead of through object.__setattr__ per field
        d = self.__dict__
        d["dim"] = dim
        d["c"] = c
        d["gamma"] = gamma
        d["det_gamma"] = det_gamma


def frame_from_matrix(c: TensorObject | Sequence[Sequence[float]]) -> Frame:
    """Build a Frame from the new-from-old matrix, rejecting singular input."""
    c = matrix_object(c, MIXED_SLOTS, "frame matrix")
    # raises SingularityError for a degenerate mixing
    g = _checked_inverse(c.components, c.dim)
    # max |gamma c - 1|, NaN if an entry is NaN
    r = _matmul(g, c.components)
    if c.dim <= 4:
        # from one list of the fresh product: subtracting 1.0 on the diagonal
        # is the IEEE subtraction of ``r - I``; Python's max skips a NaN that
        # is not first, but any NaN makes the sum NaN (as does inf - inf)
        r = r.ravel().tolist()
        for i in range(0, len(r), c.dim + 1):
            r[i] -= 1.0
        residual = max(map(abs, r))
        if math.isnan(sum(r)) and any(map(math.isnan, r)):
            residual = math.nan
    else:
        r -= _identity(c.dim)
        residual = _scale(r)
    # written so that a NaN residual fails it too
    if not residual <= _FRAME_CHECK_TOL:
        raise SingularityError(
            f"frame matrix is too ill-conditioned to invert reliably "
            f"(residual {residual:.3e})"
        )
    gamma = _fresh_result(c.dim, MIXED_SLOTS, -c.weight, g)
    return Frame(c.dim, c, gamma, _checked_det(_det(g, c.dim)))


def _checked_det(det_gamma: float) -> float:
    """``det_gamma``; SingularityError when it overflowed or underflowed
    float64, since ``transform`` scales by its powers."""
    # written so that a NaN determinant fails it too
    if not 0.0 < abs(det_gamma) < math.inf:
        raise SingularityError(
            f"frame determinant is outside float64: det(gamma) = {det_gamma}"
        )
    return det_gamma


def identity_frame(dim: int) -> Frame:
    return frame_from_matrix(_identity_object(dim, MIXED_SLOTS))


def inverse_frame(f: Frame) -> Frame:
    """The frame mapping new coordinates back to old ones."""
    return Frame(f.dim, f.gamma, f.c, _checked_det(_det(f.c.components, f.dim)))


def compose(first: Frame, second: Frame) -> Frame:
    """The frame equivalent to applying ``first`` and then ``second``.

    det(gamma) is checked before the two matrix products.  For frames from
    ``frame_from_matrix`` or ``inverse_frame``, the singularity threshold on
    c bounds max|c| ** dim by 1e12 |det c|, and max|gamma| by a multiple of
    1e12 / max|c|, so at dim >= 2 every product that would overflow float64
    comes with a det(gamma) product that underflows to 0.0 or overflows, and
    is refused first; the bound does not carry over to a frame that is
    itself such a product.  At dim 1 a subnormal det(gamma) product can pass
    while c overflows, so there the product of the two c entries, a Python
    float that overflows without a warning, is tested as well.
    """
    if first.dim != second.dim:
        raise ShapeError(f"dim mismatch: {first.dim} vs {second.dim}")
    det_gamma = _checked_det(first.det_gamma * second.det_gamma)
    c1, c2 = first.c.components, second.c.components
    if first.dim == 1 and not abs(c2.item() * c1.item()) < math.inf:
        raise SingularityError("composed frame matrix is outside float64")
    c = _matmul(c2, c1)
    gamma = _matmul(first.gamma.components, second.gamma.components)
    return Frame(
        first.dim,
        _fresh_result(first.dim, MIXED_SLOTS, 0, c),
        _fresh_result(first.dim, MIXED_SLOTS, 0, gamma),
        det_gamma,
    )


def _int_power(base: float, exponent: int) -> float:
    """``base ** exponent`` by squaring, in O(log |exponent|) products.

    Products keep integer powers of negative determinants exact in sign, and
    a power beyond float64 comes out infinite instead of raising.  A negative
    exponent squares ``1.0 / base``.  For exponents -1..2 the bits are those
    of one multiplication or division per unit of the exponent.
    """
    if exponent < 0:
        base, exponent = 1.0 / base, -exponent
    out = 1.0
    while True:
        if exponent & 1:
            out = out * base
        exponent >>= 1
        if not exponent:
            return out
        base = base * base


def transform(t: TensorObject, f: Frame) -> TensorObject:
    """Apply the weighted transformation law to every slot of t.

    Upper slots contract with c, lower slots with gamma, and the result is
    scaled by det(gamma) ** t.weight.  Raises SingularityError when that
    power overflows float64, although det(gamma) itself is finite and
    nonzero, since the result would be infinite (or NaN for a zero
    component); and when it underflows to 0.0 for an object with a nonzero
    component, which would come out as all zeros.  An all-zero object with
    an underflowing power transforms to zeros, which is exact.
    """
    if t.dim != f.dim:
        raise ShapeError(f"object has dim {t.dim}, frame has dim {f.dim}")
    if t.weight != 0:
        factor = _int_power(f.det_gamma, t.weight)
        # written so that a NaN factor fails it too
        if not abs(factor) < math.inf or (factor == 0.0 and t.components.any()):
            raise SingularityError(
                f"frame determinant power is outside float64: "
                f"det(gamma) ** {t.weight} with det(gamma) = {f.det_gamma}"
            )
    arr = t.components
    # x-bar^r = c^r_s x^s: an upper slot times c.T;
    # a-bar_r = gamma^s_r a_s: a lower slot times gamma.
    c_t = f.c.components.T
    g = f.gamma.components
    for k, variance in enumerate(t.slots):
        arr = _slot_product(arr, k, c_t if variance is UP else g)
    if t.weight != 0:
        arr = arr * factor
    return _result(t.dim, t.slots, t.weight, arr)


def transform_basis(f: Frame, basis: Sequence[TensorObject]) -> list[TensorObject]:
    """Map old basis vectors to the new frame's basis via gamma.

    Each vector is a rank-(0,1) object; the r-th new basis vector is
    gamma^s_r times the s-th old one.  Rejects dependent input.
    """
    if len(basis) != f.dim:
        raise ShapeError(f"expected {f.dim} basis vectors, got {len(basis)}")
    rows = np.array([require_vector(e, f.dim, "basis vector") for e in basis])
    det, scale = _det_and_scale(rows, f.dim)
    if _is_singular(det, scale, f.dim):
        raise SingularityError("basis vectors are linearly dependent")
    new_rows = _matmul(f.gamma.components.T, rows)
    return [_result(f.dim, (UP,), 0, row) for row in new_rows]


def verify_transform_law(
    old: TensorObject,
    new: TensorObject,
    f: Frame,
    weight: int,
    tol: float = 1e-9,
) -> bool:
    """Check the weight-M law in both directions.

    Forward: new must equal the transform of old at the given weight.
    Backward: old must equal the transform of new under the inverse frame
    at the same weight.  True only when both hold within tol.  ShapeError
    for a weight that is not an int, as ``new_object`` words it, and for a
    non-finite tol; a negative tol asks for an exact match.
    """
    if old.dim != new.dim or old.slots != new.slots or old.weight != new.weight:
        raise ShapeError(f"signature mismatch: {old!r} vs {new!r}")
    require_signature(old.dim, (), weight)
    tol = _read_number(tol, "tol")
    if not math.isfinite(tol):
        raise ShapeError(f"tol must be finite, got {tol!r}")
    forward = transform(TensorObject(old.dim, old.slots, weight, old.components), f)
    backward = transform(
        TensorObject(new.dim, new.slots, weight, new.components), inverse_frame(f)
    )
    return bool(
        np.allclose(new.components, forward.components, rtol=tol, atol=tol)
        and np.allclose(old.components, backward.components, rtol=tol, atol=tol)
    )


def random_frame(
    rng: np.random.Generator, dim: int = 3, min_det: float = 0.1
) -> Frame:
    """Test helper: uniform [-1, 1] entries, resampled until |det| >= min_det."""
    return frame_from_matrix(_invertible_rows(rng, dim, min_det))
