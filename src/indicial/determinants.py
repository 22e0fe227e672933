"""Determinants and inverses of rank-(1,1) objects.

The upper slot indexes rows and the lower slot indexes columns.  For
dim <= 4 the determinant is the full signed-permutation sum (the
epsilon-contraction definition).  It runs over lexicographically adjacent
pairs of permutations, which share every factor but the last two and have
opposite signs: the shared prefix product is formed once per pair, and the
two completions are added and subtracted in the order of a loop over single
permutations, so every product and partial sum is the same IEEE value and
integer matrices keep exact determinants.  Larger dimensions use an O(d^3)
elimination path, which agrees with the reference sum on small matrices.

Inverses, determinants at dim >= 5 (and the metric's leading minors) are
numpy's LAPACK gufuncs, called as ``np.linalg.inv`` and ``np.linalg.det``
call them for float64 input but without their Python wrapper: the same
bits, without the wrapper's per-call cost.

``_invertible_rows`` is the one sampler of random invertible matrices that
``random_frame``, ``random_metric`` and the check catalogue draw through.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import SingularityError
from .objects import (
    MIXED_SLOTS,
    TensorObject,
    _fresh_result,
    _scale,
    matrix_object,
    require_signature,
)
from .symbols import _signed_permutations

# |det| <= SINGULARITY_FACTOR * max|entry| ** dim, or beyond float64, counts as singular
SINGULARITY_FACTOR = 1e-12


@functools.lru_cache(maxsize=None)  # called with dims 2..4 only
def _permutation_pairs(d: int) -> tuple[tuple[float, int, int, int, int, int, int], ...]:
    """``(sign, p0, p1, a, b, c, e)`` for each adjacent pair of
    ``_signed_permutations(d)``, as indices into the row-major entries with
    1.0 appended at index ``d * d``.

    In itertools order permutations 2k and 2k + 1 differ only in their last
    two entries, so their signs are opposite.  ``sign`` is that of the
    first; the shared prefix is ``flat[p0] * flat[p1]`` (padded with the 1.0
    below four factors), the first completion ``flat[a] * flat[b]`` and the
    second ``flat[c] * flat[e]``.
    """
    table = _signed_permutations(d)
    pad = [d * d] * 2
    pairs = []
    for (sign, perm), (_, partner) in zip(table[::2], table[1::2]):
        first = [row * d + col for col, row in enumerate(perm)]
        second = [row * d + col for col, row in enumerate(partner)]
        p0, p1 = (first[:-2] + pad)[:2]
        pairs.append((float(sign), p0, p1, *first[-2:], *second[-2:]))
    return tuple(pairs)


def _permutation_sum(flat: list[float], d: int) -> float:
    """The signed-permutation sum over the row-major entries of a d x d
    matrix (d <= 4), in Python floats: the same IEEE products as numpy
    scalars, but an overflow to inf (or inf * 0 = NaN) passes without a
    RuntimeWarning."""
    if d == 1:
        return 0.0 + flat[0]  # the sum starts at 0.0, which turns -0.0 into 0.0
    flat = flat + [1.0]
    total = 0.0
    for s, p0, p1, a, b, c, e in _permutation_pairs(d):
        # a single permutation's product starts at 1.0 and 1.0 * x is x, so p
        # is its running product before the last two factors; the partner's
        # sign is -s, and a - s * y is a + (-s) * y bit for bit
        p = flat[p0] * flat[p1]
        total = total + s * (p * flat[a] * flat[b]) - s * (p * flat[c] * flat[e])
    return total


def _inv(m: np.ndarray) -> np.ndarray:
    """The inverse of a float64 matrix, or of each in a stack: the LAPACK
    gufunc that ``np.linalg.inv`` calls, without its errstate, array
    wrapping and type checks, so the same bits.

    On a zero pivot that LAPACK finds itself ``np.linalg.inv`` raises
    LinAlgError, while this returns NaN and sets "invalid".  Every caller
    reaches it only after a stricter test has passed: the scale-aware
    singularity threshold in ``_checked_inverse``, or positive leading
    minors in ``metric_from_tensor``.
    """
    return _umath_linalg.inv(m, signature="d->d")


def _lu_det(m: np.ndarray) -> np.ndarray:
    """The determinant of a float64 matrix, or of each in a stack: the
    LAPACK gufunc that ``np.linalg.det`` calls, so the same bits."""
    return _umath_linalg.det(m, signature="d->d")


def _det(m: np.ndarray, d: int) -> float:
    if d <= 4:
        return _permutation_sum(m.ravel().tolist(), d)
    # inverse counts an infinite or NaN det (a non-finite entry) as singular;
    # subnormal entries can make LAPACK's det set "divide" on its way to 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return float(_lu_det(m))


def determinant(t: TensorObject | Sequence[Sequence[float]]) -> float:
    """Determinant of a rank-(1,1) object or a square array-like.  Weight is
    ignored."""
    t = matrix_object(t, MIXED_SLOTS, "determinant")
    return _det(t.components, t.dim)


def _threshold(scale: float, dim: int) -> float:
    """SINGULARITY_FACTOR * scale ** dim, saturating at inf."""
    try:
        return SINGULARITY_FACTOR * scale ** dim
    except OverflowError:  # the power is beyond float64
        return math.inf


def singularity_threshold(t: TensorObject | Sequence[Sequence[float]]) -> float:
    """Scale-aware cutoff: 1e-12 * (max absolute entry) ** dim."""
    t = matrix_object(t, MIXED_SLOTS, "singularity_threshold")
    return _threshold(_scale(t.components), t.dim)


def _det_and_scale(m: np.ndarray, d: int) -> tuple[float, float]:
    """The determinant and the max absolute entry of a d x d matrix; for
    d <= 4 both come from one list of its entries.  A NaN entry may drop out
    of the Python max, but it makes the permutation sum NaN."""
    if d <= 4:
        flat = m.ravel().tolist()
        return _permutation_sum(flat, d), max(map(abs, flat))
    return _det(m, d), _scale(m)


def _is_singular(det: float, scale: float, dim: int) -> bool:
    """|det| at or below the threshold for ``scale`` and ``dim``, or beyond
    float64; a NaN det (a NaN entry, or inf * 0 in an overflowing
    permutation sum) counts as singular."""
    return not _threshold(scale, dim) < abs(det) < math.inf


def _checked_inverse(m: np.ndarray, d: int) -> np.ndarray:
    """A fresh inverse of a d x d float64 matrix; SingularityError when the
    matrix counts as singular, which also refuses every non-finite entry."""
    det, scale = _det_and_scale(m, d)
    if _is_singular(det, scale, d):
        raise SingularityError(f"matrix is singular within tolerance: |det| = {abs(det)}")
    return _inv(m)


def inverse(t: TensorObject | Sequence[Sequence[float]]) -> TensorObject:
    """Matrix inverse of a rank-(1,1) object or a square array-like.

    Raises SingularityError when |det| falls at or below the scale-aware
    threshold or overflows float64.  The result carries weight -t.weight so
    that the product with t is weight-0; an array-like reads as weight 0.
    """
    t = matrix_object(t, MIXED_SLOTS, "inverse")
    return _fresh_result(t.dim, MIXED_SLOTS, -t.weight, _checked_inverse(t.components, t.dim))


def _invertible_rows(rng: np.random.Generator, dim: int, min_det: float = 0.1) -> np.ndarray:
    """Test sampler: dim x dim uniform [-1, 1] entries, redrawn until
    ``abs(det) >= min_det``."""
    require_signature(dim, (), 0)  # a 0 x 0 draw would never pass
    while True:
        rows = rng.uniform(-1.0, 1.0, size=(dim, dim))
        if abs(_det(rows, dim)) >= min_det:
            return rows
