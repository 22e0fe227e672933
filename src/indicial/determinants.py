"""Determinants and inverses of rank-(1,1) objects.

The upper slot indexes rows and the lower slot indexes columns.  For
dim <= 4 the determinant is the full signed-permutation sum (the
epsilon-contraction definition); larger dimensions use an O(d^3)
elimination path, which agrees with the reference sum on small matrices.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ShapeError, SingularityError
from .objects import MIXED_SLOTS, TensorObject, _frozen
from .symbols import permutation_sign

# |det| <= SINGULARITY_FACTOR * max|entry| ** dim counts as singular
SINGULARITY_FACTOR = 1e-12


def _require_mixed_matrix(t: TensorObject, what: str) -> np.ndarray:
    if t.slots != MIXED_SLOTS:
        raise ShapeError(
            f"{what} needs a rank-(1,1) object with slots (up, down), got {t!r}"
        )
    return t.components


def determinant(t: TensorObject) -> float:
    """Determinant of a rank-(1,1) object.  Weight is ignored."""
    m = _require_mixed_matrix(t, "determinant")
    d = t.dim
    if d <= 4:
        # Python floats: the same IEEE products as numpy scalars, but an
        # overflow to inf (or inf * 0 = NaN) passes without a RuntimeWarning
        rows = m.tolist()
        total = 0.0
        for perm in itertools.permutations(range(1, d + 1)):
            sign = permutation_sign(perm, d)
            prod = 1.0
            for col, row in enumerate(perm):
                prod *= rows[row - 1][col]
            total += sign * prod
        return total
    with np.errstate(over="ignore"):  # inverse counts an infinite det as singular
        return float(np.linalg.det(m))


def singularity_threshold(t: TensorObject) -> float:
    """Scale-aware cutoff: 1e-12 * (max absolute entry) ** dim."""
    m = _require_mixed_matrix(t, "singularity_threshold")
    scale = float(np.max(np.abs(m), initial=0.0))
    try:
        return SINGULARITY_FACTOR * scale ** t.dim
    except OverflowError:  # the power is beyond float64
        return math.inf


def inverse(t: TensorObject) -> TensorObject:
    """Matrix inverse of a rank-(1,1) object.

    Raises SingularityError when |det| falls at or below the scale-aware
    threshold.  The result carries weight -t.weight so that the product
    with t is weight-0.
    """
    m = _require_mixed_matrix(t, "inverse")
    det = determinant(t)
    # a NaN det (inf * 0 in an overflowing permutation sum) counts as singular
    if not abs(det) > singularity_threshold(t):
        raise SingularityError(f"matrix is singular within tolerance: |det| = {abs(det)}")
    inv = np.linalg.inv(m)
    return TensorObject(t.dim, MIXED_SLOTS, -t.weight, _frozen(inv))
