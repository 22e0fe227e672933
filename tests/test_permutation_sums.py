"""The unrolled permutation sums at dims 2-4 against the per-permutation loop.

``determinants`` generates one straight-line sum per dim from the sign
table.  Every determinant must equal ``ref_det``'s loop in ``repr`` (so
-0.0, NaN, +-inf and subnormal results too), over seeded matrices that mix
special values with magnitudes out to 1e+-300; the max-entry scale read from
the same list must equal numpy's ``max(abs(m))`` on every NaN-free matrix;
and integer matrices keep their exact integer determinants.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from test_kernel_bits import SPECIALS, ref_det

from indicial.determinants import _det_and_scale, determinant

MAGNITUDES = (1.0, 1e-300, 1e300, 1e-160, 1e160, 1e-80, 1e80, 5e-324)


def _corpus(rng: np.random.Generator, d: int, count: int) -> list[np.ndarray]:
    """Normal draws scaled per entry by a magnitude, some entries special."""
    out = []
    for k in range(count):
        m = rng.standard_normal((d, d)) * rng.choice(MAGNITUDES, (d, d))
        if k % 2:
            for _ in range(rng.integers(1, d + 1)):
                m[rng.integers(d), rng.integers(d)] = rng.choice(SPECIALS)
        if k % 5 == 0:
            m[rng.integers(d)] = rng.choice([0.0, -0.0])
        out.append(m)
    return out


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_unrolled_sum_and_scale_match_the_loop_and_numpy(dim):
    rng = np.random.default_rng(1700 + dim)
    corpus = _corpus(rng, dim, 3500)
    non_finite = 0
    for m in corpus:
        want = repr(ref_det(m))
        det, scale = _det_and_scale(m, dim)
        assert repr(det) == want, m
        assert repr(determinant(m)) == want, m
        if not np.isnan(m).any():
            assert repr(scale) == repr(float(np.max(np.abs(m)))), m
        non_finite += not math.isfinite(det)
    # the corpus reaches overflowing and NaN sums, not only finite ones
    assert non_finite > len(corpus) // 10


def _exact_det(rows: list[list[int]]) -> int:
    d = len(rows)
    total = 0
    for perm in itertools.permutations(range(d)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total += (-1) ** inversions * math.prod(rows[row][col] for col, row in enumerate(perm))
    return total


def test_integer_matrices_keep_exact_determinants():
    # entries up to 1000 in magnitude keep every partial sum below 2**53
    rng = np.random.default_rng(1710)
    for _ in range(500):
        rows = rng.integers(-1000, 1001, (4, 4))
        got = determinant(rows.astype(float))
        assert got == _exact_det(rows.tolist()) and got.is_integer(), rows
