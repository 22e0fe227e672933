import itertools
import math

import numpy as np
import pytest

from indicial.errors import AddressingError, ShapeError
from indicial.objects import DOWN, UP
from indicial.symbols import (
    KroneckerKind,
    _signed_permutations,
    kronecker,
    levi_civita_symbol,
    permutation_sign,
)


def _inversion_sign(idx):
    # independent route: count out-of-order pairs
    inversions = 0
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            if idx[a] > idx[b]:
                inversions += 1
    return -1 if inversions % 2 else 1


def test_permutation_sign_basics():
    assert permutation_sign((1, 2, 3)) == 1
    assert permutation_sign((2, 1, 3)) == -1
    assert permutation_sign((2, 3, 1)) == 1
    assert permutation_sign((1, 1, 3)) == 0
    assert permutation_sign((1,)) == 1


def test_permutation_sign_matches_inversion_count():
    for n in (2, 3, 4):
        for perm in itertools.permutations(range(1, n + 1)):
            assert permutation_sign(perm) == _inversion_sign(perm)


def test_permutation_sign_range_checks():
    with pytest.raises(AddressingError):
        permutation_sign((0, 1, 2))
    with pytest.raises(AddressingError):
        permutation_sign((1, 4), dim=3)
    # a short multi-index is fine when dim allows the values
    assert permutation_sign((1, 4), dim=4) == 1
    assert permutation_sign((4, 1), dim=4) == -1


def test_permutation_sign_accepts_numpy_integers():
    assert permutation_sign([np.int64(1), 2, 3]) == 1
    assert permutation_sign(np.array([2, 1, 3])) == -1
    assert permutation_sign([np.int32(1), np.int32(1)]) == 0
    for bad in ([np.int64(0), 1], [True, 2], [1.0, 2]):
        with pytest.raises(AddressingError):
            permutation_sign(bad)


def test_kronecker_kinds():
    for kind, slots in [
        (KroneckerKind.MIXED, (UP, DOWN)),
        (KroneckerKind.LOWER_LOWER, (DOWN, DOWN)),
        (KroneckerKind.UPPER_UPPER, (UP, UP)),
    ]:
        d = kronecker(3, kind)
        assert d.slots == slots
        assert d.weight == 0
        assert np.array_equal(d.components, np.eye(3))


def test_levi_civita_symbol_dim3():
    e = levi_civita_symbol(3, DOWN)
    assert e.weight == -1
    assert e.slots == (DOWN, DOWN, DOWN)
    assert e.component((1, 2, 3)) == 1.0
    assert e.component((2, 1, 3)) == -1.0
    assert e.component((1, 1, 2)) == 0.0
    up = levi_civita_symbol(3, UP)
    assert up.weight == 1
    assert np.array_equal(up.components, e.components)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_levi_civita_symbol_counts(dim):
    e = levi_civita_symbol(dim, DOWN)
    nonzero = np.count_nonzero(e.components)
    assert nonzero == math.factorial(dim)
    # values match the independent inversion count
    for idx in itertools.permutations(range(1, dim + 1)):
        assert e.component(idx) == _inversion_sign(idx)


def test_levi_civita_symbol_rejects_bad_dim():
    with pytest.raises(ShapeError):
        levi_civita_symbol(0, DOWN)
    with pytest.raises(ShapeError):
        levi_civita_symbol(7, DOWN)  # rank would explode


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_signed_permutation_table_is_permutation_sign_in_itertools_order(dim):
    expected = [
        (permutation_sign(perm, dim), tuple(v - 1 for v in perm))
        for perm in itertools.permutations(range(1, dim + 1))
    ]
    assert list(_signed_permutations(dim)) == expected
    assert _signed_permutations(dim) is _signed_permutations(dim)


@pytest.mark.parametrize("variance", [UP, DOWN])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_levi_civita_symbol_is_one_shared_read_only_object(dim, variance):
    e = levi_civita_symbol(dim, variance)
    assert levi_civita_symbol(dim, variance) is e
    assert not e.components.flags.writeable
    with pytest.raises(ValueError):
        e.components[(0,) * dim] = 2.0
    # a table built here, from the independent inversion count
    table = np.zeros((dim,) * dim)
    for perm in itertools.permutations(range(dim)):
        table[perm] = _inversion_sign(perm)
    assert e.components.dtype == np.float64
    assert e.components.tobytes() == table.tobytes()
    assert e.slots == (variance,) * dim
    assert e.weight == (1 if variance is UP else -1)


@pytest.mark.parametrize("dim", [True, False, 0, 7, -1, 3.0, np.int64(3), "3"])
def test_levi_civita_symbol_rejects_bad_dim_also_after_a_cache_hit(dim):
    levi_civita_symbol(1, UP)
    levi_civita_symbol(3, DOWN)
    for variance in (UP, DOWN):
        with pytest.raises(ShapeError) as err:
            levi_civita_symbol(dim, variance)
        assert str(err.value) == f"permutation symbol supports dim 1..6, got {dim!r}"


@pytest.mark.parametrize("variance", ["up", None, 1, KroneckerKind.MIXED])
def test_levi_civita_symbol_rejects_bad_variance_also_after_a_cache_hit(variance):
    levi_civita_symbol(3, UP)
    with pytest.raises(ShapeError) as err:
        levi_civita_symbol(3, variance)
    assert str(err.value) == f"{variance!r} is not a Variance"


def test_kronecker_refuses_a_kind_given_as_a_string():
    with pytest.raises(ShapeError, match="is not a KroneckerKind"):
        kronecker(3, "mixed")
