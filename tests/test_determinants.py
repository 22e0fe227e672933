import itertools

import numpy as np
import pytest

from oracles import cofactor_det, gauss_jordan_inverse

from indicial.determinants import determinant, inverse, singularity_threshold
from indicial.errors import DefinitenessError, ShapeError, SingularityError
from indicial.frames import frame_from_matrix, transform_basis
from indicial.metric import metric_from_tensor
from indicial.objects import DOWN, UP, new_object
from indicial.symbols import KroneckerKind, kronecker, permutation_sign


def _mixed(arr):
    arr = np.asarray(arr, dtype=float)
    return new_object(arr.shape[0], (UP, DOWN), 0, arr)


def test_identity_determinant_is_exactly_one():
    for d in range(1, 7):
        assert determinant(kronecker(d, KroneckerKind.MIXED)) == 1.0


def test_permutation_matrices_have_exact_signs():
    swap = _mixed(np.eye(3)[[1, 0, 2]])
    assert determinant(swap) == -1.0
    cycle = _mixed(np.eye(4)[[1, 2, 3, 0]])
    assert determinant(cycle) == -1.0  # odd permutation of 4
    double = _mixed(np.eye(4)[[1, 0, 3, 2]])
    assert determinant(double) == 1.0


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_determinant_matches_cofactor_expansion(dim):
    rng = np.random.default_rng(dim * 11)
    for _ in range(30):
        arr = rng.uniform(-2.0, 2.0, size=(dim, dim))
        expected = cofactor_det(arr.tolist())
        got = determinant(_mixed(arr))
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_small_determinant_is_the_permutation_sum_in_python_floats(dim):
    """Bit-identical to the same sum over numpy scalars, returned as a float."""
    rng = np.random.default_rng(dim * 13)
    for _ in range(30):
        arr = rng.uniform(-2.0, 2.0, size=(dim, dim))
        expected = 0.0
        for perm in itertools.permutations(range(1, dim + 1)):
            prod = 1.0
            for col, row in enumerate(perm):
                prod *= arr[row - 1, col]
            expected += permutation_sign(perm, dim) * prod
        got = determinant(_mixed(arr))
        assert type(got) is float and got == expected


def test_determinant_requires_mixed_slots():
    with pytest.raises(ShapeError):
        determinant(new_object(2, (UP, UP), 0, np.eye(2)))
    with pytest.raises(ShapeError):
        determinant(new_object(2, (UP,), 0, [1.0, 2.0]))


@pytest.mark.parametrize("make", [lambda a: a.tolist(), lambda a: a], ids=["list", "ndarray"])
def test_matrix_functions_read_a_square_array_like(make):
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert determinant(make(a)) == determinant(_mixed(a)) == -2.0
    assert inverse(make(a)) == inverse(_mixed(a))
    assert singularity_threshold(make(a)) == singularity_threshold(_mixed(a))


@pytest.mark.parametrize("bad", ["abc", None, [[1.0, 2.0], [3.0]], [1.0, 2.0]])
@pytest.mark.parametrize("fn", [determinant, inverse, singularity_threshold])
def test_matrix_functions_refuse_non_matrices_with_shape_error(fn, bad):
    with pytest.raises(ShapeError):
        fn(bad)


def test_product_theorem():
    rng = np.random.default_rng(42)
    for _ in range(200):
        a = rng.uniform(-1.0, 1.0, size=(3, 3))
        b = rng.uniform(-1.0, 1.0, size=(3, 3))
        lhs = determinant(_mixed(a @ b))
        rhs = determinant(_mixed(a)) * determinant(_mixed(b))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


def test_inverse_matches_gauss_jordan():
    rng = np.random.default_rng(3)
    for dim in (2, 3, 4, 5):
        arr = rng.uniform(-1.0, 1.0, size=(dim, dim)) + 2.0 * np.eye(dim)
        got = inverse(_mixed(arr))
        expected = np.array(gauss_jordan_inverse(arr.tolist()))
        assert np.max(np.abs(got.components - expected)) <= 1e-9
        assert np.max(np.abs(got.components @ arr - np.eye(dim))) <= 1e-9


def test_inverse_flips_weight():
    t = new_object(2, (UP, DOWN), 2, [[2.0, 0.0], [0.0, 4.0]])
    assert inverse(t).weight == -2


def test_singularity_threshold_scales_with_entries():
    base = np.diag([1e-13, 1.0, 1.0])
    for scale in (1.0, 1e3, 1e-3):
        t = _mixed(base * scale)
        assert abs(determinant(t)) <= singularity_threshold(t)
        with pytest.raises(SingularityError):
            inverse(t)


def test_singularity_threshold_saturates_beyond_float64():
    # 1e200 ** 2 overflows a Python float power
    assert singularity_threshold(_mixed([[0.0, 0.0], [0.0, 1e200]])) == float("inf")


@pytest.mark.parametrize(
    "rows",
    [
        [[0.0, 0.0], [0.0, 1e200]],
        [[0.0, 1e300, 0.0], [1e300, 0.0, 0.0], [0.0, 0.0, 0.0]],  # inf * 0: det NaN
        [[float("nan"), 0.0], [0.0, 1.0]],
    ],
)
def test_overflowing_or_nan_matrices_are_singular(rows):
    with pytest.raises(SingularityError):
        inverse(_mixed(rows))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("dim", [5, 6])
def test_non_finite_entries_are_singular_without_a_warning_at_lapack_dims(dim, bad):
    # dims >= 5 take np.linalg.det, which warns "invalid" on these entries;
    # the RuntimeWarning filter in pyproject.toml turns a warning into an error
    m = np.eye(dim)
    m[0, dim - 1] = bad
    with pytest.raises(SingularityError):
        inverse(_mixed(m))
    with pytest.raises(SingularityError):
        frame_from_matrix(m)
    basis = [new_object(dim, (UP,), 0, row) for row in m]
    with pytest.raises(SingularityError):
        transform_basis(frame_from_matrix(np.eye(dim)), basis)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8])
def test_subnormal_matrices_fail_with_the_library_errors(dim):
    # LAPACK's det sets "divide" on some of these on its way to 0.0 (the
    # metric's leading minors at every dim, determinants from dim 5); the
    # RuntimeWarning filter in pyproject.toml turns a warning into an error
    rng = np.random.default_rng(dim)
    for _ in range(50):
        m = rng.choice([5e-324, -5e-324, 1e-323, -1e-323, 0.0], size=(dim, dim))
        assert isinstance(determinant(_mixed(m)), float)
        with pytest.raises(SingularityError):
            inverse(_mixed(m))
        with pytest.raises(SingularityError):
            frame_from_matrix(m)
        with pytest.raises(DefinitenessError):
            metric_from_tensor(np.triu(m) + np.triu(m, 1).T)


def test_exactly_singular_is_rejected_with_value_in_message():
    t = _mixed([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]])
    with pytest.raises(SingularityError) as err:
        inverse(t)
    assert "det" in str(err.value)


def test_well_conditioned_small_determinant_is_accepted():
    t = _mixed(np.diag([1e-3, 1.0, 1.0]))
    got = inverse(t)
    assert abs(got.components[0, 0] - 1e3) < 1e-6
