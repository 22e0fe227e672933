import itertools

import numpy as np
import pytest

from oracles import cross3, dot3

from indicial.errors import AddressingError, DefinitenessError, ShapeError
from indicial.frames import frame_from_matrix, random_frame, transform
from indicial.metric import (
    cross,
    inner,
    levi_civita_tensor,
    lower_index,
    metric_from_basis,
    metric_from_tensor,
    orthonormal_metric,
    raise_index,
    random_metric,
    triple,
)
from indicial.objects import DOWN, UP, new_object
from indicial.symbols import KroneckerKind, kronecker


def _vec(rng, dim=3):
    return new_object(dim, (UP,), 0, rng.uniform(-1, 1, dim))


def test_metric_from_tensor_validation():
    with pytest.raises(ShapeError):
        metric_from_tensor(new_object(2, (UP, DOWN), 0, np.eye(2)))
    with pytest.raises(DefinitenessError):
        metric_from_tensor(new_object(2, (DOWN, DOWN), 0, [[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(DefinitenessError):
        metric_from_tensor(new_object(2, (DOWN, DOWN), 0, [[-1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(DefinitenessError):
        metric_from_tensor(new_object(2, (DOWN, DOWN), 0, [[0.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(DefinitenessError):  # positive det but indefinite
        metric_from_tensor(new_object(2, (DOWN, DOWN), 0, [[-1.0, 0.0], [0.0, -1.0]]))


def test_metric_determinant_is_the_last_minor():
    rng = np.random.default_rng(0)
    m = random_metric(rng, 3)
    assert abs(m.det_g - np.linalg.det(m.g.components)) <= 1e-9 * max(1.0, abs(m.det_g))
    assert np.allclose(m.g.components @ m.g_inv.components, np.eye(3), atol=1e-9)


def test_metric_from_basis_is_the_gram_matrix():
    rng = np.random.default_rng(1)
    while True:
        rows = rng.uniform(-1, 1, (3, 3))
        if abs(np.linalg.det(rows)) >= 0.1:
            break
    basis = [new_object(3, (UP,), 0, rows[r]) for r in range(3)]
    m = metric_from_basis(basis)
    for r, s in itertools.product(range(3), repeat=2):
        assert abs(m.g.components[r, s] - dot3(rows[r], rows[s])) <= 1e-12


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("at", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_non_finite_metric_is_rejected(bad, at):
    arr = np.eye(2)
    arr[at] = arr[at[::-1]] = bad
    with pytest.raises(DefinitenessError, match="finite"):
        metric_from_tensor(arr)
    with pytest.raises(DefinitenessError, match="finite"):
        metric_from_tensor(new_object(2, (DOWN, DOWN), 0, arr))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_a_non_finite_entry_is_named_before_an_asymmetry(bad):
    # the metric is also asymmetric, and the finiteness message wins
    with pytest.raises(DefinitenessError, match="must be finite"):
        metric_from_tensor([[1.0, bad], [0.5, 1.0]])


def test_an_overflowing_asymmetry_is_refused_as_asymmetric():
    # m - m.T overflows to inf at (0, 1): refused, with no RuntimeWarning
    with pytest.raises(DefinitenessError, match="must be symmetric"):
        metric_from_tensor([[1.0, 1e308], [-1e308, 1.0]])


def test_a_basis_vector_holding_inf_is_refused_as_non_finite():
    # inf * 0.0 in the Gram product is NaN, with no RuntimeWarning
    basis = [new_object(2, (UP,), 0, row) for row in ([float("inf"), 0.0], [0.0, 1.0])]
    with pytest.raises(DefinitenessError, match="must be finite"):
        metric_from_basis(basis)


def test_basis_whose_gram_matrix_overflows_is_rejected():
    basis = [new_object(2, (UP,), 0, row) for row in ([1e200, 0.0], [0.0, 1e200])]
    with pytest.raises(DefinitenessError, match="finite"):
        metric_from_basis(basis)


@pytest.mark.parametrize(
    "diagonal", [[1e200, 1e200, 1.0], [1e160, 1e160, 1e160], [1e300, 1e10]]
)
def test_metric_whose_leading_minors_overflow_is_rejected(diagonal):
    # the last minor used to come back as det_g = inf, so the epsilon tensor
    # divided by inf and cross products were silently zero
    with pytest.raises(DefinitenessError, match="overflow"):
        metric_from_tensor(np.diag(diagonal))


def test_orthonormal_metric_is_identity():
    m = orthonormal_metric(3)
    assert np.array_equal(m.g.components, np.eye(3))
    assert m.det_g == 1.0


def test_lower_and_raise_match_explicit_sums():
    rng = np.random.default_rng(2)
    m = random_metric(rng, 3)
    x = _vec(rng)
    low = lower_index(x, 0, m)
    assert low.slots == (DOWN,)
    for r in range(3):
        expected = sum(m.g.components[r, s] * x.components[s] for s in range(3))
        assert abs(low.components[r] - expected) <= 1e-12
    back = raise_index(low, 0, m)
    assert np.allclose(back.components, x.components, atol=1e-9)


def _tensordot_move(t, slot, matrix):
    """The ``tensordot`` form of raising and lowering, kept as the bytes reference."""
    return np.asarray(
        np.moveaxis(np.tensordot(t.components, matrix, axes=([slot], [1])), -1, slot),
        order="C",
    )


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_raise_and_lower_are_byte_identical_to_tensordot(dim):
    rng = np.random.default_rng(dim + 50)
    for rank in range(1, 5):
        for slots in itertools.product((UP, DOWN), repeat=rank):
            m = random_metric(rng, dim)
            t = new_object(dim, slots, 1, rng.normal(size=(dim,) * rank))
            for slot, variance in enumerate(slots):
                if variance is UP:
                    got = lower_index(t, slot, m)
                    expected = _tensordot_move(t, slot, m.g.components)
                else:
                    got = raise_index(t, slot, m)
                    expected = _tensordot_move(t, slot, m.g_inv.components)
                assert got.weight == 1 and got.components.flags.c_contiguous
                assert got.components.tobytes() == expected.tobytes(), (dim, slots, slot)


def test_move_index_slot_rules():
    rng = np.random.default_rng(3)
    m = random_metric(rng, 3)
    t = new_object(3, (UP, DOWN), 0, rng.uniform(-1, 1, (3, 3)))
    lowered = lower_index(t, 0, m)
    assert lowered.slots == (DOWN, DOWN)
    with pytest.raises(AddressingError):
        lower_index(t, 2, m)
    from indicial.errors import ConventionError
    with pytest.raises(ConventionError):
        lower_index(t, 1, m)  # already lower
    with pytest.raises(ConventionError):
        raise_index(t, 0, m)  # already upper


@pytest.mark.parametrize("move", [lower_index, raise_index])
@pytest.mark.parametrize("slot", [True, False, 1.0, 0.0, "0"])
def test_move_index_refuses_non_integer_slots(move, slot):
    m = orthonormal_metric(3)
    t = new_object(3, (UP, DOWN), 0, np.arange(9.0))
    with pytest.raises(AddressingError):
        move(t, slot, m)


def test_move_index_accepts_numpy_integer_slots():
    m = random_metric(np.random.default_rng(3), 3)
    t = new_object(3, (UP, DOWN), 0, np.arange(9.0))
    assert lower_index(t, np.int64(0), m) == lower_index(t, 0, m)
    assert raise_index(t, np.int64(1), m) == raise_index(t, 1, m)


@pytest.mark.parametrize("g", [[["a", "b"], ["c", "d"]], [[1.0, 0.0], [0.0]]])
def test_metric_from_tensor_refuses_non_numeric_matrices(g):
    with pytest.raises(ShapeError, match="rectangular array of numbers"):
        metric_from_tensor(g)


def test_inner_is_the_metric_quadratic_form():
    rng = np.random.default_rng(4)
    m = random_metric(rng, 3)
    x, y = _vec(rng), _vec(rng)
    got = inner(x, y, m)
    expected = float(x.components @ m.g.components @ y.components)
    assert abs(got - expected) <= 1e-12
    assert abs(inner(x, y, m) - inner(y, x, m)) <= 1e-12


def test_levi_civita_tensor_scaling():
    rng = np.random.default_rng(5)
    m = random_metric(rng, 3)
    root = np.sqrt(m.det_g)
    low = levi_civita_tensor(m, DOWN)
    up = levi_civita_tensor(m, UP)
    assert low.weight == 0 and up.weight == 0
    assert abs(low.components[0, 1, 2] - root) <= 1e-12
    assert abs(up.components[0, 1, 2] - 1.0 / root) <= 1e-12
    with pytest.raises(ShapeError):
        levi_civita_tensor(random_metric(rng, 4), DOWN)


def test_cross_matches_the_component_formula_when_orthonormal():
    rng = np.random.default_rng(6)
    m = orthonormal_metric(3)
    x, y = _vec(rng), _vec(rng)
    got = cross(x, y, m)
    assert got.slots == (UP,)
    expected = cross3(x.components.tolist(), y.components.tolist())
    assert np.allclose(got.components, expected, atol=1e-12)


def test_cross_is_antisymmetric_and_orthogonal():
    rng = np.random.default_rng(7)
    m = random_metric(rng, 3)
    x, y = _vec(rng), _vec(rng)
    z = cross(x, y, m)
    anti = cross(y, x, m)
    assert np.allclose(z.components, -anti.components, atol=1e-12)
    assert abs(inner(z, x, m)) <= 1e-9
    assert abs(inner(z, y, m)) <= 1e-9


def test_skew_frame_cross_is_the_conjugated_orthonormal_cross():
    """Push an orthonormal frame through a positively oriented change."""
    rng = np.random.default_rng(8)
    for _ in range(20):
        while True:
            f = random_frame(rng, 3)
            if 1.0 / f.det_gamma > 0:
                break
        g_new = metric_from_tensor(
            transform(kronecker(3, KroneckerKind.LOWER_LOWER), f)
        )
        x, y = _vec(rng), _vec(rng)
        got = cross(x, y, g_new)
        x_old = f.gamma.components @ x.components
        y_old = f.gamma.components @ y.components
        expected = f.c.components @ np.array(
            cross3(x_old.tolist(), y_old.tolist())
        )
        assert np.max(np.abs(got.components - expected)) <= 1e-9


def test_triple_product_is_the_oriented_volume():
    rng = np.random.default_rng(9)
    m = orthonormal_metric(3)
    x, y, z = _vec(rng), _vec(rng), _vec(rng)
    got = triple(x, y, z, m)
    expected = dot3(
        x.components.tolist(),
        cross3(y.components.tolist(), z.components.tolist()),
    )
    assert abs(got - expected) <= 1e-12
    # non-orthonormal metrics: the volume spanned by the lowered vectors,
    # relative to the volume's scale since it may cancel to near zero
    for _ in range(50):
        m = random_metric(rng, 3)
        x, y, z = _vec(rng), _vec(rng), _vec(rng)
        lowered = np.stack([m.g.components @ v.components for v in (x, y, z)])
        root = np.sqrt(np.linalg.det(m.g.components))
        expected = np.linalg.det(lowered) / root
        scale = np.prod(np.linalg.norm(lowered, axis=1)) / root
        assert abs(triple(x, y, z, m) - expected) <= 1e-12 * scale


def test_double_cross_identity():
    rng = np.random.default_rng(10)
    for _ in range(20):
        m = random_metric(rng, 3)
        x, y, z = _vec(rng), _vec(rng), _vec(rng)
        lhs = cross(x, cross(y, z, m), m)
        rhs = inner(x, z, m) * y.components - inner(x, y, m) * z.components
        assert np.max(np.abs(lhs.components - rhs)) <= 1e-9


def test_cross_requires_contravariant_vectors():
    rng = np.random.default_rng(11)
    m = orthonormal_metric(3)
    bad = new_object(3, (DOWN,), 0, [1.0, 0.0, 0.0])
    with pytest.raises(ShapeError):
        cross(bad, _vec(rng), m)
    with pytest.raises(ShapeError):
        inner(bad, _vec(rng), m)


def test_random_metric_is_positive_definite():
    rng = np.random.default_rng(12)
    for _ in range(10):
        m = random_metric(rng, 3)
        assert m.det_g > 0
        v = rng.uniform(-1, 1, 3)
        assert v @ m.g.components @ v > 0


def test_metric_from_basis_refuses_an_empty_basis():
    with pytest.raises(ShapeError, match="empty basis"):
        metric_from_basis([])


@pytest.mark.parametrize("move, slots", [(lower_index, (UP,)), (raise_index, (DOWN,))])
def test_moving_an_index_refuses_a_metric_of_another_dim(move, slots):
    with pytest.raises(ShapeError, match="object has dim 2, metric has dim 3"):
        move(new_object(2, slots, 0, [1.0, 2.0]), 0, orthonormal_metric(3))


def test_inner_refuses_vectors_of_another_dim_than_the_metric():
    x = new_object(2, (UP,), 0, [1.0, 2.0])
    with pytest.raises(ShapeError, match="vector has dim 2, expected 3"):
        inner(x, x, orthonormal_metric(3))


@pytest.mark.parametrize("call, message", [
    (lambda x, m: levi_civita_tensor(m, UP), "the epsilon tensor is provided for dim 3 only"),
    (lambda x, m: cross(x, x, m), "cross product is dim-3 only"),
    (lambda x, m: triple(x, x, x, m), "triple product is dim-3 only"),
])
def test_the_dim_3_products_refuse_a_metric_of_another_dim(call, message):
    with pytest.raises(ShapeError, match=f"{message}, got (metric dim )?2"):
        call(new_object(2, (UP,), 0, [1.0, 2.0]), orthonormal_metric(2))


@pytest.mark.parametrize("dim", [0, -1, 2.0, True])
@pytest.mark.parametrize("helper", [random_frame, random_metric])
def test_the_random_helpers_refuse_a_bad_dim_before_drawing(helper, dim):
    # a 0 x 0 draw would pass no determinant test: the sampler checks first
    with pytest.raises(ShapeError, match="dim must be a positive integer"):
        helper(np.random.default_rng(0), dim)
