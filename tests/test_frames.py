import copy
import dataclasses
import itertools
import pickle
import weakref

import numpy as np
import pytest

from oracles import direct_law

from indicial import frames
from indicial.determinants import determinant
from indicial.errors import ShapeError, SingularityError
from indicial.frames import (
    compose,
    frame_from_matrix,
    identity_frame,
    inverse_frame,
    random_frame,
    transform,
    transform_basis,
    verify_transform_law,
)
from indicial.metric import metric_from_basis, metric_from_tensor, orthonormal_metric
from indicial.minkowski import boost
from indicial.objects import (
    DOWN,
    UP,
    add,
    contract,
    new_object,
    outer_product,
    zeros,
)
from indicial.symbols import KroneckerKind, kronecker, levi_civita_symbol


def _rand(rng, dim, slots, weight=0):
    return new_object(dim, slots, weight, rng.uniform(-1, 1, (dim,) * len(slots)))


def test_frame_from_matrix_accepts_arrays_and_objects():
    f = frame_from_matrix([[2.0, 0.0], [0.0, 1.0]])
    assert f.dim == 2
    assert np.allclose(f.gamma.components, [[0.5, 0.0], [0.0, 1.0]])
    assert abs(f.det_gamma - 0.5) < 1e-15
    same = frame_from_matrix(new_object(2, (UP, DOWN), 0, [[2.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(same.c.components, f.c.components)


def test_frame_from_matrix_rejections():
    with pytest.raises(SingularityError):
        frame_from_matrix([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(ShapeError):
        frame_from_matrix(new_object(2, (UP, UP), 0, np.eye(2)))
    with pytest.raises(ShapeError):
        frame_from_matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


@pytest.mark.parametrize("c", [[["a", "b"], ["c", "d"]], [[1.0, 0.0], [0.0]]])
def test_frame_from_matrix_refuses_non_numeric_matrices(c):
    with pytest.raises(ShapeError, match="rectangular array of numbers"):
        frame_from_matrix(c)


def test_identity_and_inverse_and_compose():
    rng = np.random.default_rng(0)
    f = random_frame(rng, 3)
    ident = identity_frame(3)
    assert np.array_equal(ident.c.components, np.eye(3))
    inv = inverse_frame(f)
    assert np.array_equal(inv.c.components, f.gamma.components)
    round_trip = compose(f, inv)
    assert np.allclose(round_trip.c.components, np.eye(3), atol=1e-9)
    # compose applies the first frame, then the second
    g = random_frame(rng, 3)
    both = compose(f, g)
    x = _rand(rng, 3, (UP,))
    one = transform(transform(x, f), g)
    two = transform(x, both)
    assert np.allclose(one.components, two.components, atol=1e-12)


_ALL_SLOTS = [
    (),
    (UP,),
    (DOWN,),
    (UP, DOWN),
    (DOWN, DOWN),
    (UP, UP),
    (UP, UP, DOWN),
    (DOWN, DOWN, DOWN),
]


@pytest.mark.parametrize("slots", _ALL_SLOTS)
@pytest.mark.parametrize("weight", [-2, -1, 0, 1, 2])
def test_transform_matches_direct_law(slots, weight):
    """The vectorized law against an explicit loop over index tuples."""
    rng = np.random.default_rng(len(slots) * 10 + weight + 2)
    f = random_frame(rng, 3)
    t = _rand(rng, 3, slots, weight)
    got = transform(t, f)
    expected = direct_law(
        t,
        f.c.components.tolist(),
        f.gamma.components.tolist(),
        f.det_gamma,
        weight,
    )
    assert got.weight == weight
    assert got.slots == slots
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(got.components - expected)) <= 1e-12 * scale


def _tensordot_law(t, f):
    """The per-slot ``tensordot`` law, kept as the bytes reference."""
    arr = t.components
    for k, variance in enumerate(t.slots):
        if variance is UP:
            arr = np.moveaxis(np.tensordot(arr, f.c.components, axes=([k], [1])), -1, k)
        else:
            arr = np.moveaxis(np.tensordot(arr, f.gamma.components, axes=([k], [0])), -1, k)
    if t.weight != 0:
        factor = 1.0
        for _ in range(abs(t.weight)):
            factor = factor * f.det_gamma if t.weight > 0 else factor / f.det_gamma
        arr = arr * factor
    return np.asarray(arr, order="C")


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_transform_is_byte_identical_to_the_tensordot_law(dim):
    rng = np.random.default_rng(dim + 40)
    for rank in range(5):
        for slots in itertools.product((UP, DOWN), repeat=rank):
            for weight in (-1, 0, 1, 2):
                f = random_frame(rng, dim)
                t = new_object(dim, slots, weight, rng.normal(size=(dim,) * rank))
                got = transform(t, f).components
                expected = _tensordot_law(t, f)
                assert got.shape == expected.shape and got.flags.c_contiguous
                assert got.tobytes() == expected.tobytes(), (dim, slots, weight)


def test_frame_with_nan_residual_is_rejected(monkeypatch):
    def nan_inverse(m, d):
        return np.full((d, d), np.nan)

    monkeypatch.setattr(frames, "_checked_inverse", nan_inverse)
    with pytest.raises(SingularityError, match="residual nan"):
        frame_from_matrix(np.eye(3))


@pytest.mark.parametrize("diagonal", [1.0, 2.0])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_frame_with_one_nan_in_gamma_is_rejected_as_nan(monkeypatch, dim, diagonal):
    """A NaN at any position of gamma fills its row of gamma c with NaN, which
    Python's max skips past the first entry; the residual must read NaN
    whether the rest of it passes (gamma = 1) or not (gamma = 2)."""
    for i, j in itertools.product(range(dim), repeat=2):
        gamma = diagonal * np.eye(dim)
        gamma[i, j] = np.nan
        monkeypatch.setattr(frames, "_checked_inverse", lambda m, d: gamma.copy())
        with pytest.raises(SingularityError, match="residual nan"):
            frame_from_matrix(np.eye(dim))


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_frame_residual_with_both_infinities_and_no_nan_reads_inf(monkeypatch, dim):
    # gamma c overflows to +inf and -inf, whose sum is NaN without a NaN entry
    gamma = np.eye(dim)
    gamma[0, 0], gamma[1, 1] = 1e308, -1e308
    monkeypatch.setattr(frames, "_checked_inverse", lambda m, d: gamma.copy())
    with pytest.raises(SingularityError, match="residual inf"), np.errstate(over="ignore"):
        frame_from_matrix(2.0 * np.eye(dim))



def test_frame_whose_det_gamma_overflows_is_singular():
    # det(c) = 1e-320 clears the singularity cutoff, det(gamma) = 1e320 is inf;
    # a weight-1 scalar used to transform to inf, a weight -1 one to 0.0
    with pytest.raises(SingularityError, match="det\\(gamma\\) = inf"):
        frame_from_matrix(np.diag([1e-160, 1e-160]))


def test_inverse_frame_whose_det_c_overflows_is_singular():
    # frame_from_matrix refuses a c whose det overflows, but a product of two
    # frames can carry one: det(gamma) = 1e-308 * 1e-2 = 1e-310, det(c) = 1e310
    f = compose(frame_from_matrix(np.diag([1e154, 1e154])), frame_from_matrix(np.diag([10.0, 10.0])))
    assert 0.0 < f.det_gamma < 1e-300
    with pytest.raises(SingularityError, match="det\\(gamma\\) = inf"):
        inverse_frame(f)


def test_compose_whose_det_gamma_leaves_float64_is_singular():
    big = frame_from_matrix(np.diag([1e-100, 1e-100]))  # det(gamma) = 1e200
    with pytest.raises(SingularityError, match="det\\(gamma\\) = inf"):
        compose(big, big)
    # 1e-200 * 1e-200 underflows to 0.0, and a weight -1 transform would
    # then divide by zero
    small = frame_from_matrix(np.diag([1e100, 1e100]))
    with pytest.raises(SingularityError, match="det\\(gamma\\) = 0.0"):
        compose(small, small)
    assert compose(big, small).det_gamma == pytest.approx(1.0)

def test_transform_rejects_dim_mismatch():
    f = identity_frame(3)
    with pytest.raises(ShapeError):
        transform(zeros(2, (UP,)), f)


def test_scalar_density_picks_up_the_jacobian_power():
    f = frame_from_matrix([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    s = new_object(3, (), 1, [3.0])
    assert abs(transform(s, f).as_scalar() - 1.5) < 1e-15  # det gamma = 1/2


def test_mixed_delta_is_invariant():
    rng = np.random.default_rng(1)
    delta = kronecker(3, KroneckerKind.MIXED)
    for _ in range(5):
        f = random_frame(rng, 3)
        assert np.max(np.abs(transform(delta, f).components - np.eye(3))) <= 1e-12


def test_stretch_moves_fixed_variance_deltas():
    f = frame_from_matrix(np.diag([2.0, 1.0, 1.0]))
    lower = transform(kronecker(3, KroneckerKind.LOWER_LOWER), f)
    upper = transform(kronecker(3, KroneckerKind.UPPER_UPPER), f)
    assert np.allclose(lower.components, np.diag([0.25, 1.0, 1.0]), atol=1e-15)
    assert np.allclose(upper.components, np.diag([4.0, 1.0, 1.0]), atol=1e-15)


def test_levi_civita_symbols_are_invariant_with_their_weights():
    rng = np.random.default_rng(2)
    f = random_frame(rng, 3)
    for variance in (UP, DOWN):
        e = levi_civita_symbol(3, variance)
        moved = transform(e, f)
        assert np.max(np.abs(moved.components - e.components)) <= 1e-9


def test_transform_commutes_with_algebra():
    rng = np.random.default_rng(3)
    f = random_frame(rng, 3)
    a = _rand(rng, 3, (UP, DOWN), weight=1)
    b = _rand(rng, 3, (UP, DOWN), weight=1)
    v = _rand(rng, 3, (DOWN,), weight=-1)

    sum_then = transform(add(a, b), f)
    then_sum = add(transform(a, f), transform(b, f))
    assert np.allclose(sum_then.components, then_sum.components, atol=1e-12)
    assert sum_then.weight == then_sum.weight == 1

    prod_then = transform(outer_product(a, v), f)
    then_prod = outer_product(transform(a, f), transform(v, f))
    assert np.allclose(prod_then.components, then_prod.components, atol=1e-12)
    assert prod_then.weight == 0

    tr_then = transform(contract(a, 0, 1), f)
    then_tr = contract(transform(a, f), 0, 1)
    assert np.allclose(tr_then.components, then_tr.components, atol=1e-12)


def test_transform_basis_follows_the_law():
    rng = np.random.default_rng(4)
    f = random_frame(rng, 3)
    while True:
        rows = rng.uniform(-1, 1, (3, 3))
        if abs(np.linalg.det(rows)) >= 0.1:
            break
    basis = [new_object(3, (UP,), 0, rows[r]) for r in range(3)]
    moved = transform_basis(f, basis)
    for r in range(3):
        expected = sum(f.gamma.components[s, r] * rows[s] for s in range(3))
        assert np.allclose(moved[r].components, expected, atol=1e-12)


def test_transform_basis_rejects_dependent_vectors():
    rows = np.eye(3)
    rows[2] = rows[0] + rows[1]
    basis = [new_object(3, (UP,), 0, rows[r]) for r in range(3)]
    with pytest.raises(SingularityError):
        transform_basis(identity_frame(3), basis)
    # a NaN component makes a NaN det, which counts as singular as in `inverse`
    rows = np.eye(3)
    rows[1, 2] = np.nan
    basis = [new_object(3, (UP,), 0, rows[r]) for r in range(3)]
    with pytest.raises(SingularityError, match="linearly dependent"):
        transform_basis(identity_frame(3), basis)
    with pytest.raises(ShapeError):
        transform_basis(identity_frame(3), [zeros(3, (UP,))] * 2)  # wrong count


def test_verify_transform_law_both_directions():
    rng = np.random.default_rng(5)
    f = random_frame(rng, 3)
    t = _rand(rng, 3, (UP, DOWN), weight=2)
    good = transform(t, f)
    assert verify_transform_law(t, good, f, weight=2)
    assert not verify_transform_law(t, t, f, weight=2)
    # wrong weight fails even with the right components
    assert not verify_transform_law(t, good, f, weight=0)
    with pytest.raises(ShapeError):
        verify_transform_law(t, zeros(3, (UP, UP), weight=2), f, weight=2)


@pytest.mark.parametrize("weight", [1.5, "1", None, True, np.float64(1.0)])
def test_verify_transform_law_refuses_a_weight_that_is_not_an_int(weight):
    t = new_object(2, (UP,), 0, [1.0, 2.0])
    with pytest.raises(ShapeError, match="weight must be an integer"):
        verify_transform_law(t, t, identity_frame(2), weight)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), 10**400],
                         ids=["nan", "inf", "-inf", "10**400"])
def test_verify_transform_law_refuses_a_tolerance_that_is_not_finite(tol):
    # np.allclose would warn "One of rtol or atol is not valid"
    t = new_object(2, (UP,), 0, [1.0, 2.0])
    with pytest.raises(ShapeError, match="tol must be finite"):
        verify_transform_law(t, t, identity_frame(2), 0, tol=tol)


def test_verify_transform_law_reads_a_negative_tolerance_as_an_exact_match():
    t = new_object(2, (UP,), 0, [1.0, 2.0])
    near = new_object(2, (UP,), 0, [1.0, 2.0 + 1e-15])
    assert verify_transform_law(t, t, identity_frame(2), 0, tol=-1.0)
    assert not verify_transform_law(t, near, identity_frame(2), 0, tol=-1.0)


def test_verify_transform_law_at_a_weight_other_than_the_objects():
    # c = diag(2, 1, 1): det(gamma) = 1/2 scales the weight-1 law
    f = frame_from_matrix(np.diag([2.0, 1.0, 1.0]))
    x = new_object(3, (UP,), 0, [1.0, 2.0, 3.0])
    at_zero = new_object(3, (UP,), 0, [2.0, 2.0, 3.0])
    at_one = new_object(3, (UP,), 0, [1.0, 1.0, 1.5])
    assert verify_transform_law(x, at_one, f, weight=1)
    assert not verify_transform_law(x, at_one, f, weight=0)
    assert verify_transform_law(x, at_zero, f, weight=0)
    assert not verify_transform_law(x, at_zero, f, weight=1)
    assert x.weight == 0 and at_one.weight == 0


def test_transform_raises_when_the_determinant_power_overflows():
    # det(c) = 1e308 is finite and det(gamma) = 1e-308 subnormal, so
    # det(gamma) ** -2 is not finite
    f = frame_from_matrix(np.diag([1e154, 1e154]))
    assert 0.0 < f.det_gamma < 1e-300
    with pytest.raises(SingularityError, match="outside float64"):
        transform(new_object(2, (), -2, [1.0]), f)
    assert transform(new_object(2, (), 0, [1.0]), f).as_scalar() == 1.0


@pytest.mark.parametrize("weight", [10**12, -(10**12)])
def test_huge_weights_transform_by_squaring(weight):
    # one product per unit of weight would not finish
    f = frame_from_matrix(boost(0.3))
    got = transform(new_object(4, (UP,), weight, [1.0, 0.0, 0.0, 0.0]), f)
    assert np.isfinite(got.components).all()
    assert got.weight == weight
    assert frames._int_power(-2.0, 61) == -(2.0**61)
    assert frames._int_power(-0.5, -62) == 2.0**62


@pytest.mark.parametrize("diagonal, weight", [
    (0.5, 10**400), (2.0, -(10**400)),  # the power overflows
    (2.0, 10**400), (0.5, -(10**400)), (2.0, 1100),  # it underflows to 0.0
])
def test_a_weight_beyond_any_float64_power_is_singular(diagonal, weight):
    f = frame_from_matrix(np.diag([diagonal, diagonal]))  # |det(gamma)| is 4 or 1/4
    with pytest.raises(SingularityError, match="outside float64"):
        transform(new_object(2, (), weight, [1.0]), f)
    # a nonzero vector would come out as silent zeros
    with pytest.raises(SingularityError, match="outside float64"):
        transform(new_object(2, (UP,), weight, [1.0, 3.0]), f)


@pytest.mark.parametrize("diagonal, weight", [
    (2.0, 10**400), (0.5, -(10**400)), (2.0, 1100),
])
def test_an_underflowing_power_leaves_a_zero_object_exactly_zero(diagonal, weight):
    f = frame_from_matrix(np.diag([diagonal, diagonal]))
    got = transform(new_object(2, (UP,), weight, [0.0, 0.0]), f)
    assert got == new_object(2, (UP,), weight, [0.0, 0.0])
    # an overflowing power still refuses it: 0 * inf is NaN
    with pytest.raises(SingularityError, match="outside float64"):
        transform(new_object(2, (UP,), -weight, [0.0, 0.0]), f)


def test_weight_arithmetic_is_exact():
    rng = np.random.default_rng(6)
    f = random_frame(rng, 3)
    a = _rand(rng, 3, (UP,), weight=3)
    b = _rand(rng, 3, (DOWN,), weight=-1)
    assert outer_product(a, b).weight == 2
    assert transform(outer_product(a, b), f).weight == 2
    assert contract(outer_product(a, b), 0, 1).weight == 2
    assert transform(zeros(3, (), weight=5), f).weight == 5


def test_random_frame_is_reproducible_and_conditioned():
    one = random_frame(np.random.default_rng(77), 3)
    two = random_frame(np.random.default_rng(77), 3)
    assert np.array_equal(one.c.components, two.c.components)
    for seed in range(10):
        f = random_frame(np.random.default_rng(seed), 4, min_det=0.2)
        assert abs(determinant(f.c)) >= 0.2


def test_compose_refuses_frames_of_different_dims():
    with pytest.raises(ShapeError, match="dim mismatch: 2 vs 3"):
        compose(identity_frame(2), identity_frame(3))


_RECORD_PRODUCERS = {
    "frame_from_matrix": lambda: frame_from_matrix([[2.0, 1.0], [0.5, 3.0]]),
    "identity_frame": lambda: identity_frame(3),
    "inverse_frame": lambda: inverse_frame(frame_from_matrix([[2.0, 1.0], [0.5, 3.0]])),
    "compose": lambda: compose(
        random_frame(np.random.default_rng(3), 4), random_frame(np.random.default_rng(4), 4)
    ),
    "random_frame": lambda: random_frame(np.random.default_rng(5), 5),
    "metric_from_tensor": lambda: metric_from_tensor([[2.0, 0.5], [0.5, 1.0]]),
    "metric_from_basis": lambda: metric_from_basis(
        [new_object(3, (UP,), 0, row) for row in [[1.0, 0, 0], [1, 2, 0], [0, 1, 3]]]
    ),
    "orthonormal_metric": lambda: orthonormal_metric(4),
}


@pytest.mark.parametrize("produce", _RECORD_PRODUCERS.values(), ids=_RECORD_PRODUCERS)
def test_every_frame_and_metric_producer_returns_a_complete_frozen_record(produce):
    """Frame and Metric write their fields straight to the instance dict:
    each record holds exactly its fields, in field order, and behaves as a
    frozen dataclass under replace, pickle, copy, weak references and
    assignment or deletion."""
    rec = produce()
    names = [f.name for f in dataclasses.fields(rec)]
    values = {name: getattr(rec, name) for name in names}
    assert list(rec.__dict__) == names
    for built in (type(rec)(*values.values()), type(rec)(**values)):
        assert built.__dict__ == values and list(built.__dict__) == names
        assert all(built.__dict__[name] is values[name] for name in names)
        assert built == rec
    for twin in (dataclasses.replace(rec), pickle.loads(pickle.dumps(rec)),
                 copy.copy(rec), copy.deepcopy(rec)):
        assert type(twin) is type(rec) and twin is not rec and twin == rec
        assert list(twin.__dict__) == names
    last = names[-1]
    changed = dataclasses.replace(rec, **{last: -1.0})
    assert getattr(changed, last) == -1.0 and changed != rec
    assert all(getattr(changed, name) is values[name] for name in names[:-1])
    ref = weakref.ref(rec)
    assert ref() is rec
    for name in names + ["other"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(rec, name)
    assert rec.__dict__ == values
    del rec
    assert ref() is None
