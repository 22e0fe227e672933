import copy
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indicial import objects
from indicial.determinants import determinant, inverse, singularity_threshold
from indicial.einsum import execute, parse, validate
from indicial.errors import AddressingError, ConventionError, ShapeError
from indicial.frames import compose, frame_from_matrix, transform, transform_basis
from indicial.metric import (
    cross,
    levi_civita_tensor,
    lower_index,
    metric_from_basis,
    metric_from_tensor,
    raise_index,
)
from indicial.objects import (
    DOWN,
    MIXED_SLOTS,
    UP,
    Symmetry,
    TensorObject,
    add,
    contract,
    new_object,
    outer_product,
    scale,
    swap_slots,
    symmetrize,
    symmetry_check,
    zeros,
)
from indicial.symbols import levi_civita_symbol


def test_new_object_basic():
    t = new_object(3, (UP, DOWN), 0, np.arange(9.0).reshape(3, 3))
    assert t.dim == 3
    assert t.rank == 2
    assert t.weight == 0
    assert t.components.dtype == np.float64


@pytest.mark.parametrize("fn", [determinant, inverse, singularity_threshold,
                                frame_from_matrix, metric_from_tensor])
def test_a_zero_by_zero_matrix_is_refused_for_its_dimension(fn):
    # matrix_object words this rejection; without it numpy's errors leak
    with pytest.raises(ShapeError) as exc:
        fn(np.zeros((0, 0)))
    assert str(exc.value) == "dim must be a positive integer, got 0"


def test_new_object_accepts_flat_and_nested():
    flat = new_object(2, (DOWN, DOWN), 0, [1.0, 2.0, 3.0, 4.0])
    nested = new_object(2, (DOWN, DOWN), 0, [[1.0, 2.0], [3.0, 4.0]])
    assert flat == nested


def test_new_object_rejects_bad_arguments():
    with pytest.raises(ShapeError):
        new_object(0, (), 0, [1.0])
    with pytest.raises(ShapeError):
        new_object(3, (UP,), 0, [1.0, 2.0])  # wrong length
    with pytest.raises(ShapeError):
        new_object(3, ("up",), 0, [1.0, 2.0, 3.0])  # not a Variance
    with pytest.raises(ShapeError):
        new_object(3, (UP,), 0.5, [1.0, 2.0, 3.0])
    with pytest.raises(ShapeError):
        new_object(3, (UP,), True, [1.0, 2.0, 3.0])  # bool is not an int here
    with pytest.raises(ShapeError):
        new_object(200, (UP, UP, UP, UP), 0, [])  # over the component cap


@pytest.mark.parametrize("slots, make", [
    ((UP, DOWN), lambda: np.arange(9.0)),  # flat: reshaped to (3, 3)
    ((UP, DOWN), lambda: np.arange(9.0).reshape(3, 3)),  # the target shape
    ((UP, DOWN), lambda: np.arange(9.0).reshape(3, 3).T.copy().T),  # F-ordered
    ((UP, DOWN), lambda: np.arange(9.0).reshape(3, 3).repeat(2, axis=1)[:, ::2]),
    ((UP, DOWN), lambda: np.arange(9).reshape(3, 3)),
    ((UP, DOWN), lambda: np.arange(9, dtype=np.float32).reshape(3, 3)),
    ((), lambda: np.array(2.5)),
    ((), lambda: np.float64(2.5)),
], ids=["flat", "shaped", "f-ordered", "strided", "int64", "float32", "0-d",
        "float64-scalar"])
def test_new_object_copies_an_ndarray(slots, make):
    source = make()
    want = np.asarray(make(), dtype=np.float64).reshape((3,) * len(slots))
    t = new_object(3, slots, 0, source)
    c = t.components
    assert c.dtype == np.float64 and c.shape == want.shape
    assert c.flags.c_contiguous and not c.flags.writeable
    assert not np.shares_memory(c, source)
    assert np.array_equal(c, want)
    if isinstance(source, np.ndarray):
        source[(0,) * source.ndim] = 99
        assert np.array_equal(t.components, want)


@pytest.mark.parametrize("make", [
    lambda: np.diag([2.0, 3.0, 4.0]),
    lambda: np.diag([2.0, 3.0, 4.0]).T.copy().T,  # F-ordered
    lambda: np.diag([2, 3, 4]),
], ids=["float64", "f-ordered", "int64"])
@pytest.mark.parametrize("read", [
    lambda m: frame_from_matrix(m).c, lambda m: metric_from_tensor(m).g,
], ids=["frame_from_matrix", "metric_from_tensor"])
def test_a_matrix_read_from_an_ndarray_is_a_private_copy(make, read):
    source = make()
    c = read(source).components
    assert c.dtype == np.float64 and c.flags.c_contiguous and not c.flags.writeable
    assert source.flags.writeable and not np.shares_memory(c, source)
    assert np.array_equal(c, make())


def test_new_object_copies_a_nested_list():
    rows = [[0.0, 1.0], [2.0, 3.0]]
    t = new_object(2, (UP, DOWN), 0, rows)
    rows[0][0] = 99.0
    assert t.components[0, 0] == 0.0


def _assert_frozen(t):
    for name in ("dim", "slots", "weight", "components"):
        with pytest.raises(AttributeError):
            setattr(t, name, getattr(t, name))
        with pytest.raises(AttributeError):
            delattr(t, name)
    with pytest.raises(AttributeError):
        t.extra = 1


def _assert_round_trips(a):
    for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(b) is TensorObject and b == a
        assert not b.components.flags.writeable
        assert not np.shares_memory(b.components, a.components)


def test_tensor_object_fields_cannot_be_assigned_or_deleted():
    t = new_object(2, (UP, DOWN), 1, [1.0, 2.0, 3.0, 4.0])
    _assert_frozen(t)
    assert (t.dim, t.slots, t.weight) == (2, (UP, DOWN), 1)


def test_tensor_object_is_unhashable():
    with pytest.raises(TypeError):
        hash(zeros(2, (UP,)))


def test_tensor_object_equality_and_repr():
    a = new_object(3, (UP, DOWN), 1, np.arange(9.0))
    assert a == TensorObject(3, (UP, DOWN), 1, np.arange(9.0).reshape(3, 3))
    assert a.__eq__(np.arange(9.0)) is NotImplemented
    assert repr(a) == "TensorObject(dim=3, slots=ud, weight=1)"
    assert repr(new_object(2, (), 0, [1.0])) == "TensorObject(dim=2, slots=scalar, weight=0)"


def test_tensor_object_survives_pickle_and_copy():
    _assert_round_trips(new_object(2, (DOWN,), -1, [1.5, -2.0]))


def test_components_are_read_only():
    t = zeros(3, (UP,))
    with pytest.raises(ValueError):
        t.components[0] = 1.0


def test_component_addressing_is_one_based():
    t = new_object(3, (UP, DOWN), 0, np.arange(9.0).reshape(3, 3))
    assert t.component((1, 1)) == 0.0
    assert t.component((3, 2)) == 7.0
    with pytest.raises(AddressingError):
        t.component((0, 1))
    with pytest.raises(AddressingError):
        t.component((1, 4))
    with pytest.raises(AddressingError):
        t.component((1,))


def test_component_accepts_numpy_integers():
    t = new_object(3, (UP, DOWN), 0, np.arange(9.0).reshape(3, 3))
    assert t.component([np.int64(1), 2]) == 1.0
    assert t.component(np.array([3, 2])) == 7.0
    for bad in ([np.int64(4), 1], [True, 1], [1.0, 1], [np.float64(1.0), 1]):
        with pytest.raises(AddressingError):
            t.component(bad)


def test_scalar_extraction():
    s = new_object(3, (), 0, [2.5])
    assert s.as_scalar() == 2.5
    with pytest.raises(ShapeError):
        zeros(3, (UP,)).as_scalar()


def test_equality_is_exact():
    a = new_object(2, (UP,), 0, [1.0, 2.0])
    b = new_object(2, (UP,), 0, [1.0, 2.0])
    c = new_object(2, (UP,), 0, [1.0, 2.0 + 1e-15])
    assert a == b
    assert a != c
    assert a != new_object(2, (UP,), 1, [1.0, 2.0])  # weight differs
    assert a != new_object(2, (DOWN,), 0, [1.0, 2.0])


def test_add_requires_matching_signature():
    a = zeros(3, (UP, DOWN))
    assert add(a, a) == a
    with pytest.raises(ShapeError):
        add(a, zeros(3, (UP, UP)))
    with pytest.raises(ShapeError):
        add(a, zeros(2, (UP, DOWN)))
    with pytest.raises(ShapeError):
        add(a, zeros(3, (UP, DOWN), weight=1))


def test_scale_keeps_signature():
    t = new_object(2, (DOWN,), 3, [1.0, -2.0])
    s = scale(t, -2.0)
    assert s.weight == 3
    assert s.slots == (DOWN,)
    assert list(s.components) == [-2.0, 4.0]


def test_outer_product_concatenates():
    a = new_object(2, (UP,), 1, [1.0, 2.0])
    b = new_object(2, (DOWN,), -3, [3.0, 4.0])
    p = outer_product(a, b)
    assert p.slots == (UP, DOWN)
    assert p.weight == -2
    assert p.component((2, 1)) == 6.0


def test_contract_is_the_trace():
    m = new_object(3, (UP, DOWN), 0, np.arange(9.0).reshape(3, 3))
    assert contract(m, 0, 1).as_scalar() == 0.0 + 4.0 + 8.0


@pytest.mark.parametrize("dim", range(1, 7))
@pytest.mark.parametrize("rank", range(2, 6))
def test_the_one_trace_has_the_bits_of_np_trace(dim, rank):
    # contract and execute both trace through objects._trace; mixed
    # magnitudes make the summation order show in the bits
    rng = np.random.default_rng(100 * dim + rank)

    def draw(r):
        return rng.standard_normal((dim,) * r) * 10.0 ** rng.integers(-8, 9, (dim,) * r)

    # a contiguous input, and the strided view a pinned digit leaves
    for arr in (draw(rank), draw(rank + 1)[(slice(None),) * (rank // 2) + (dim - 1,)]):
        for a, b in itertools.permutations(range(rank), 2):
            got, want = objects._trace(arr, a, b), np.trace(arr, axis1=a, axis2=b)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (a, b)


def test_contract_slot_rules():
    t = zeros(3, (UP, UP, DOWN))
    assert contract(t, 0, 2).slots == (UP,)
    assert contract(t, 1, 2).slots == (UP,)
    with pytest.raises(ConventionError):
        contract(t, 0, 1)  # both upper
    with pytest.raises(AddressingError):
        contract(t, 0, 3)
    with pytest.raises(AddressingError):
        contract(t, 2, 2)


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
def test_slot_positions_accept_numpy_integers(kind):
    t = new_object(3, (UP, DOWN), 0, np.arange(9.0).reshape(3, 3))
    assert contract(t, kind(0), kind(1)) == contract(t, 0, 1)
    d = new_object(3, (DOWN, DOWN), 0, np.arange(9.0).reshape(3, 3))
    assert swap_slots(d, kind(0), kind(1)) == swap_slots(d, 0, 1)
    assert symmetry_check(d, kind(0), kind(1)) is symmetry_check(d, 0, 1)


@pytest.mark.parametrize("pos", [True, False, 1.0, "1", None])
def test_slot_positions_refuse_non_integers(pos):
    t = zeros(3, (UP, DOWN))
    with pytest.raises(AddressingError):
        contract(t, pos, 1)
    with pytest.raises(AddressingError):
        swap_slots(t, 0, pos)


@pytest.mark.parametrize("components", [["a", "b", "c"], [[1.0, 2.0], [3.0]], {"a": 1}])
def test_new_object_refuses_non_numeric_components(components):
    with pytest.raises(ShapeError, match="rectangular array of numbers"):
        new_object(3, (UP,), 0, components)


def test_contract_matches_explicit_sum():
    rng = np.random.default_rng(5)
    t = new_object(3, (UP, DOWN, DOWN), 0, rng.uniform(-1, 1, (3, 3, 3)))
    got = contract(t, 0, 2)
    for s in range(3):
        expected = sum(t.components[m, s, m] for m in range(3))
        assert abs(got.components[s] - expected) < 1e-15


def test_swap_slots():
    rng = np.random.default_rng(6)
    t = new_object(3, (DOWN, DOWN), 0, rng.uniform(-1, 1, (3, 3)))
    assert np.array_equal(swap_slots(t, 0, 1).components, t.components.T)
    assert swap_slots(t, 0, 0) == t
    cube = new_object(2, (UP, UP, UP), 0, np.arange(8.0))
    swapped = swap_slots(cube, 0, 2).components
    assert swapped.flags.c_contiguous and not swapped.flags.writeable
    # flat layout is lexicographic with slot 0 outermost: entry (i, j, k) of
    # the result is entry (k, j, i) of the input, at flat position 4i + 2j + k
    assert swapped.ravel(order="K").tolist() == [0, 4, 2, 6, 1, 5, 3, 7]
    mixed = zeros(3, (UP, DOWN))
    with pytest.raises(ConventionError):
        swap_slots(mixed, 0, 1)  # different variance


def test_symmetry_check_classifies():
    sym = new_object(2, (DOWN, DOWN), 0, [[1.0, 2.0], [2.0, 3.0]])
    anti = new_object(2, (DOWN, DOWN), 0, [[0.0, 2.0], [-2.0, 0.0]])
    neither = new_object(2, (DOWN, DOWN), 0, [[1.0, 2.0], [3.0, 4.0]])
    assert symmetry_check(sym, 0, 1) is Symmetry.SYMMETRIC
    assert symmetry_check(anti, 0, 1) is Symmetry.ANTISYMMETRIC
    assert symmetry_check(neither, 0, 1) is Symmetry.NEITHER
    # the zero object satisfies both; reported as symmetric
    assert symmetry_check(zeros(2, (DOWN, DOWN)), 0, 1) is Symmetry.SYMMETRIC


def test_symmetry_check_classifies_entries_whose_difference_overflows():
    # 1e308 - (-1e308) is inf: under pyproject's error::RuntimeWarning the
    # overflow used to raise instead of classifying
    anti = new_object(2, (DOWN, DOWN), 0, [[0.0, 1e308], [-1e308, 0.0]])
    assert symmetry_check(anti, 0, 1) is Symmetry.ANTISYMMETRIC
    sym = new_object(2, (DOWN, DOWN), 0, [[0.0, 1e308], [1e308, 0.0]])
    assert symmetry_check(sym, 0, 1) is Symmetry.SYMMETRIC
    neither = new_object(2, (DOWN, DOWN), 0, [[0.0, 1e308], [-1e308, 1e308]])
    assert symmetry_check(neither, 0, 1) is Symmetry.NEITHER


def test_symmetry_check_at_zero_tolerance_is_exact():
    sym = new_object(2, (DOWN, DOWN), 0, [[1.0, 2.0], [2.0, 3.0]])
    anti = new_object(2, (DOWN, DOWN), 0, [[0.0, 2.0], [-2.0, 0.0]])
    assert symmetry_check(sym, 0, 1, tol=0.0) is Symmetry.SYMMETRIC
    assert symmetry_check(anti, 0, 1, tol=0.0) is Symmetry.ANTISYMMETRIC


def test_exactly_the_storage_cap_is_stored(monkeypatch):
    monkeypatch.setattr(objects, "MAX_COMPONENTS", 9)
    assert new_object(3, MIXED_SLOTS, 0, np.eye(3)).components.size == 9
    assert determinant(np.eye(3)) == 1.0  # a matrix array-like, one copy
    monkeypatch.setattr(objects, "MAX_COMPONENTS", 8)
    for build in (lambda: new_object(3, MIXED_SLOTS, 0, np.eye(3)),
                  lambda: determinant(np.eye(3))):
        with pytest.raises(ShapeError, match="dim\\*\\*rank = 9 > 8"):
            build()


def test_more_slots_than_the_rank_cap_are_refused():
    # numpy 1.x arrays hold at most 32 dimensions and 2.x at most 64; at
    # dim 1 only the slot cap stops a build before numpy's own ValueError
    for build in (lambda: zeros(1, (UP,) * 65),
                  lambda: new_object(1, (DOWN,) * 33, 0, [2.0]),
                  lambda: outer_product(zeros(1, (UP,) * 20), zeros(1, (DOWN,) * 20))):
        with pytest.raises(ShapeError, match=r"^rank (33|40|65) exceeds the slot cap of 32$"):
            build()
    assert outer_product(zeros(1, (UP,) * 16), zeros(1, (DOWN,) * 16)).rank == 32
    # at dim 2 the storage cap binds first, from rank 24
    with pytest.raises(ShapeError, match="dense storage cap exceeded"):
        zeros(2, (UP,) * 33)


def test_symmetrize():
    rng = np.random.default_rng(7)
    t = new_object(3, (UP, UP), 0, rng.uniform(-1, 1, (3, 3)))
    s = symmetrize(t, 0, 1)
    assert symmetry_check(s, 0, 1) is Symmetry.SYMMETRIC
    residual = t.components - s.components
    assert np.allclose(residual, -residual.T)


@given(st.integers(2, 4), st.integers(0, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_add_commutes(dim, rank, data):
    slots = tuple(
        data.draw(st.sampled_from([UP, DOWN])) for _ in range(rank)
    )
    shape = (dim,) * rank
    draw_arr = st.lists(
        st.floats(-10, 10, allow_nan=False), min_size=dim**rank, max_size=dim**rank
    )
    a = new_object(dim, slots, 0, np.array(data.draw(draw_arr)).reshape(shape))
    b = new_object(dim, slots, 0, np.array(data.draw(draw_arr)).reshape(shape))
    assert add(a, b) == add(b, a)


@given(st.integers(2, 3))
@settings(max_examples=10, deadline=None)
def test_outer_then_contract_is_matrix_trace(dim):
    rng = np.random.default_rng(dim)
    x = new_object(dim, (UP,), 0, rng.uniform(-1, 1, dim))
    a = new_object(dim, (DOWN,), 0, rng.uniform(-1, 1, dim))
    dot = contract(outer_product(x, a), 0, 1).as_scalar()
    assert abs(dot - float(x.components @ a.components)) < 1e-12



# Each producer below returns (results, arguments): the objects it built, and
# the writable objects it built them from.

def _writable(slots, weight=0, seed=0, shift=0.0):
    """A dim-3 object on a writable array, which only the raw constructor
    builds; ``shift`` adds that multiple of the identity to a matrix."""
    arr = np.random.default_rng(seed).uniform(-1, 1, (3,) * len(slots))
    if shift:
        arr += shift * np.eye(3)
    return TensorObject(3, slots, weight, arr)


def _run(text, **bindings):
    return [execute(validate(parse(text), bindings), bindings)], list(bindings.values())


def _one(fn, slots=MIXED_SLOTS, shift=0.0):
    t = _writable(slots, shift=shift)
    return [fn(t)], [t]


def _pair(fn):
    a, b = _writable(MIXED_SLOTS), _writable(MIXED_SLOTS, seed=1)
    return [fn(a, b)], [a, b]


def _frame(seed):
    c = _writable(MIXED_SLOTS, seed=seed, shift=3.0)
    return frame_from_matrix(c), [c]


def _metric():
    a = np.random.default_rng(0).uniform(-1, 1, (3, 3))
    g = TensorObject(3, (DOWN, DOWN), 0, a @ a.T + 3.0 * np.eye(3))
    return metric_from_tensor(g), [g]


def _compose():
    (f, f_args), (g, g_args) = _frame(1), _frame(2)
    h = compose(f, g)
    return [h.c, h.gamma], f_args + g_args


def _transform():
    f, args = _frame(1)
    t = _writable((UP, DOWN), weight=1, seed=2)
    return [transform(t, f)], args + [t]


def _transform_basis():
    f, args = _frame(1)
    basis = [_writable((UP,), seed=k) for k in range(3)]
    return transform_basis(f, basis), args + basis


def _g_inv():
    m, args = _metric()
    return [m.g_inv], args


def _metric_from_basis():
    basis = [_writable((UP,), seed=k) for k in range(3)]
    m = metric_from_basis(basis)
    return [m.g, m.g_inv], basis


def _with_metric(product):
    m, args = _metric()
    x, y = _writable((UP,), seed=1), _writable((UP,), seed=2)
    return [product(m, x, y)], args + [x, y]


PRODUCERS = {
    "execute-lone-factor": lambda: _run("y^r = x^r", x=_writable((UP,))),
    "execute-fixed-slice": lambda: _run("y^r = a^r_1", a=_writable(MIXED_SLOTS)),
    "execute-product": lambda: _run(
        "y^r = a^r_s x^s", a=_writable(MIXED_SLOTS), x=_writable((UP,), seed=1)
    ),
    "execute-trace": lambda: _run("t = a^r_r", a=_writable(MIXED_SLOTS)),
    "execute-trace-rank-3": lambda: _run("v_r = e^s_r_s", e=_writable((UP, DOWN, DOWN))),
    "execute-scaled-sum": lambda: _run(
        "y^r = 2 * a^r_s x^s - x^r", a=_writable(MIXED_SLOTS), x=_writable((UP,), seed=1)
    ),
    "add": lambda: _pair(add),
    "scale": lambda: _one(lambda t: scale(t, 2.0)),
    "outer_product": lambda: _pair(outer_product),
    "contract": lambda: _one(lambda t: contract(t, 0, 1)),
    "swap_slots": lambda: _one(lambda t: swap_slots(t, 0, 1), (UP, UP)),
    "symmetrize": lambda: _one(lambda t: symmetrize(t, 0, 1), (DOWN, DOWN)),
    "inverse": lambda: _one(inverse, shift=3.0),
    "compose": _compose,
    "transform": _transform,
    "transform_basis": _transform_basis,
    "g_inv": _g_inv,
    "metric_from_basis": _metric_from_basis,
    "lower_index": lambda: _with_metric(lambda m, x, y: lower_index(x, 0, m)),
    "raise_index": lambda: _with_metric(
        lambda m, x, y: raise_index(lower_index(x, 0, m), 0, m)
    ),
    "cross": lambda: _with_metric(lambda m, x, y: cross(x, y, m)),
    "levi_civita_tensor": lambda: _with_metric(
        lambda m, x, y: levi_civita_tensor(m, DOWN)
    ),
    "levi_civita_symbol": lambda: ([levi_civita_symbol(3, UP)], []),
}


@pytest.mark.parametrize("producer", PRODUCERS)
def test_every_producer_returns_c_ordered_read_only_fresh_components(producer):
    results, args = PRODUCERS[producer]()
    for r in results:
        assert r.components.dtype == np.float64 and r.components.flags.c_contiguous
        assert not r.components.flags.writeable
        for a in args:
            assert a.components.flags.writeable  # the argument is writable
            assert not np.shares_memory(r.components, a.components)


@pytest.mark.parametrize("producer", PRODUCERS)
def test_every_producer_returns_frozen_objects_that_pickle_and_copy(producer):
    # the library's own objects are built without TensorObject.__init__
    results, _ = PRODUCERS[producer]()
    for r in results:
        assert type(r) is TensorObject
        _assert_frozen(r)
        _assert_round_trips(r)


@pytest.mark.parametrize("k", [None, "abc", [2.0]])
def test_scale_refuses_a_factor_that_is_not_a_number(k):
    t = new_object(2, (UP,), 0, [1.0, -2.0])
    with pytest.raises(ShapeError, match="scale factor must be a real number"):
        scale(t, k)


def test_scale_reads_its_factor_as_float_does():
    t = new_object(2, (UP,), 0, [1.0, -2.0])
    assert list(scale(t, "2.5").components) == [2.5, -5.0]
    # an int beyond float64 reads as inf, as boost's beta does
    assert list(scale(t, 10**400).components) == [np.inf, -np.inf]


def test_outer_product_refuses_objects_of_different_dims():
    with pytest.raises(ShapeError, match="dim mismatch: 2 vs 3"):
        outer_product(zeros(2, (UP,)), zeros(3, (UP,)))


def test_symmetry_check_refuses_slots_of_different_variance():
    with pytest.raises(ConventionError, match="equal variance"):
        symmetry_check(zeros(2, (UP, DOWN)), 0, 1)
