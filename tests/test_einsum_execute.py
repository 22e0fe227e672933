import tracemalloc

import numpy as np
import pytest

from oracles import naive_eval, random_statement

from indicial.einsum import Mode, execute, executor, order_contractions, parse, validate
from indicial.errors import ShapeError
from indicial.objects import DOWN, UP, TensorObject, new_object
from indicial.symbols import KroneckerKind, kronecker, levi_civita_symbol


def _obj(dim, slots, weight=0, seed=0):
    rng = np.random.default_rng(seed)
    return new_object(dim, slots, weight, rng.uniform(-1, 1, (dim,) * len(slots)))


def _run(text, bindings, mode=Mode.STRICT):
    return execute(validate(parse(text), bindings, mode), bindings)


def test_matrix_vector():
    m = _obj(3, (UP, DOWN), seed=1)
    v = _obj(3, (UP,), seed=2)
    got = _run("y^r = m^r_s v^s", {"m": m, "v": v})
    assert np.allclose(got.components, m.components @ v.components, atol=1e-14)


def test_delta_contraction_returns_operand_exactly():
    d = kronecker(3, KroneckerKind.MIXED)
    v = _obj(3, (UP,), seed=3)
    got = _run("y^r = d^r_s v^s", {"d": d, "v": v})
    assert got.components.tobytes() == v.components.tobytes()


def test_result_weight_is_the_term_sum():
    e = levi_civita_symbol(3, DOWN)
    x = _obj(3, (UP, DOWN), seed=4)
    got = _run("t = e_{rst} x_1^r x_2^s x_3^t", {"e": e, "x": x})
    assert got.weight == -1
    assert got.slots == ()


def test_fixed_digits_slice_columns():
    x = _obj(3, (UP, DOWN), seed=5)
    v = _obj(3, (DOWN,), seed=6)
    got = _run("t = x_2^r v_r", {"x": x, "v": v})
    expected = float(x.components[:, 1] @ v.components)
    assert abs(got.as_scalar() - expected) < 1e-14


def test_self_trace_inside_a_factor():
    t = _obj(3, (UP, DOWN, DOWN), seed=7)
    got = _run("y_s = t^r_{rs}", {"t": t})
    expected = np.einsum("rrs->s", t.components)
    assert np.allclose(got.components, expected, atol=1e-14)


def test_self_traces_after_a_fixed_digit_and_twice_in_one_factor():
    q = _obj(3, (UP, UP, DOWN, DOWN), seed=27)
    got = _run("y_s = q^{2r}_{rs}", {"q": q})
    assert np.allclose(got.components, np.einsum("rrs->s", q.components[1]), atol=1e-14)
    got = _run("s = q^{rs}_{rs}", {"q": q})
    assert abs(got.as_scalar() - np.einsum("rsrs->", q.components)) < 1e-14


def test_transposed_target_under_both_schedules():
    bind = {"u": _obj(3, (UP,), seed=29), "c": _obj(3, (UP, DOWN), seed=30),
            "z": _obj(3, (UP,), seed=31)}
    plan = validate(parse("y^{ba} = u^a c^b_k z^k"), bind)
    expected = np.einsum("a,bk,k->ba", *(bind[n].components for n in "ucz"))
    for p in (plan, order_contractions(plan)):
        assert np.allclose(execute(p, bind).components, expected, atol=1e-14)


def test_repeated_factor_name():
    g = _obj(3, (DOWN, DOWN), seed=9)
    x = _obj(3, (UP,), seed=10)
    got = _run("t = g_{rs} x^r x^s", {"g": g, "x": x})
    expected = float(x.components @ g.components @ x.components)
    assert abs(got.as_scalar() - expected) < 1e-14


def test_multi_term_with_coefficients():
    a = _obj(3, (DOWN,), seed=11)
    b = _obj(3, (DOWN,), seed=12)
    got = _run("z_r = 2 * a_r - 0.5 * b_r + a_r", {"a": a, "b": b})
    expected = 3.0 * a.components - 0.5 * b.components
    assert np.allclose(got.components, expected, atol=1e-14)


def test_target_permutation_transposes():
    g = _obj(3, (DOWN, DOWN), seed=13)
    got = _run("w_{ts} = g_{st}", {"g": g})
    assert np.array_equal(got.components, g.components.T)


def test_orthogonal_mode_coerces_variance():
    a = _obj(3, (DOWN, DOWN), seed=14)
    x = _obj(3, (UP,), seed=15)
    got = _run("y_s = a_{rs} x_r", {"a": a, "x": x}, Mode.ORTHOGONAL)
    assert np.allclose(got.components, a.components.T @ x.components, atol=1e-14)


def test_execute_rejects_binding_drift():
    plan = validate(parse("t = a_r v^r"), {"a": (3, (DOWN,), 0), "v": (3, (UP,), 0)})
    good = {"a": _obj(3, (DOWN,)), "v": _obj(3, (UP,))}
    execute(plan, good)
    with pytest.raises(ShapeError):
        execute(plan, {"a": _obj(3, (DOWN,)), "v": _obj(4, (UP,))})
    with pytest.raises(ShapeError):
        execute(plan, {"a": _obj(3, (UP,)), "v": _obj(3, (UP,))})
    with pytest.raises(ShapeError):
        execute(plan, {"a": _obj(3, (DOWN,), weight=1), "v": _obj(3, (UP,))})
    with pytest.raises(ShapeError):
        execute(plan, {"a": _obj(3, (DOWN,))})


def test_dummy_renaming_is_bit_identical():
    g = _obj(3, (DOWN, DOWN), seed=16)
    x = _obj(3, (UP,), seed=17)
    y = _obj(3, (UP,), seed=18)
    bind = {"g": g, "x": x, "y": y}
    pairs = [
        ("t = g_{rs} x^r y^s", "t = g_{mn} x^m y^n"),
        ("z^m = g_{rs} x^r y^s x^m", "z^m = g_{uv} x^u y^v x^m"),
        ("t = g_{rs} x^r y^s + 2 * g_{mn} x^m x^n",
         "t = g_{ab} x^a y^b + 2 * g_{cd} x^c x^d"),
    ]
    for left, right in pairs:
        one = _run(left, bind)
        two = _run(right, bind)
        assert one.components.tobytes() == two.components.tobytes()


def test_reordering_changes_cost_but_not_bits_beyond_tolerance():
    bindings = {
        "a": _obj(4, (DOWN, DOWN), seed=19),
        "u": _obj(4, (UP,), seed=20),
        "v": _obj(4, (UP,), seed=21),
        "w": _obj(4, (DOWN,), seed=22),
        "z": _obj(4, (UP,), seed=23),
    }
    plan = validate(parse("s = a_{rm} u^r v^m w_k z^k"), bindings)
    ordered = order_contractions(plan)
    assert ordered.total_cost != plan.total_cost
    one = execute(plan, bindings).as_scalar()
    two = execute(ordered, bindings).as_scalar()
    assert abs(one - two) <= 1e-12 * max(1.0, abs(one))


def test_chain_cost_and_value():
    rng = np.random.default_rng(24)
    bind = {
        name: new_object(8, (UP, DOWN), 0, rng.uniform(-1, 1, (8, 8)))
        for name in ("a", "b", "c")
    }
    plan = order_contractions(validate(parse("w^r_s = a^r_m b^m_n c^n_s"), bind))
    assert plan.total_cost == 1024
    assert plan.naive_cost == 4096
    got = execute(plan, bind)
    expected = bind["a"].components @ bind["b"].components @ bind["c"].components
    assert np.allclose(got.components, expected, atol=1e-12)


def test_corpus_against_naive_oracle():
    """200 random statements, both schedules, relative 1e-12."""
    rng = np.random.default_rng(2024)
    for k in range(200):
        text, bindings, dim = random_statement(rng)
        stmt = parse(text)
        plan = validate(stmt, bindings)
        expected, counts = naive_eval(stmt, bindings, dim)
        scale = max(1.0, float(np.max(np.abs(expected))))
        for p in (plan, order_contractions(plan)):
            got = execute(p, bindings)
            assert np.max(np.abs(got.components - expected)) <= 1e-12 * scale, text
        # the naive cost really is the number of loop iterations
        for (*_, (_, _, naive, _, _)), count in zip(plan.terms, counts):
            assert naive == count, text


def test_oracle_agrees_in_orthogonal_mode():
    a = _obj(3, (DOWN, DOWN), seed=25)
    x = _obj(3, (UP,), seed=26)
    stmt = parse("y_s = a_{rs} x_r")
    got = execute(validate(stmt, {"a": a, "x": x}, Mode.ORTHOGONAL), {"a": a, "x": x})
    expected, _ = naive_eval(stmt, {"a": a, "x": x}, 3, orthogonal=True)
    assert np.allclose(got.components, expected, atol=1e-14)


# ------------------------------------------- the matmul replay, byte for byte

def _tensordot_execute(plan, bindings):
    """``execute`` written with one ``np.tensordot`` per step: the reference.

    It derives each step's axes from the factors' letters and reads only
    the positions ``left`` and ``right`` from each step, so none of the
    plan's permutations or shapes reach it.
    """
    names = list(plan.signatures)
    total = None
    for factors, steps, _, coefficient, (letters, *_) in plan.terms:
        items, letters = [], list(letters)
        for at, index, traces in factors:
            arr = bindings[names[at]].components
            if index is not None:
                arr = arr[index]
            for a, b in traces:
                arr = np.trace(arr, axis1=a, axis2=b)
            items.append(arr)
        for at_left, at_right, *_ in steps:
            left, right = letters[at_left], letters.pop(at_right)
            shared = [l for l in left if l in right]
            axes = ([left.index(l) for l in shared], [right.index(l) for l in shared])
            other = items.pop(at_right)
            items[at_left] = np.tensordot(items[at_left], other, axes=axes)
            letters[at_left] = tuple(l for l in left + right if l not in shared)
        arr = np.transpose(items[0], [letters[0].index(l) for l in plan.free_letters])
        if coefficient != 1.0:
            arr = arr * coefficient
        total = arr if total is None else total + arr
    return np.array(total, dtype=np.float64)


def _step_shapes(plan):
    """``(left, right, result)`` shapes of each step of the first term, a
    shape the replay leaves out (None) read as the one the operand has."""
    _, steps, _, _, (letters, *_) = plan.terms[0]
    shapes = [(plan.dim,) * len(l) for l in letters]
    out = []
    for left, right, _, left_shape, _, right_shape, result_shape in steps:
        right_item = shapes.pop(right)
        left_shape = shapes[left] if left_shape is None else left_shape
        right_shape = right_item if right_shape is None else right_shape
        if result_shape is None:
            result_shape = left_shape[:-1] + right_shape[1:]
        shapes[left] = result_shape
        out.append((left_shape, right_shape, result_shape))
    return out


def _assert_replay_matches_tensordot(plan, bindings):
    for p in (plan, order_contractions(plan)):
        got = execute(p, bindings)
        want = _tensordot_execute(p, bindings)
        assert got.components.shape == want.shape
        assert got.components.tobytes() == want.tobytes()
        assert got.components.flags.c_contiguous
        assert not got.components.flags.writeable
        for t in bindings.values():
            assert not np.shares_memory(got.components, t.components)


@pytest.mark.parametrize("seed", [2024, 44], ids=["oracle-corpus", "cache-corpus"])
def test_replay_is_byte_identical_to_tensordot_on_the_corpus(seed):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        text, bindings, _ = random_statement(rng)
        for mode in Mode:
            _assert_replay_matches_tensordot(validate(parse(text), bindings, mode), bindings)


def test_replay_is_byte_identical_to_tensordot_at_dims_one_and_five():
    rng = np.random.default_rng(5)
    for _ in range(100):
        text, bindings, _ = random_statement(rng, max_dim=5)
        stmt = parse(text)
        _assert_replay_matches_tensordot(validate(stmt, bindings), bindings)
        # the same statement at dim 1, unless it pins a digit above 1
        if all(not spec.is_fixed or spec.letter == "1"
               for term in stmt.terms for f in term.factors for spec in f.indices):
            one = {n: _obj(1, t.slots, t.weight) for n, t in bindings.items()}
            _assert_replay_matches_tensordot(validate(stmt, one), one)


def test_outer_product_is_one_product_over_a_unit_inner_axis():
    bind = {"u": _obj(3, (UP,), seed=40), "v": _obj(3, (DOWN,), seed=41)}
    plan = validate(parse("t^r_s = u^r v_s"), bind)
    assert _step_shapes(plan) == [((3, 1), (1, 3), (3, 3))]
    ((_, _, left_perm, _, right_perm, _, _),) = plan.terms[0][1]
    assert left_perm is None and right_perm is None
    _assert_replay_matches_tensordot(plan, bind)
    assert np.array_equal(execute(plan, bind).components,
                          np.multiply.outer(bind["u"].components, bind["v"].components))


def test_rank_zero_factors_multiply_as_one_by_one_products():
    # a factor is rank 0 after indexing when digits pin every slot, or
    # when its letters are all traced
    bind = {"x": _obj(3, (DOWN,), seed=42), "m": _obj(3, (UP, DOWN), seed=43),
            "v": _obj(3, (UP,), seed=44)}
    plan = validate(parse("t^r = x_2 m^s_s v^r"), bind)
    assert _step_shapes(plan) == [((1, 1), (1, 1), ()), ((1, 1), (1, 3), (3,))]
    _assert_replay_matches_tensordot(plan, bind)
    for text in ("s = x_2 m^s_s", "s = x_1 x_3", "s = -2 * x_2 m^1_3 + m^r_r"):
        _assert_replay_matches_tensordot(validate(parse(text), bind), bind)


def _mixed(rng, dim, slots):
    """An object whose entries span 16 orders of magnitude, so that a change
    of summation order shows in the bytes."""
    shape = (dim,) * len(slots)
    scale = 10.0 ** rng.integers(-8, 9, shape)
    return new_object(dim, slots, 0, rng.uniform(-1, 1, shape) * scale)


def test_a_side_that_keeps_no_letter_is_one_dimensional():
    bind = {"a": _obj(3, (UP, DOWN), seed=50), "x": _obj(3, (UP,), seed=51),
            "w": _obj(3, (DOWN,), seed=52), "g": _obj(3, (DOWN, DOWN), seed=53)}
    for text, shapes in [("y^r = a^r_s x^s", ((3, 3), (3,), (3,))),
                         ("s = x^r w_r", ((3,), (3,), ())),
                         ("y_s = x^r g_{rs}", ((3,), (3, 3), (3,)))]:
        assert _step_shapes(validate(parse(text), bind)) == [shapes], text
    texts = [
        "y^r = a^r_s x^s", "s = x^r w_r", "y_s = x^r g_{rs}", "s = g_{rs} x^r x^s",
        # strided operands: a column pinned by a digit, a middle slot pinned
        "y^r = a^r_s a^s_1", "s = a^r_1 w_r", "y_t = a^r_1 e_{r1t}",
        "s = a^r_1 a^s_1 g_{rs}", "s = e_{r1s} h^{rs}",
        # transposed right operands
        "y_s = x^r g_{sr}", "y^r = x^s a^r_s", "s = g_{rs} h^{sr}", "y_t = x^r e_{trs} x^s",
    ]
    rng = np.random.default_rng(19)
    for dim in range(1, 11):
        bind = {"a": _mixed(rng, dim, (UP, DOWN)), "h": _mixed(rng, dim, (UP, UP)),
                "x": _mixed(rng, dim, (UP,)), "w": _mixed(rng, dim, (DOWN,)),
                "g": _mixed(rng, dim, (DOWN, DOWN)), "e": _mixed(rng, dim, (DOWN,) * 3)}
        for text in texts:
            _assert_replay_matches_tensordot(validate(parse(text), bind), bind)


def test_single_factor_transpose_has_no_step_and_copies():
    g = _obj(3, (DOWN, DOWN), seed=45)
    plan = validate(parse("w_{ts} = g_{st}"), {"g": g})
    _, steps, output_axes, _, _ = plan.terms[0]
    assert steps == () and output_axes == (1, 0)
    _assert_replay_matches_tensordot(plan, {"g": g})
    same = validate(parse("w_{st} = g_{st}"), {"g": g})
    assert same.terms[0][2] is None
    got = execute(same, {"g": g})
    assert got.components.tobytes() == g.components.tobytes()
    assert not np.shares_memory(got.components, g.components)


@pytest.mark.parametrize("text, name, slots", [
    ("y^r = x^r", "x", (UP,)),              # a pure copy
    ("D_s_r = M_r_s", "M", (DOWN, DOWN)),   # a pure transpose
    ("P^r = A^r_1", "A", (UP, DOWN)),       # a pinned digit
    ("y^r = 1 * x^r", "x", (UP,)),          # a unit coefficient
])
def test_result_never_shares_memory_with_a_writeable_binding(text, name, slots):
    source = np.arange(3.0 ** len(slots)).reshape((3,) * len(slots))
    binding = TensorObject(3, slots, 0, source)  # built directly: not copied
    got = execute(validate(parse(text), {name: binding}), {name: binding})
    expected = got.components.copy()
    assert not np.shares_memory(got.components, source)
    assert got.components.flags.c_contiguous and not got.components.flags.writeable
    source[...] = -1.0
    assert np.array_equal(got.components, expected)


def test_coefficient_only_terms_scale_one_number():
    bind = {"x": _obj(3, (DOWN,), seed=47), "m": _obj(3, (UP, DOWN), seed=46)}
    for text in ("t = 2 * x_2", "t = -0.5 * m^r_r", "t = 3 * x_1 + 0.5 * m^2_1 - x_3"):
        plan = validate(parse(text), bind)
        assert all(steps == () for _, steps, *_ in plan.terms)
        _assert_replay_matches_tensordot(plan, bind)
    got = execute(validate(parse("t = -0.5 * x_2"), bind), bind)
    assert got.as_scalar() == -0.5 * bind["x"].components[1]


def test_dim_one_runs_the_same_replay():
    bind = {"m": _obj(1, (UP, DOWN), seed=48), "v": _obj(1, (UP,), seed=49)}
    for text in ("y^r = m^r_s v^s", "t = m^r_r", "t^{rs} = v^r v^s", "t^r = m^s_s v^r",
                 "y^r = 2 * m^r_1 v^1 - m^1_1 v^r", "y^r = v^r"):
        _assert_replay_matches_tensordot(validate(parse(text), bind), bind)


_DECISION_SLOTS = {"a": (UP, DOWN), "b": (UP, DOWN, DOWN), "g": (DOWN, DOWN),
                   "h": (UP, UP), "u": (UP,), "v": (DOWN,), "w": (DOWN,),
                   "x": (UP,), "y": (UP,)}


# Per statement: each term's steps as the reshapes the replay keeps at dim 3
# and at dim 1 (left, right, product; None where the shape would not
# change), then whether the result is a lone factor (copied) and whether it
# is a fresh step product (frozen in place).
@pytest.mark.parametrize("text, at_three, at_one, lone, fresh", [
    # mat-vec: no reshape, fresh result
    ("y^r = a^r_s x^s", [[(None, None, None)]], [[(None, None, None)]], False, True),
    # outer product: both operands reshaped
    ("t^r_s = u^r v_s", [[((3, 1), (1, 3), None)]], [[((1, 1), (1, 1), None)]],
     False, True),
    # right operand and product reshaped
    ("H^r_{st} = a^r_u b^u_{st}", [[(None, (3, 9), (3, 3, 3))]],
     [[(None, (1, 1), (1, 1, 1))]], False, True),
    # the left reshape is a no-op only at dim 1
    ("t^{rs}_u = h^{rs} w_u", [[((9, 1), (1, 3), (3, 3, 3))]],
     [[(None, (1, 1), (1, 1, 1))]], False, True),
    # transposed target: not fresh
    ("T^{sr} = x^r y^s", [[((3, 1), (1, 3), None)]], [[((1, 1), (1, 1), None)]],
     False, False),
    # rank-0 result: not fresh
    ("s = x^r w_r", [[(None, None, None)]], [[(None, None, None)]], False, False),
    # a lone factor: copied
    ("y^r = x^r", [[]], [[]], True, False),
    # two terms, each ending in a step: fresh
    ("y^r = 2 * a^r_s x^s + a^r_s y^s", [[(None, None, None)]] * 2,
     [[(None, None, None)]] * 2, False, True),
    # two terms, one without a step: not fresh
    ("w^r = a^r_s x^s + x^r", [[(None, None, None)], []], [[(None, None, None)], []],
     False, False),
])
def test_the_plan_decides_reshapes_and_result_ownership(text, at_three, at_one, lone, fresh):
    for dim, steps in ((3, at_three), (1, at_one)):
        bind = {n: _obj(dim, slots, seed=k) for k, (n, slots) in enumerate(_DECISION_SLOTS.items())}
        plan = validate(parse(text), bind)
        _, _, terms, got_lone, got_fresh, _ = plan._replay
        assert [[(step[3], step[5], step[6]) for step in term[1]] for term in terms] == steps
        assert (got_lone, got_fresh) == (lone, fresh)
        _assert_replay_matches_tensordot(plan, bind)


def test_each_binding_is_read_once_by_position():
    bind = {"g": _obj(3, (DOWN, DOWN), seed=60), "x": _obj(3, (UP,), seed=61)}
    plan = validate(parse("s = g_{rs} x^r x^s"), bind)
    checks, _, ((factors, _, _, _, _),), _, _, _ = plan._replay
    assert [name for name, _ in checks] == ["g", "x"]
    assert [at for at, _, _ in factors] == [0, 1, 1]
    _assert_replay_matches_tensordot(plan, bind)


def test_a_step_of_exactly_the_cap_runs(monkeypatch):
    bind = {"x": new_object(3, (UP,), 0, [1.0, 2.0, 3.0]),
            "y": new_object(3, (DOWN,), 0, [1.0, 1.0, 1.0])}
    plan = validate(parse("s = x^a x^b y_a y_b"), bind)
    assert plan.largest_intermediate == 9
    monkeypatch.setattr(executor, "MAX_COMPONENTS", 9)
    assert execute(plan, bind).as_scalar() == 36.0
    monkeypatch.setattr(executor, "MAX_COMPONENTS", 8)
    with pytest.raises(ShapeError, match="holds 9 > 8 components"):
        execute(plan, bind)


def test_intermediate_beyond_the_storage_cap_is_rejected_before_allocating():
    # left to right, the seventh step holds x^a..x^h: 9**8 = 43M components
    x = new_object(9, (UP,), 0, np.full(9, 0.5))
    y = new_object(9, (DOWN,), 0, np.full(9, 0.25))
    bind = {"x": x, "y": y}
    plan = validate(parse("s = x^a x^b x^c x^d x^e x^f x^g x^h "
                          "y_a y_b y_c y_d y_e y_f y_g y_h"), bind)
    assert plan.largest_intermediate == 9**8
    tracemalloc.start()
    try:
        with pytest.raises(ShapeError, match="dense storage cap exceeded"):
            execute(plan, bind)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # greedy order pairs each x with its y: no step holds more than 9 values
    greedy = order_contractions(plan)
    assert greedy.largest_intermediate == 1
    assert execute(greedy, bind).as_scalar() == pytest.approx((9 * 0.5 * 0.25) ** 8, rel=1e-12)


def test_largest_intermediate_is_the_biggest_step_product():
    sigs = {"a": (4, (UP, DOWN), 0), "u": (4, (UP,), 0), "w": (4, (DOWN,), 0)}
    plan = validate(parse("t^{rs} = u^r u^s w_k u^k"), sigs)
    assert [result for _, _, result in _step_shapes(plan)] == [(4, 4), (4, 4, 4), (4, 4)]
    assert plan.largest_intermediate == 64
    assert order_contractions(plan).largest_intermediate == 16
    assert validate(parse("y^r = u^r"), sigs).largest_intermediate == 0
    # per plan: the largest step of any term
    two = validate(parse("t^{rs} = a^r_k u^k u^s + u^r u^s w_k u^k"), sigs)
    assert [term[4][4] for term in two.terms] == [16, 64]
    assert two.largest_intermediate == 64


@pytest.mark.parametrize("mode, bind, message", [
    (Mode.STRICT, {"a": (3, (DOWN,)), "v": (4, (UP,))},
     "binding for 'v' has dim 4, plan expects 3"),
    (Mode.STRICT, {"a": (3, (UP,)), "v": (3, (UP,))},
     "binding for 'a' has slots (up), plan expects (down)"),
    (Mode.STRICT, {"a": (3, (DOWN,), 1), "v": (3, (UP,))},
     "binding for 'a' has weight 1, plan expects 0"),
    (Mode.STRICT, {"a": (3, (DOWN,))}, "no binding for name 'v'"),
    (Mode.STRICT, {"a": None, "v": (3, (UP,))}, "binding for 'a' is not a TensorObject"),
    (Mode.ORTHOGONAL, {"a": (3, (DOWN, DOWN)), "v": (3, (UP,))},
     "binding for 'a' has rank 2, plan expects 1"),
    (Mode.ORTHOGONAL, {"a": (3, (DOWN,), 1), "v": (3, (UP,))},
     "binding for 'a' has weight 1, plan expects 0"),
])
def test_binding_drift_names_the_difference(mode, bind, message):
    plan = validate(parse("t = a_r v^r"), {"a": (3, (DOWN,), 0), "v": (3, (UP,), 0)}, mode)
    bindings = {n: None if sig is None else _obj(sig[0], sig[1], *sig[2:])
                for n, sig in bind.items()}
    with pytest.raises(ShapeError) as exc:
        execute(plan, bindings)
    assert str(exc.value) == message



@pytest.mark.parametrize("which, message", [
    ("no plan", "plan must be a ContractionPlan, got NoneType"),
    ("a statement", "plan must be a ContractionPlan, got Statement"),
    ("no bindings", "bindings must be a mapping of names, got NoneType"),
    ("a list", "bindings must be a mapping of names, got list"),
])
def test_arguments_of_the_wrong_type_are_refused(which, message):
    x = _obj(3, (UP,), seed=48)
    plan = validate(parse("y^r = x^r"), {"x": x})
    args = {"no plan": (None, {"x": x}), "a statement": (parse("y^r = x^r"), {"x": x}),
            "no bindings": (plan, None), "a list": (plan, [x])}[which]
    with pytest.raises(ShapeError) as exc:
        execute(*args)
    assert str(exc.value) == message


def test_a_scalar_statement_without_a_target_runs():
    a = new_object(3, (DOWN,), 0, [1.0, 2.0, 3.0])
    x = new_object(3, (UP,), 0, [4.0, 5.0, 6.0])
    plan = validate(parse("a_r x^r"), {"a": a, "x": x})
    assert plan.result_slots == () and plan.free_letters == ()
    assert execute(plan, {"a": a, "x": x}).as_scalar() == 32.0


def test_orthogonal_mode_runs_a_binding_of_other_variances_but_not_other_weight():
    a = new_object(3, (UP, DOWN), 0, np.arange(9.0))
    x = new_object(3, (UP,), 0, [1.0, 1.0, 1.0])
    plan = validate(parse("y^r = a^r_s x^s"), {"a": a, "x": x}, Mode.ORTHOGONAL)
    coerced = new_object(3, (DOWN, DOWN), 0, np.arange(9.0))
    assert list(execute(plan, {"a": coerced, "x": x}).components) == [3.0, 12.0, 21.0]
    heavier = new_object(3, (DOWN, DOWN), 1, np.arange(9.0))
    with pytest.raises(ShapeError, match="has weight 1, plan expects 0"):
        execute(plan, {"a": heavier, "x": x})


class _Sub(TensorObject):
    __slots__ = ()


def test_a_tensor_object_subclass_validates_and_executes_as_a_binding():
    a = _Sub(2, (UP, DOWN), 0, np.array([[1.0, 2.0], [3.0, 4.0]]))
    x = new_object(2, (UP,), 0, [1.0, 1.0])
    plan = validate(parse("y^r = a^r_s x^s"), {"a": a, "x": x})
    assert plan.signatures["a"] == (2, (UP, DOWN), 0)
    assert list(execute(plan, {"a": a, "x": x}).components) == [3.0, 7.0]
