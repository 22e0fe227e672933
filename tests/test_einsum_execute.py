import numpy as np
import pytest

from oracles import naive_eval, random_statement

from indicial.einsum import Mode, execute, order_contractions, parse, validate
from indicial.errors import ShapeError
from indicial.objects import DOWN, UP, new_object
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
        for term_plan, count in zip(plan.terms, counts):
            assert term_plan.naive_cost == count, text


def test_oracle_agrees_in_orthogonal_mode():
    a = _obj(3, (DOWN, DOWN), seed=25)
    x = _obj(3, (UP,), seed=26)
    stmt = parse("y_s = a_{rs} x_r")
    got = execute(validate(stmt, {"a": a, "x": x}, Mode.ORTHOGONAL), {"a": a, "x": x})
    expected, _ = naive_eval(stmt, {"a": a, "x": x}, 3, orthogonal=True)
    assert np.allclose(got.components, expected, atol=1e-14)
