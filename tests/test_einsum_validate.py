import numpy as np
import pytest

from indicial.einsum import Mode, order_contractions, parse, validate
from indicial.errors import AddressingError, ConventionError, ShapeError
from indicial.objects import DOWN, UP, new_object


def _obj(dim, slots, weight=0, seed=0):
    rng = np.random.default_rng(seed)
    return new_object(dim, slots, weight, rng.uniform(-1, 1, (dim,) * len(slots)))


X2 = _obj(3, (UP, DOWN))
V_UP = _obj(3, (UP,))
V_DOWN = _obj(3, (DOWN,))
G2 = _obj(3, (DOWN, DOWN))


def test_plan_carries_signature():
    plan = validate(parse("y^r = x^r_s v^s"), {"x": X2, "v": V_UP})
    assert plan.dim == 3
    assert plan.result_slots == (UP,)
    assert plan.weight == 0
    assert plan.free_letters == ("r",)
    assert plan.mode is Mode.STRICT


def test_signatures_accept_triples():
    plan = validate(
        parse("t = a_r v^r"),
        {"a": (3, (DOWN,), 0), "v": (3, (UP,), 0)},
    )
    assert plan.dim == 3


def test_strict_buckets_match_per_variance():
    # written upper index binds the upper slot regardless of written order
    plan = validate(parse("t = e_{rst} x_1^r x_2^s x_3^t"),
                    {"e": (3, (DOWN, DOWN, DOWN), -1), "x": (3, (UP, DOWN), 0)})
    fp = plan.terms[0].factors[1]  # first x
    assert fp.index == (slice(None), 0)  # lower slot 1 pinned to value 1
    assert fp.open_letters == ("r",)  # upper slot 0 carries the letter


def test_orthogonal_is_positional():
    plan = validate(parse("y_s = a_{rs} x_r"), {"a": G2, "x": V_UP},
                    Mode.ORTHOGONAL)
    assert plan.result_slots == (DOWN,)
    # strict refuses the same text: r is written lower twice
    with pytest.raises(ConventionError):
        validate(parse("y_s = a_{rs} x_r"), {"a": G2, "x": V_DOWN})


def test_triple_occurrence_parses_but_fails_validation():
    stmt = parse("x_{rrr}")
    with pytest.raises(ConventionError) as err:
        validate(stmt, {"x": (3, (DOWN, DOWN, DOWN), 0)})
    assert "three" in str(err.value) or "more than" in str(err.value) or "twice" in str(err.value)


def test_strict_dummy_needs_opposite_variances():
    with pytest.raises(ConventionError):
        validate(parse("t = a_{rr}"), {"a": G2})
    # mixed pair is fine: a trace
    plan = validate(parse("t = m^r_r"), {"m": X2})
    assert plan.terms[0].prep_cost == 9


def test_free_letters_must_match_across_terms():
    with pytest.raises(ConventionError):
        validate(parse("z_r = a_r + b_s"), {"a": V_DOWN, "b": V_DOWN})
    with pytest.raises(ConventionError):
        validate(parse("z_r = a_r + b^r"), {"a": V_DOWN, "b": V_UP})


def test_weights_sum_per_term_and_must_agree():
    a1 = _obj(3, (DOWN,), weight=1)
    b0 = _obj(3, (DOWN,), weight=0)
    plan = validate(parse("s_r = a_r + c_r"), {"a": a1, "c": a1})
    assert plan.weight == 1
    with pytest.raises(ConventionError):
        validate(parse("s_r = a_r + c_r"), {"a": a1, "c": b0})


def test_target_rules():
    with pytest.raises(ConventionError):
        validate(parse("a_r v^r q^m"), {"a": V_DOWN, "v": V_UP, "q": V_UP})
    with pytest.raises(ConventionError):  # target must list every free letter
        validate(parse("z_s = a_r v^r q^m"), {"a": V_DOWN, "v": V_UP, "q": V_UP})
    with pytest.raises(ConventionError):  # digit in a target
        validate(parse("z_1 = a_r v^r"), {"a": V_DOWN, "v": V_UP})
    with pytest.raises(ConventionError):  # variance flip in strict mode
        validate(parse("y_{st} = x^t_s"), {"x": X2})
    # permuted target reorders the result slots
    plan = validate(parse("w_{ts} = g_{st}"), {"g": G2})
    assert plan.free_letters == ("t", "s")


def test_rank_mismatch_is_a_shape_error():
    with pytest.raises(ShapeError):
        validate(parse("a_r"), {"a": G2})
    with pytest.raises(ShapeError):
        validate(parse("a^r x_r"), {"a": G2, "x": V_DOWN})


def test_unbound_name():
    with pytest.raises(ShapeError) as err:
        validate(parse("t = q_r v^r"), {"v": V_UP})
    assert "q" in str(err.value)


def test_dim_mismatch():
    with pytest.raises(ShapeError):
        validate(parse("t = a_r v^r"), {"a": V_DOWN, "v": _obj(4, (UP,))})


def test_fixed_digit_bounds():
    plan = validate(parse("t = x_3^r v_r"), {"x": (3, (UP, DOWN), 0), "v": V_DOWN})
    assert plan.terms[0].factors[0].index == (slice(None), 2)
    with pytest.raises(AddressingError):
        validate(parse("t = x_4^r v_r"), {"x": (3, (UP, DOWN), 0), "v": V_DOWN})


def test_result_beyond_the_storage_cap_is_rejected_before_execution():
    # 9**8 = 43M result components; only validate runs, nothing is allocated
    x, y = (9, (UP,), 0), (9, (DOWN,), 0)
    with pytest.raises(ShapeError, match="dense storage cap"):
        validate(parse("t^{abcdefgh} = x^a x^b x^c x^d x^e x^f x^g x^h"), {"x": x})
    # intermediates are not capped: a left-to-right run of this one would
    # hold 9**8 components, greedy order keeps every step at one component
    plan = validate(parse("s = x^a x^b x^c x^d x^e x^f x^g x^h "
                          "y_a y_b y_c y_d y_e y_f y_g y_h"), {"x": x, "y": y})
    assert plan.result_slots == ()


def test_naive_cost_counts_distinct_letters():
    plan = validate(
        parse("t = a_{rst} x^r y^s z^t"),
        {"a": (3, (DOWN,) * 3, 0), "x": (3, (UP,), 0), "y": (3, (UP,), 0),
         "z": (3, (UP,), 0)},
    )
    assert plan.naive_cost == 27
    assert plan.terms[0].naive_cost == 27


def test_default_schedule_is_left_to_right():
    plan = validate(
        parse("w^r_s = a^r_m b^m_n c^n_s"),
        {"a": (8, (UP, DOWN), 0), "b": (8, (UP, DOWN), 0), "c": (8, (UP, DOWN), 0)},
    )
    steps = plan.terms[0].steps
    assert [(s.left, s.right) for s in steps] == [(0, 1), (0, 1)]
    assert plan.total_cost == 2 * 8**3
    assert plan.naive_cost == 8**4


def test_order_contractions_prefers_small_results():
    bindings = {
        "a": (3, (DOWN, DOWN), 0),
        "u": (3, (UP,), 0),
        "v": (3, (UP,), 0),
        "w": (3, (DOWN,), 0),
        "z": (3, (UP,), 0),
    }
    plan = validate(parse("s = a_{rm} u^r v^m w_k z^k"), bindings)
    ordered = order_contractions(plan)
    # the w_k z^k pair collapses to a scalar first
    first = ordered.terms[0].steps[0]
    assert (first.left, first.right) == (3, 4)
    assert ordered.total_cost < plan.total_cost
    # untouched input plan keeps its left-to-right steps
    assert [(s.left, s.right) for s in plan.terms[0].steps] == [(0, 1)] * 4


def test_ordering_is_letter_independent():
    sigs = {
        "a": (4, (DOWN, DOWN), 0), "b": (4, (UP,), 0), "c": (4, (UP,), 0),
        "p": (4, (DOWN, DOWN), 0), "q": (4, (UP,), 0), "r": (4, (UP,), 0),
    }
    one = order_contractions(validate(parse("t = a_{mn} b^m c^n"), sigs))
    two = order_contractions(validate(parse("t = p_{uv} q^u r^v"), sigs))
    assert [
        (s.left, s.right, s.cost) for s in one.terms[0].steps
    ] == [(s.left, s.right, s.cost) for s in two.terms[0].steps]


def test_traces_are_numbered_after_slicing():
    plan = validate(parse("y_s = q^{2r}_{rs}"), {"q": (3, (UP, UP, DOWN, DOWN), 0)})
    fp = plan.terms[0].factors[0]
    assert fp.index == (1, slice(None), slice(None), slice(None))
    assert fp.traces == ((0, 1),)  # slots 1 and 2 become axes 0 and 1
    assert fp.open_letters == ("s",)


def test_double_self_trace():
    plan = validate(parse("s = m^{rs}_{rs}"), {"m": (3, (UP, UP, DOWN, DOWN), 0)})
    fp = plan.terms[0].factors[0]
    assert fp.index == ()
    assert fp.traces == ((0, 2), (0, 1))
    assert fp.open_letters == ()
    assert plan.terms[0].prep_cost == 3**4 + 3**2


def test_output_axes_put_the_result_in_target_order():
    sigs = {"u": (3, (UP,), 0), "c": (3, (UP, DOWN), 0), "z": (3, (UP,), 0)}
    plan = validate(parse("y^{ba} = u^a c^b_k z^k"), sigs)
    ordered = order_contractions(plan)
    assert [(s.left, s.right) for s in plan.terms[0].steps] == [(0, 1), (0, 1)]
    assert [(s.left, s.right) for s in ordered.terms[0].steps] == [(1, 2), (0, 1)]
    for p in (plan, ordered):
        assert p.terms[0].output_axes == (1, 0)
