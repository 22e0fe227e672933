import copy
import dataclasses
import pickle

import numpy as np
import pytest

from oracles import random_statement

from indicial.einsum import Mode, order_contractions, parse, planner, validate
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
    factors, _, _, _, (letters, *_) = plan.terms[0]
    _, index, _ = factors[1]  # first x
    assert index == (slice(None), 0)  # lower slot 1 pinned to value 1
    assert letters[1] == ("r",)  # upper slot 0 carries the letter


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
    _, _, _, _, (_, prep_cost, *_) = plan.terms[0]
    assert prep_cost == 9


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


@pytest.mark.parametrize("signature", [
    (3.7, (UP,), 0),
    (True, (UP,), 0),
    ("3", (UP,), 0),
    (0, (UP,), 0),
    (-2, (UP,), 0),
    (3, ("up",), 0),
    (3, (UP,), 0.9),
    (3, (UP,), False),
], ids=["float-dim", "bool-dim", "str-dim", "zero-dim", "negative-dim",
        "str-slot", "float-weight", "bool-weight"])
def test_malformed_signatures_are_refused_as_new_object_refuses_them(signature):
    dim, slots, weight = signature
    with pytest.raises(ShapeError) as built:
        new_object(dim, slots, weight, [0.0, 0.0, 0.0])
    with pytest.raises(ShapeError) as validated:
        validate(parse("t = x^r y_r"), {"x": signature, "y": (3, (DOWN,), 0)})
    assert str(validated.value) == str(built.value)


@pytest.mark.parametrize("mode", ["strict", "orthogonal", None, 0])
def test_a_mode_that_is_not_a_mode_is_refused(mode):
    # g_{rr} sums two lower indices, which strict mode refuses: a mode that
    # is not a Mode would reach the checks with that one skipped
    with pytest.raises(ShapeError, match="is not a Mode"):
        validate(parse("t = g_{rr}"), {"g": (3, (DOWN, DOWN), 0)}, mode)


def test_the_arity_message_counts_upper_and_lower_indices():
    with pytest.raises(ShapeError, match="written with 2 upper and 1 lower indices"):
        validate(parse("t^{ab}_c = A^{ab}_c"), {"A": (2, (UP, DOWN, DOWN), 0)})


def test_a_dim_one_signature_is_valid():
    plan = validate(parse("y^a = m^a_b v^b"), {"m": (1, (UP, DOWN), 0), "v": (1, (UP,), 0)})
    assert plan.dim == 1


def test_unbound_name():
    with pytest.raises(ShapeError) as err:
        validate(parse("t = q_r v^r"), {"v": V_UP})
    assert "q" in str(err.value)


def test_dim_mismatch():
    with pytest.raises(ShapeError):
        validate(parse("t = a_r v^r"), {"a": V_DOWN, "v": _obj(4, (UP,))})


def test_fixed_digit_bounds():
    plan = validate(parse("t = x_3^r v_r"), {"x": (3, (UP, DOWN), 0), "v": V_DOWN})
    (_, index, _), _ = plan.terms[0][0]
    assert index == (slice(None), 2)
    with pytest.raises(AddressingError):
        validate(parse("t = x_4^r v_r"), {"x": (3, (UP, DOWN), 0), "v": V_DOWN})


def test_result_beyond_the_storage_cap_is_rejected_before_execution():
    # 9**8 = 43M result components; only validate runs, nothing is allocated
    x, y = (9, (UP,), 0), (9, (DOWN,), 0)
    with pytest.raises(ShapeError, match="dense storage cap"):
        validate(parse("t^{abcdefgh} = x^a x^b x^c x^d x^e x^f x^g x^h"), {"x": x})
    # validate does not cap intermediates: a left-to-right run of this one
    # would hold 9**8 components (execute refuses it), greedy order keeps
    # every step at one component
    plan = validate(parse("s = x^a x^b x^c x^d x^e x^f x^g x^h "
                          "y_a y_b y_c y_d y_e y_f y_g y_h"), {"x": x, "y": y})
    assert plan.result_slots == ()


def test_a_signature_past_the_storage_cap_is_refused_before_lowering(monkeypatch):
    # a (dim, slots, weight) triple that no object could have is refused by
    # the resolver, as new_object refuses it, before lowering computes a
    # naive cost of dim ** (number of letters)
    def lowered(*args):
        raise AssertionError("the statement was lowered")

    monkeypatch.setattr(planner, "_lower", lowered)
    letters, huge = "abcdefghijklmnopqrstuvwxyz", 10**4000
    for text, sigs, rank in [
        (f"y^{{{letters}}} = x^{{{letters}}}", {"x": (huge, (UP,) * 26, 0)}, 26),
        ("s = x^a y_a", {"x": (huge, (UP,), 0), "y": (huge, (DOWN,), 0)}, 1),
    ]:
        with pytest.raises(ShapeError) as exc:
            validate(parse(text), sigs)
        assert str(exc.value) == (
            f"dense storage cap exceeded: dim**rank > 10000000 at rank {rank}"
        )


def test_naive_cost_counts_distinct_letters():
    plan = validate(
        parse("t = a_{rst} x^r y^s z^t"),
        {"a": (3, (DOWN,) * 3, 0), "x": (3, (UP,), 0), "y": (3, (UP,), 0),
         "z": (3, (UP,), 0)},
    )
    assert plan.naive_cost == 27
    _, _, _, _, (_, _, naive_cost, *_) = plan.terms[0]
    assert naive_cost == 27


def test_default_schedule_is_left_to_right():
    plan = validate(
        parse("w^r_s = a^r_m b^m_n c^n_s"),
        {"a": (8, (UP, DOWN), 0), "b": (8, (UP, DOWN), 0), "c": (8, (UP, DOWN), 0)},
    )
    _, steps, *_ = plan.terms[0]
    assert [s[:2] for s in steps] == [(0, 1), (0, 1)]  # (left, right)
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
    first = ordered.terms[0][1][0]
    assert first[:2] == (3, 4)
    assert ordered.total_cost < plan.total_cost
    # untouched input plan keeps its left-to-right steps
    assert [s[:2] for s in plan.terms[0][1]] == [(0, 1)] * 4


def test_order_contractions_keeps_a_cheaper_written_schedule():
    # greedy would build the outer product B_e C^a first: 252 multiply-adds,
    # more than the naive sum
    sigs = {"A": (3, (UP,) * 4, 0), "B": (3, (DOWN,), 0), "C": (3, (UP,), 0)}
    plan = validate(parse("T^{abcd} = A^{bcde} B_e C^a"), sigs)
    assert (plan.total_cost, plan.naive_cost) == (162, 243)
    ordered = order_contractions(plan)
    assert ordered.total_cost == 162
    assert ordered.terms[0] == plan.terms[0]


def test_a_cost_tie_goes_to_the_greedy_schedule():
    # at dim 2 both schedules cost 28 multiply-adds, with no step near the cap
    sigs = {"A": (2, (DOWN,), 0), "B": (2, (UP, UP), 0),
            "C": (2, (UP, UP, DOWN, DOWN), 0), "D": (2, (UP,), 0)}
    plan = validate(parse("t^{bd} = A_c B^{ae} C^{bc}_{ae} D^d"), sigs)
    ordered = order_contractions(plan)
    assert ordered.total_cost == plan.total_cost == 28
    assert [s[:2] for s in plan.terms[0][1]] == [(0, 1)] * 3
    assert [s[:2] for s in ordered.terms[0][1]] == [(0, 3), (1, 2), (0, 1)]


def test_a_schedule_with_a_step_beyond_the_cap_ranks_last(monkeypatch):
    # left to right costs 1250 with a 125-component step; greedy costs 3150
    # with no step above 25 components
    sigs = {"A": (5, (DOWN,) * 4, 0), "B": (5, (UP,), 0), "C": (5, (UP,) * 4, 0)}
    plan = validate(parse("t^a = A_{bcde} B^b C^{acde}"), sigs)
    assert order_contractions(plan).total_cost == 1250
    monkeypatch.setattr(planner, "MAX_COMPONENTS", 100)
    capped = order_contractions.__wrapped__(plan)  # past the memo
    assert (capped.total_cost, capped.largest_intermediate) == (3150, 25)


def test_a_schedule_with_a_step_of_exactly_the_cap_ranks_by_cost(monkeypatch):
    # the left-to-right schedule's largest step holds 125 components
    sigs = {"A": (5, (DOWN,) * 4, 0), "B": (5, (UP,), 0), "C": (5, (UP,) * 4, 0)}
    plan = validate(parse("t^a = A_{bcde} B^b C^{acde}"), sigs)
    monkeypatch.setattr(planner, "MAX_COMPONENTS", 125)
    assert order_contractions.__wrapped__(plan).total_cost == 1250
    monkeypatch.setattr(planner, "MAX_COMPONENTS", 124)
    assert order_contractions.__wrapped__(plan).total_cost == 3150


def _random_pattern(rng: np.random.Generator) -> tuple[str, dict]:
    """3-5 factors over up to 7 letters; each letter is summed (upper in one
    factor, lower in another) or free in one factor."""
    while True:
        n = int(rng.integers(3, 6))
        ups, downs, free = [""] * n, [""] * n, ""
        for letter in "abcdefg"[: int(rng.integers(2, 8))]:
            if rng.random() < 0.5:
                i, j = rng.choice(n, size=2, replace=False)
                ups[i] += letter
                downs[j] += letter
            else:
                k = int(rng.integers(n))
                if rng.random() < 0.5:
                    ups[k] += letter
                else:
                    downs[k] += letter
                free += letter
        if all(u + d for u, d in zip(ups, downs)):
            break
    dim = int(rng.integers(2, 6))
    names = "ABCDE"
    sigs = {names[k]: (dim, (UP,) * len(ups[k]) + (DOWN,) * len(downs[k]), 0)
            for k in range(n)}

    def written(name: str, up: str, down: str) -> str:
        return name + (f"^{{{up}}}" if up else "") + (f"_{{{down}}}" if down else "")

    all_ups = "".join(ups)
    target = written("t", "".join(l for l in free if l in all_ups),
                     "".join(l for l in free if l not in all_ups))
    body = " ".join(written(names[k], ups[k], downs[k]) for k in range(n))
    return f"{target} = {body}", sigs


def test_order_contractions_never_raises_the_cost():
    rng = np.random.default_rng(2013)
    for _ in range(1000):
        text, sigs = _random_pattern(rng)
        plan = validate(parse(text), sigs)
        assert order_contractions(plan).total_cost <= plan.total_cost, text


def test_a_step_costs_dim_to_the_number_of_its_letters():
    # a term's schedule cost is the sum of its steps' costs, each read off
    # the letters the step's positions name, so no shape may change a cost,
    # a total_cost or a choice of order_contractions
    rng = np.random.default_rng(1913)
    cases = [random_statement(rng)[:2] for _ in range(300)]
    cases += [_random_pattern(rng) for _ in range(300)]
    for text, sigs in cases:
        plan = validate(parse(text), sigs)
        for p in (plan, order_contractions(plan)):
            for _, steps, _, _, (letters, _, _, cost, _) in p.terms:
                letters, want = list(letters), 0
                for at_left, at_right, *_ in steps:
                    left, right = letters[at_left], letters.pop(at_right)
                    want += p.dim ** len(set(left) | set(right))
                    letters[at_left] = tuple(
                        l for l in left + right if (l in left) != (l in right)
                    )
                assert cost == want, text


def test_ordering_is_letter_independent():
    sigs = {
        "a": (4, (DOWN, DOWN), 0), "b": (4, (UP,), 0), "c": (4, (UP,), 0),
        "p": (4, (DOWN, DOWN), 0), "q": (4, (UP,), 0), "r": (4, (UP,), 0),
    }
    one = order_contractions(validate(parse("t = a_{mn} b^m c^n"), sigs))
    two = order_contractions(validate(parse("t = p_{uv} q^u r^v"), sigs))
    # the same replay and the same costs; only the letters differ
    (*replay_one, (_, *costs_one)), = one.terms
    (*replay_two, (_, *costs_two)), = two.terms
    assert (replay_one, costs_one) == (replay_two, costs_two)


def test_traces_are_numbered_after_slicing():
    plan = validate(parse("y_s = q^{2r}_{rs}"), {"q": (3, (UP, UP, DOWN, DOWN), 0)})
    ((_, index, traces),), *_, (letters, _, _, _, _) = plan.terms[0]
    assert index == (1, slice(None), slice(None), slice(None))
    assert traces == ((0, 1),)  # slots 1 and 2 become axes 0 and 1
    assert letters == (("s",),)


def test_double_self_trace():
    plan = validate(parse("s = m^{rs}_{rs}"), {"m": (3, (UP, UP, DOWN, DOWN), 0)})
    ((_, index, traces),), *_, (letters, prep_cost, _, _, _) = plan.terms[0]
    assert index is None
    assert traces == ((0, 2), (0, 1))
    assert letters == ((),)
    assert prep_cost == 3**4 + 3**2


def test_output_axes_put_the_result_in_target_order():
    sigs = {"u": (3, (UP,), 0), "c": (3, (UP, DOWN), 0), "z": (3, (UP,), 0)}
    plan = validate(parse("y^{ba} = u^a c^b_k z^k"), sigs)
    ordered = order_contractions(plan)
    assert [s[:2] for s in plan.terms[0][1]] == [(0, 1), (0, 1)]
    assert [s[:2] for s in ordered.terms[0][1]] == [(1, 2), (0, 1)]
    for p in (plan, ordered):
        assert p.terms[0][2] == (1, 0)


def test_modes_survive_pickle_and_copy_as_themselves():
    table = {Mode.STRICT: "s", Mode.ORTHOGONAL: "o"}
    for mode in Mode:
        for other in (pickle.loads(pickle.dumps(mode)), copy.copy(mode), copy.deepcopy(mode)):
            assert other is mode
            assert table[other] == mode.value[0]


def _reschedule_every_term(plan):
    """``order_contractions`` as it was before a term of fewer than three
    factors was kept: every term rescheduled and ranked, and a new plan."""
    def rank(term):
        prep_cost, _, cost, largest = term[4][1:]
        return largest > planner.MAX_COMPONENTS, prep_cost + cost

    terms = []
    for term in plan.terms:
        factors, _, _, coefficient, (letters, prep_cost, naive_cost, _, _) = term
        steps, output_axes, cost, largest = planner._schedule(
            letters, plan.free_letters, plan.dim, planner._smallest_pair
        )
        greedy = (factors, steps, output_axes, coefficient,
                  (letters, prep_cost, naive_cost, cost, largest))
        terms.append(min(greedy, term, key=rank))
    return dataclasses.replace(plan, terms=tuple(terms))


def test_a_term_of_fewer_than_three_factors_keeps_its_one_schedule():
    rng = np.random.default_rng(2020)
    cases = [random_statement(rng)[:2] for _ in range(300)]
    cases += [_random_pattern(rng) for _ in range(200)]
    cases.append(("t^r_s = 2 * a^r_k b^k_s + c^r_s",
                  {n: (3, (UP, DOWN), 0) for n in "abc"}))
    short = 0
    for text, sigs in cases:
        for mode in Mode:
            plan = validate(parse(text), sigs, mode)
            ordered, want = order_contractions(plan), _reschedule_every_term(plan)
            assert (ordered.total_cost, ordered.naive_cost) == (
                want.total_cost, want.naive_cost), text
            assert ordered.terms == want.terms, text
            for term, old in zip(ordered.terms, plan.terms):
                if len(old[0]) < 3:
                    assert term is old, text
            if all(len(t[0]) < 3 for t in plan.terms):
                short += 1
                assert ordered is plan, text
    assert short > 100


def test_a_term_the_greedy_rule_gives_back_unchanged_is_kept():
    rng = np.random.default_rng(2021)
    kept = 0
    for _ in range(300):
        text, sigs = random_statement(rng)[:2]
        for mode in Mode:
            plan = validate(parse(text), sigs, mode)
            ordered = order_contractions(plan)
            assert ordered.terms == _reschedule_every_term(plan).terms, text
            for term, old in zip(ordered.terms, plan.terms):
                if term == old:
                    assert term is old, text
            if ordered.terms == plan.terms:
                assert ordered is plan, text
                kept += any(len(t[0]) > 2 for t in plan.terms)
    assert kept > 100
    mixed, vec = (3, (UP, DOWN), 0), (3, (UP,), 0)
    for text, sigs in [
        ("m^r_s = 2 * a^r_t b^t_u c^u_s", dict.fromkeys("abc", mixed)),
        ("t = E_{rst} X^r Y^s Z^t", {"E": (3, (DOWN,) * 3, 0), **dict.fromkeys("XYZ", vec)}),
    ]:
        plan = validate(parse(text), sigs)
        assert len(plan.terms[0][0]) > 2 and order_contractions(plan) is plan, text


@pytest.mark.parametrize("statement, signatures, kind", [
    ("y^r = x^r", {"x": (3, (UP,), 0)}, "str"),
    (None, {"x": (3, (UP,), 0)}, "NoneType"),
])
def test_a_statement_that_is_not_a_statement_is_refused(statement, signatures, kind):
    with pytest.raises(ShapeError) as exc:
        validate(statement, signatures)
    assert str(exc.value) == f"statement must be a Statement, got {kind}"


@pytest.mark.parametrize("signatures, kind", [(None, "NoneType"), (3, "int")])
def test_signatures_that_are_no_mapping_are_refused(signatures, kind):
    with pytest.raises(ShapeError) as exc:
        validate(parse("y^r = x^r"), signatures)
    assert str(exc.value) == f"signatures must be a mapping of names, got {kind}"


@pytest.mark.parametrize("plan, kind", [(None, "NoneType"), (parse("y^r = x^r"), "Statement")])
def test_order_contractions_refuses_what_is_not_a_plan(plan, kind):
    for _ in range(2):  # a refusal is not cached
        with pytest.raises(ShapeError) as exc:
            order_contractions(plan)
        assert str(exc.value) == f"plan must be a ContractionPlan, got {kind}"
