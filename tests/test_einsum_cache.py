"""The memoized einsum stages: parse, validate and order_contractions share
their results between calls, and a hit gives what the uncached body gives."""

import copy
import dataclasses
import gc
import pickle
import weakref
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_statement

from indicial import exercises
from indicial.einsum import ContractionPlan, Mode, execute, order_contractions, parse, validate
from indicial.einsum.planner import _lower, _resolve, _validate
from indicial.einsum.syntax import CACHE_SIZE
from indicial.errors import AddressingError, ConventionError, ExpressionSyntaxError, ShapeError
from indicial.objects import DOWN, UP, new_object

CACHES = (parse, _validate, order_contractions)


def _clear():
    for cache in CACHES:
        cache.cache_clear()


def _outcome(fn, text):
    try:
        return fn(text)
    except ExpressionSyntaxError as exc:
        return type(exc), str(exc), exc.position


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet="abrsxyz19_^{}=+-*.e 2")))
def test_parse_matches_the_uncached_parser(text):
    """Any text parses to a Statement or raises ExpressionSyntaxError, and
    the cached parser agrees with the uncached one, on a miss and a hit."""
    want = _outcome(parse.__wrapped__, text)
    for _ in range(2):
        got = _outcome(parse, text)
        assert got == want
        assert hash(got) == hash(want)


def _fresh(bindings, rng):
    return {
        name: new_object(t.dim, t.slots, t.weight, rng.uniform(-1, 1, t.components.shape))
        for name, t in bindings.items()
    }


def _assert_same_plan(got: ContractionPlan, want: ContractionPlan):
    for field in dataclasses.fields(ContractionPlan):
        assert getattr(got, field.name) == getattr(want, field.name), field.name


def _assert_bit_identical(got, want):
    assert (got.dim, got.slots, got.weight) == (want.dim, want.slots, want.weight)
    assert got.components.tobytes() == want.components.tobytes()


def test_a_hit_on_other_bindings_matches_a_cleared_cache():
    """A plan cached for one binding set runs another set with the same
    signatures exactly as a plan built for it would."""
    rng = np.random.default_rng(44)
    corpus = [random_statement(rng)[:2] for _ in range(200)]
    for text, bindings in corpus:
        for mode in Mode:
            validate(parse(text), bindings, mode)  # fill the cache
            other = _fresh(bindings, rng)
            hit = validate(parse(text), other, mode)
            _clear()
            miss = validate(parse(text), other, mode)
            assert hit is not miss
            _assert_same_plan(hit, miss)
            _assert_same_plan(order_contractions(hit), order_contractions(miss))
            for h, m in ((hit, miss), (order_contractions(hit), order_contractions(miss))):
                _assert_bit_identical(execute(h, other), execute(m, other))


@pytest.mark.parametrize("dim", [3, 5])
def test_the_catalogue_reports_the_same_with_a_warm_cache(dim):
    _clear()
    cold = exercises.run_checks(dim=dim, seed=42)
    warm = exercises.run_checks(dim=dim, seed=42)
    assert parse.cache_info().hits > 0 and _validate.cache_info().hits > 0
    assert [(r.check_id, r.status, r.deviation) for r in cold] == [
        (r.check_id, r.status, r.deviation) for r in warm
    ]


def test_a_violation_after_a_hit_raises_what_the_body_raises():
    a = new_object(3, (DOWN,), 0, [1.0, 2.0, 3.0])
    b = new_object(3, (DOWN,), 0, [0.0, 1.0, 0.0])
    heavy = new_object(3, (DOWN,), 1, [0.0, 1.0, 0.0])
    text = "s_r = a_r + b_r"
    for _ in range(2):  # a miss, then a hit
        assert validate(parse(text), {"a": a, "b": b}).weight == 0
    with pytest.raises(ConventionError) as cached:
        validate(parse(text), {"a": a, "b": heavy})
    with pytest.raises(ConventionError) as body:
        stmt, bindings = parse(text), {"a": a, "b": heavy}
        _lower(stmt, Mode.STRICT, _resolve(stmt, bindings))
    assert str(cached.value) == str(body.value)
    assert str(cached.value) == "weight mismatch between summed terms: 0 in term 1 vs 1 in term 2"
    # a name missing after a hit: the key cannot be built, the resolver reports it
    with pytest.raises(ShapeError) as missing:
        validate(parse(text), {"a": a})
    assert str(missing.value) == "no binding for name 'b'"


def test_plan_signatures_are_read_only():
    x = new_object(3, (UP,), 0, [1.0, 2.0, 3.0])
    plan = validate(parse("y^r = x^r"), {"x": x})
    assert dict(plan.signatures) == {"x": (3, (UP,), 0)}
    with pytest.raises(TypeError):
        plan.signatures["x"] = (4, (UP,), 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.signatures = {}


def test_a_plan_survives_pickle_and_copy():
    """The copy is rebuilt through the constructor: its own replay runs to
    the same bytes, and its signatures stay read-only."""
    rng = np.random.default_rng(2021)
    corpus = [random_statement(rng)[:2] for _ in range(60)]
    corpus.append(("P^r = 2 * A^r_1", {"A": new_object(3, (UP, DOWN), 0, np.eye(3))}))
    for text, bindings in corpus:
        plan = validate(parse(text), bindings)
        for p in (plan, order_contractions(plan)):
            want = execute(p, bindings)
            for other in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
                assert other is not p
                _assert_same_plan(other, p)
                _assert_bit_identical(execute(other, bindings), want)
                assert type(other.signatures) is MappingProxyType
                with pytest.raises(TypeError):
                    other.signatures["x"] = (4, (UP,), 0)


def test_the_cache_holds_no_binding():
    x = new_object(3, (UP,), 0, [1.0, 2.0, 3.0])
    ref = weakref.ref(x)
    validate(parse("y^r = x^r"), {"x": x})
    del x
    gc.collect()
    assert ref() is None


def test_caches_stay_bounded():
    x = new_object(2, (UP,), 0, [1.0, 2.0])
    for k in range(1000):
        order_contractions(validate(parse(f"y^r = {k + 1} * x^r"), {"x": x}))
    for cache in CACHES:
        assert cache.cache_info().currsize <= CACHE_SIZE


V3 = (3, (UP,), 0)
COVECTOR3 = (3, (DOWN,), 0)
FAILURES = [
    ("y^r = x^r_s", {"x": V3}, Mode.STRICT, ShapeError),  # arity
    ("y_r = x_r", {"x": V3}, Mode.STRICT, ShapeError),  # variance counts
    ("t^{abcdefgh} = x^a x^b x^c x^d x^e x^f x^g x^h",
     {"x": (9, (UP,), 0)}, Mode.STRICT, ShapeError),  # storage cap
    ("y = x^4", {"x": V3}, Mode.STRICT, AddressingError),
    ("y = x^4", {"x": V3}, Mode.ORTHOGONAL, AddressingError),
    ("t = m_{rrr}", {"m": (3, (DOWN,) * 3, 0)}, Mode.ORTHOGONAL, ConventionError),
    ("t = g_{rr}", {"g": (3, (DOWN, DOWN), 0)}, Mode.STRICT, ConventionError),
    ("z_r = a_r + b_s", {"a": COVECTOR3, "b": COVECTOR3}, Mode.STRICT, ConventionError),
    ("z_r = a_r + b^r", {"a": COVECTOR3, "b": V3}, Mode.STRICT, ConventionError),
    ("s_r = a_r + b_r", {"a": COVECTOR3, "b": (3, (DOWN,), 1)}, Mode.STRICT, ConventionError),
    ("a_r", {"a": COVECTOR3}, Mode.STRICT, ConventionError),  # no target
    ("z_1 = a_r v^r", {"a": COVECTOR3, "v": V3}, Mode.STRICT, ConventionError),
    ("z_s = a_r", {"a": COVECTOR3}, Mode.ORTHOGONAL, ConventionError),
    ("z^r = a_r", {"a": COVECTOR3}, Mode.STRICT, ConventionError),
]


def _body_failure(text, bindings, mode):
    stmt = parse(text)
    with pytest.raises((ShapeError, ConventionError, AddressingError)) as body:
        _lower(stmt, mode, _resolve(stmt, bindings))
    return type(body.value), str(body.value)


@pytest.mark.parametrize("text, bindings, mode, error", FAILURES)
def test_a_repeated_failure_is_a_hit_raising_a_new_instance(text, bindings, mode, error):
    _clear()
    want = _body_failure(text, bindings, mode)
    assert want[0] is error
    raised = []
    for k in range(3):  # a miss, then two hits
        with pytest.raises(error) as got:
            validate(parse(text), bindings, mode)
        assert (type(got.value), str(got.value)) == want
        assert _validate.cache_info().hits == k
        assert all(got.value is not old for old in raised)
        raised.append(got.value)
    assert _validate.cache_info().currsize == 1


def _mutated(bindings, rng):
    """Signatures of ``bindings`` with one name's dim, a slot, the rank or
    the weight changed, so that validate may fail in its body."""
    sigs = {name: (t.dim, t.slots, t.weight) for name, t in bindings.items()}
    name = str(rng.choice(sorted(sigs)))
    dim, slots, weight = sigs[name]
    kind = int(rng.integers(0, 4))
    if kind == 0:  # every name, so that the resolver's dim check passes
        sigs = {n: (d - 1, s, w) for n, (d, s, w) in sigs.items()}
    elif kind == 1 and slots:
        k = int(rng.integers(0, len(slots)))
        flipped = DOWN if slots[k] is UP else UP
        sigs[name] = (dim, slots[:k] + (flipped,) + slots[k + 1:], weight)
    elif kind == 2:
        sigs[name] = (dim, slots + (UP,), weight)
    else:
        sigs[name] = (dim, slots, weight + 1)
    return sigs


def _validated(text, sigs, mode):
    try:
        return validate(parse(text), sigs, mode)
    except (ShapeError, ConventionError, AddressingError) as exc:
        return type(exc), str(exc)


def test_a_hit_on_mutated_signatures_matches_a_cleared_cache():
    """Plan or failure, a hit gives what a miss gives, and a failure what
    the uncached body raises."""
    rng = np.random.default_rng(45)
    failures = 0
    for _ in range(200):
        text, bindings = random_statement(rng)[:2]
        sigs = _mutated(bindings, rng)
        for mode in Mode:
            _validated(text, sigs, mode)  # fill the cache
            hit = _validated(text, sigs, mode)
            _clear()
            miss = _validated(text, sigs, mode)
            if isinstance(miss, ContractionPlan):
                _assert_same_plan(hit, miss)
            else:
                failures += 1
                assert hit == miss == _body_failure(text, sigs, mode)
    assert failures > 100


def _fail(text, bindings):
    # not pytest.raises: its ExceptionInfo would keep the traceback, and
    # with it the bindings
    try:
        validate(parse(text), bindings)
    except ConventionError:
        return
    raise AssertionError(f"{text!r} validated")


def test_the_cache_holds_no_binding_of_a_failure():
    x = new_object(3, (UP,), 0, [1.0, 2.0, 3.0])
    ref = weakref.ref(x)
    for _ in range(2):  # a miss, then a hit
        _fail("y_r = x^r", {"x": x})
    del x
    gc.collect()
    assert ref() is None


def test_caches_stay_bounded_on_failures():
    _clear()
    x = new_object(2, (UP,), 0, [1.0, 2.0])
    for k in range(1000):
        _fail(f"y_r = {k + 1} * x^r", {"x": x})
    assert _validate.cache_info().misses == 1000
    for cache in CACHES:
        assert cache.cache_info().currsize <= CACHE_SIZE


@pytest.mark.parametrize("text, bindings", [
    ("t = q_r v^r", {"v": V3}),  # unbound
    ("t = x^r v_r", {"x": (3.7, (UP,), 0), "v": COVECTOR3}),  # malformed
    ("t = x^r", {"x": "not a signature"}),  # malformed
    ("t = a_r v^r", {"a": COVECTOR3, "v": (4, (UP,), 0)}),  # dim mismatch
])
def test_resolver_errors_add_no_cache_entry(text, bindings):
    _clear()
    for _ in range(2):
        with pytest.raises(ShapeError):
            validate(parse(text), bindings)
    assert _validate.cache_info() == (0, 0, CACHE_SIZE, 0)
