"""The memoized einsum stages: parse, validate and order_contractions share
their results between calls, and a hit gives what the uncached body gives."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_statement

from indicial import exercises
from indicial.einsum import ContractionPlan, Mode, execute, order_contractions, parse, validate
from indicial.einsum.planner import _resolve, _validate
from indicial.einsum.syntax import CACHE_SIZE
from indicial.errors import ConventionError, ExpressionSyntaxError, ShapeError
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
        _validate.__wrapped__(stmt, Mode.STRICT, _resolve(stmt, bindings))
    assert str(cached.value) == str(body.value)
    assert str(cached.value) == "weight mismatch between summed terms: 0 in term 1 vs 1 in term 2"
    # a name missing after a hit: the key cannot be built, the body reports it
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
