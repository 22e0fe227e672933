"""The warm statement path enters no Python frame it does not need.

Once ``parse``, ``validate`` and ``order_contractions`` have seen a
statement, a call on fresh bindings of the same signatures should cost
only its cache lookups, the bindings check, the numpy calls and one
``TensorObject``.  Each call below is made once to warm the caches, then
again on fresh bindings under ``sys.setprofile``, and the Python frames it
enters are pinned exactly, by file and function name.  A Python-level call
added to one of these paths then fails here, where a benchmark would only
read a little slower.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from indicial.einsum import execute, order_contractions, parse, validate
from indicial.objects import DOWN, UP, new_object

TEXT = "y^r = a^r_s x^s"


def _frames_entered(fn, *args) -> list[str]:
    """``file:function`` of each Python frame entered while ``fn(*args)`` runs."""
    entered: list[str] = []

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.append(f"{os.path.basename(code.co_filename)}:{code.co_name}")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return entered


def _bindings(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {"a": new_object(3, (UP, DOWN), 0, rng.standard_normal((3, 3))),
            "x": new_object(3, (UP,), 0, rng.standard_normal(3))}


def test_new_object_enters_only_the_constructor():
    arr = np.random.default_rng(1).standard_normal((3, 3))
    new_object(3, (UP, DOWN), 0, arr)
    assert _frames_entered(new_object, 3, (UP, DOWN), 0, arr.copy()) == [
        "objects.py:new_object", "objects.py:__init__"]


def test_a_parse_hit_enters_no_frame():
    parse(TEXT)
    assert _frames_entered(parse, TEXT) == []


def test_a_validate_hit_enters_only_the_resolver():
    statement = parse(TEXT)
    validate(statement, _bindings(2))
    assert _frames_entered(validate, statement, _bindings(3)) == [
        "planner.py:validate", "planner.py:_resolve", "syntax.py:__hash__"]


def test_an_order_contractions_hit_enters_no_frame():
    plan = validate(parse(TEXT), _bindings(4))
    order_contractions(plan)
    assert _frames_entered(order_contractions, plan) == []


def test_a_warm_mat_vec_execute_enters_only_the_result_constructor():
    plan = order_contractions(validate(parse(TEXT), _bindings(5)))
    execute(plan, _bindings(6))
    assert _frames_entered(execute, plan, _bindings(7)) == [
        "executor.py:execute", "objects.py:__init__"]
