"""Properties: a strict-mode statement means the same thing in every frame,
and an orthogonal-mode pairing of two lower indices does not.

``validate`` does the weight bookkeeping for a statement's result, so the
first property fails when a factor's weight is left out of a term's sum."""

import re

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import random_statement

from indicial.einsum import Mode, execute, parse, validate
from indicial.frames import random_frame, transform
from indicial.symbols import KroneckerKind, kronecker

_FIXED_DIGIT = re.compile(r"[_^][0-9]")


def _max_abs(arr) -> float:
    return float(np.max(np.abs(arr)))


@st.composite
def _covariant_case(draw):
    """A random strict statement with no fixed digit (an index pinned to a
    digit names a component, which no frame law keeps), its bindings and a
    random frame of its dimension."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    text, bindings, dim = random_statement(rng)
    while _FIXED_DIGIT.search(text):
        text, bindings, dim = random_statement(rng)
    return text, bindings, random_frame(rng, dim)


@settings(max_examples=500, deadline=None)
@given(_covariant_case())
def test_a_strict_statement_commutes_with_every_frame(case):
    text, bindings, f = case
    plan = validate(parse(text), bindings, Mode.STRICT)
    moved = transform(execute(plan, bindings), f)
    moved_bindings = {name: transform(t, f) for name, t in bindings.items()}
    evaluated = execute(validate(parse(text), moved_bindings, Mode.STRICT), moved_bindings)
    assert (evaluated.slots, evaluated.weight) == (moved.slots, moved.weight)
    gap = _max_abs(evaluated.components - moved.components)
    assert gap <= 1e-9 * max(1.0, _max_abs(moved.components)), text


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_an_orthogonal_lower_pairing_changes_under_a_non_orthogonal_frame(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    f = random_frame(rng, dim)
    p = f.gamma.components.T @ f.gamma.components  # the moved delta d_{rs}
    defect = _max_abs(p - np.eye(dim))
    assume(defect > 1e-6)  # an orthogonal frame keeps the pairing
    d = kronecker(dim, KroneckerKind.LOWER_LOWER)
    text = "g_{st} = d_{rs} d_{rt}"
    moved = transform(execute(validate(parse(text), {"d": d}, Mode.ORTHOGONAL), {"d": d}), f)
    d_new = transform(d, f)
    evaluated = execute(validate(parse(text), {"d": d_new}, Mode.ORTHOGONAL), {"d": d_new})
    # the gap is p @ p - p; p's eigenvalues are at least 1 / dim**2 (the
    # entries of c lie in [-1, 1]), which bounds it below by defect / dim**3
    gap = _max_abs(evaluated.components - moved.components)
    assert gap >= defect / dim ** 3 / 2, text
