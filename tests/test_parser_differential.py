"""``parse`` against the reference scanner in ``oracles.reference_parse``.

On any text both return equal statements or raise ExpressionSyntaxError
with the same message and column.  The one intended difference: ``parse``
refuses a coefficient that reads as a non-finite float (``1e999``) at the
coefficient's first column, where the reference reads it as ``inf``.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_parse

from indicial.einsum import parse
from indicial.errors import ExpressionSyntaxError

# names follow str.isalpha / str.isalnum and numbers \d, so the letters and
# digits outside ASCII sit on those boundaries: é and α are letters, ² and
# ½ are alphanumeric but not letters, ٣ is a decimal digit
_PIECES = [
    "y", "a", "x1", "t0f1", "é", "α", "²", "½", "٣",
    "_", "^", "{", "}", "r", "s", "z", "1", "9", "0", "R",
    " ", "  ", "\t", " ", "=", "+", "-", "*",
    "2", "1.5", ".5", "1.", "e3", "E-2", "1e999", "1e-999", "٣e400",
    "(", ")", ",", ";", "..", "_{rs}", "^{tu}", "a^r_s", "x^s",
]
_ALPHABET = "".join(sorted({c for piece in _PIECES for c in piece}))

texts = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=14).map("".join),
    st.text(alphabet=_ALPHABET, max_size=24),
)


def _outcome(fn, text):
    try:
        return fn(text)
    except ExpressionSyntaxError as exc:
        return type(exc), str(exc), exc.position


def _has_non_finite_coefficient(statement) -> bool:
    return any(not math.isfinite(term.coefficient) for term in statement.terms)


@settings(max_examples=1000, deadline=None)
@given(texts)
def test_parse_agrees_with_the_reference_scanner(text):
    got, want = _outcome(parse, text), _outcome(reference_parse, text)
    for outcome in (got, want):
        if type(outcome) is tuple:
            assert 1 <= outcome[2] <= len(text) + 1
    if type(got) is tuple and "is not a finite number" in got[1]:
        # the intended difference: the reference read the coefficient at
        # that column as inf and either went on to a statement or failed
        # on something after it
        column = got[2]
        assert not math.isfinite(float(text[column - 1:].split("*")[0]))
        if type(want) is tuple:
            assert want[2] > column
        else:
            assert _has_non_finite_coefficient(want)
        return
    if type(want) is not tuple:
        assert not _has_non_finite_coefficient(want)
    assert got == want


# every error and branch of the parser, fixed so that each run takes them
_EDGES = [
    "", "   ", "y^r = 2.5 * e^r_{st} u^s v^t", "t = -a_r x^r + 1e-3 * b_s y^s - c_m z^m",
    "+ x^r", "y = = a_r", "= a_r", "y^r = ", "t = x_1^2", "x", "x y_r", "x_", "x_r_",
    "x^{", "x^{}", "x^{r", "x^{rR}", "x^{r s}", "x_R", "x_0", "y_{r = a_r", "2 a_r",
    "2 * 3 * a_r", "a_r 2 * b_r", "a_r +", "a_r ++ b_r", "a_r x*", "a_r x^r garbage(",
    "²_r", "a_r ²_r", "½ * a_r", "٣ * a_r", "é_r = α_r", "t0f1_r", "1. * a_r", ".5e+2 * a_r",
    "a_r = b_r = c_r",
]


@pytest.mark.parametrize("text", _EDGES)
def test_parse_agrees_with_the_reference_scanner_on_each_branch(text):
    got, want = _outcome(parse, text), _outcome(reference_parse, text)
    assert got == want


@pytest.mark.parametrize(
    "text, column",
    [("y_r = 1e999 * a_r", 7), ("y_r = -1e999 * a_r", 8), ("a_r + 2e400 * b_r", 7),
     ("1e999 * a_r + b_r +", 1)],
)
def test_a_non_finite_coefficient_is_a_syntax_error_at_its_column(text, column):
    with pytest.raises(ExpressionSyntaxError, match="is not a finite number") as err:
        parse(text)
    assert err.value.position == column


def test_an_underflowing_coefficient_reads_as_zero():
    assert parse("y_r = 1e-999 * a_r").terms[0].coefficient == 0.0
