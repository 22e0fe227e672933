import pytest

from indicial.einsum import parse
from indicial.einsum.syntax import FactorRef, IndexSpec, Statement, Term
from indicial.errors import ExpressionSyntaxError
from indicial.objects import DOWN, UP


def test_single_factor_no_target():
    stmt = parse("a_r x^r")
    assert stmt.target is None
    assert len(stmt.terms) == 1
    term = stmt.terms[0]
    assert term.coefficient == 1.0
    assert [f.name for f in term.factors] == ["a", "x"]
    assert term.factors[0].indices == (IndexSpec("r", DOWN),)
    assert term.factors[1].indices == (IndexSpec("r", UP),)


def test_target_with_indices():
    stmt = parse("y^r_s = m^r_s")
    assert stmt.target == FactorRef("y", (IndexSpec("r", UP), IndexSpec("s", DOWN)))


def test_scalar_target():
    stmt = parse("t = a_r x^r")
    assert stmt.target == FactorRef("t", ())


def test_braced_groups_expand():
    stmt = parse("e_{rst}")
    assert stmt.terms[0].factors[0].indices == (
        IndexSpec("r", DOWN),
        IndexSpec("s", DOWN),
        IndexSpec("t", DOWN),
    )


def test_mixed_variance_runs():
    stmt = parse("x^{rs}_t^u")
    specs = stmt.terms[0].factors[0].indices
    assert [s.variance for s in specs] == [UP, UP, DOWN, UP]
    assert [s.letter for s in specs] == ["r", "s", "t", "u"]


def test_digits_are_fixed_indices():
    stmt = parse("x_1^r")
    first, second = stmt.terms[0].factors[0].indices
    assert first.is_fixed and first.letter == "1"
    assert not second.is_fixed


def test_coefficients_and_signs():
    stmt = parse("t = -2.5 * a_r x^r + b_s y^s - c_m z^m")
    coeffs = [term.coefficient for term in stmt.terms]
    assert coeffs == [-2.5, 1.0, -1.0]


def test_leading_plus():
    assert parse("+ a_r x^r").terms[0].coefficient == 1.0


def test_scientific_coefficient():
    assert parse("1.5e-3 * a_r x^r").terms[0].coefficient == 1.5e-3


def test_multicharacter_names():
    stmt = parse("out_r = t0f1_r")
    assert stmt.target.name == "out"
    assert stmt.terms[0].factors[0].name == "t0f1"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "x",  # factor needs at least one index
        "x_",
        "x^{rs",
        "x_{}",
        "x_R",  # uppercase letters are not indices
        "x_0",  # zero is not a valid fixed index
        "2 a_r",  # coefficient requires '*'
        "a_r +",
        "a_r ++ b_r",
        "y^r = ",
        "= a_r",
        "a_r x^r garbage(",
        "x_r..",
    ],
)
def test_syntax_errors(text):
    with pytest.raises(ExpressionSyntaxError) as err:
        parse(text)
    assert "column" in str(err.value)
    assert err.value.position >= 1


def test_error_column_points_at_the_problem():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("a_r x*")
    assert err.value.position == 6


def test_statement_structures_are_frozen():
    stmt = parse("t = a_r x^r")
    assert isinstance(stmt, Statement)
    assert isinstance(stmt.terms[0], Term)
    with pytest.raises(AttributeError):
        stmt.terms[0].coefficient = 2.0


def test_z_is_the_last_index_letter():
    (term,) = parse("x^z y_z").terms
    assert [spec.letter for f in term.factors for spec in f.indices] == ["z", "z"]


def test_a_group_open_at_the_end_of_the_text_is_unterminated():
    with pytest.raises(ExpressionSyntaxError, match="unterminated '\\{' index group"):
        parse("t^{ab")


@pytest.mark.parametrize("text, kind", [(b"y = x", "bytes"), (None, "NoneType"), (3, "int")])
def test_a_text_that_is_not_a_str_is_a_syntax_error(text, kind):
    with pytest.raises(ExpressionSyntaxError) as err:
        parse(text)
    assert str(err.value) == f"statement text must be a str, got {kind} (column 1)"
    assert err.value.position == 1


def test_an_unhashable_text_fails_in_the_cache():
    with pytest.raises(TypeError, match="unhashable"):
        parse(["y = x"])
