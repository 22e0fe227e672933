"""Grammar and parser for index-notation statements.

::

    stmt   := [name indices? '='] expr
    expr   := ['+' | '-'] term (('+' | '-') term)*
    term   := [real '*'] factor+
    factor := name ('_' group | '^' group)+
    group  := index | '{' index+ '}'
    index  := 'a'..'z' | '1'..'9'

Factors multiply by juxtaposition; whitespace between tokens is
insignificant.  A lowercase letter is a symbolic index; a digit is a fixed
1-based index value (a slice, never summed).  Index letters are
case-sensitive and lowercase only.  A target before '=' names the result
and fixes the output slot order; it may carry no indices for a scalar.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

from ..errors import ExpressionSyntaxError
from ..objects import DOWN, UP, Variance

_NUMBER = re.compile(r"(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")

# entries per memo of the einsum stages (parse here, validate and
# order_contractions in the planner): enough for a working set of reused
# statements, and under 2 MB for all three when every text is new
CACHE_SIZE = 256


@dataclass(frozen=True)
class IndexSpec:
    """One written index: a letter 'a'..'z' or a fixed digit '1'..'9'."""

    letter: str
    variance: Variance

    @property
    def is_fixed(self) -> bool:
        return self.letter.isdigit()


@dataclass(frozen=True)
class FactorRef:
    name: str
    indices: tuple[IndexSpec, ...]


@dataclass(frozen=True)
class Term:
    coefficient: float
    factors: tuple[FactorRef, ...]


@dataclass(frozen=True)
class Statement:
    target: FactorRef | None
    terms: tuple[Term, ...]
    # hashed once, since the planner's cache hashes the statement per call
    _hash: int = field(init=False, repr=False, compare=False)
    # the referenced names in order of first appearance, which the
    # planner's cache key reads per call
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.target, self.terms)))
        object.__setattr__(self, "names", tuple(
            dict.fromkeys(f.name for term in self.terms for f in term.factors)
        ))

    def __hash__(self) -> int:
        return self._hash


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, pos: int | None = None) -> ExpressionSyntaxError:
        where = self.pos if pos is None else pos
        return ExpressionSyntaxError(message, where + 1)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def at_name(self) -> bool:
        ch = self.peek()
        return ch.isalpha() and ch not in "_^"

    def read_name(self) -> str:
        start = self.pos
        if not self.at_name():
            raise self.error("expected a name")
        while self.pos < len(self.text) and self.text[self.pos].isalnum():
            self.pos += 1
        return self.text[start : self.pos]

    def read_index_char(self) -> str:
        ch = self.peek()
        if "a" <= ch <= "z":
            self.pos += 1
            return ch
        if "1" <= ch <= "9":
            self.pos += 1
            return ch
        raise self.error(
            f"index must be a lowercase letter a..z or a digit 1..9, got {ch!r}"
        )

    def read_group(self, variance: Variance) -> list[IndexSpec]:
        if self.peek() == "{":
            self.pos += 1
            specs: list[IndexSpec] = []
            while self.peek() != "}":
                if self.pos >= len(self.text):
                    raise self.error("unterminated '{' index group")
                specs.append(IndexSpec(self.read_index_char(), variance))
            if not specs:
                raise self.error("empty '{}' index group")
            self.pos += 1
            return specs
        return [IndexSpec(self.read_index_char(), variance)]

    def read_indices(self) -> tuple[IndexSpec, ...]:
        specs: list[IndexSpec] = []
        while self.peek() in ("_", "^"):
            variance = DOWN if self.peek() == "_" else UP
            self.pos += 1
            specs.extend(self.read_group(variance))
        return tuple(specs)

    def read_factor(self) -> FactorRef:
        name = self.read_name()
        at = self.pos
        indices = self.read_indices()
        if not indices:
            raise self.error("a factor needs at least one index", at)
        return FactorRef(name, indices)

    def read_coefficient(self) -> float | None:
        m = _NUMBER.match(self.text, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        self.skip_ws()
        if self.peek() != "*":
            raise self.error("expected '*' after a numeric coefficient")
        self.pos += 1
        return float(m.group(0))

    def read_term(self, sign: float) -> Term:
        self.skip_ws()
        coeff = self.read_coefficient()
        if coeff is None:
            coeff = 1.0
        factors: list[FactorRef] = []
        while True:
            self.skip_ws()
            if not self.at_name():
                break
            factors.append(self.read_factor())
        if not factors:
            raise self.error("expected a factor")
        return Term(sign * coeff, tuple(factors))

    def read_expr(self) -> tuple[Term, ...]:
        self.skip_ws()
        sign = 1.0
        if self.peek() in ("+", "-"):
            sign = -1.0 if self.peek() == "-" else 1.0
            self.pos += 1
        terms = [self.read_term(sign)]
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch not in ("+", "-"):
                break
            self.pos += 1
            terms.append(self.read_term(-1.0 if ch == "-" else 1.0))
        return tuple(terms)


@functools.lru_cache(maxsize=CACHE_SIZE)
def parse(text: str) -> Statement:
    """Parse one statement.  Raises ExpressionSyntaxError with a column,
    also for a ``text`` that is not a ``str`` (column 1).

    Memoized on the text; the statement is immutable, so callers share it.
    An unhashable argument, such as a list, still fails in the cache with
    TypeError before the body runs.
    """
    if not isinstance(text, str):
        raise ExpressionSyntaxError(
            f"statement text must be a str, got {type(text).__name__}", 1
        )
    sc = _Scanner(text)
    target: FactorRef | None = None

    # a leading "name indices? =" is a target; otherwise rewind
    sc.skip_ws()
    mark = sc.pos
    if sc.at_name():
        name = sc.read_name()
        indices = sc.read_indices()
        sc.skip_ws()
        if sc.peek() == "=":
            sc.pos += 1
            target = FactorRef(name, indices)
        else:
            sc.pos = mark

    terms = sc.read_expr()
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise sc.error(f"unexpected {sc.peek()!r}")
    return Statement(target, terms)
