"""Grammar and parser for index-notation statements.

::

    stmt   := [name indices? '='] expr
    expr   := ['+' | '-'] term (('+' | '-') term)*
    term   := [real '*'] factor+
    factor := name ('_' group | '^' group)+
    group  := index | '{' index+ '}'
    index  := 'a'..'z' | '1'..'9'

Factors multiply by juxtaposition; whitespace between tokens is
insignificant.  A name starts with a letter (``str.isalpha``) and goes on
with letters and digits (``str.isalnum``).  A lowercase letter is a
symbolic index; a digit is a fixed 1-based index value (a slice, never
summed).  Index letters are case-sensitive and lowercase only.  A target
before '=' names the result and fixes the output slot order; it may carry
no indices for a scalar.  A coefficient must read as a finite float:
``1e999`` is a syntax error at its first column, while ``1e-999`` reads as
0.0.

``parse`` reads a text one token at a time, each with one compiled pattern
matched at the current position: a name with its whole run of index
groups, a number with its '*', or a sign (a leading target is one more
pattern, ending in '=').  Where no token fits, the same parser names the
error and its column from the position the last token left.  Every
``IndexSpec`` comes from one table of the 70 (symbol, variance) pairs, so
statements share them; a spec still compares and hashes by its two fields.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field

from ..errors import ExpressionSyntaxError
from ..objects import DOWN, UP, Variance

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
            dict.fromkeys([f.name for term in self.terms for f in term.factors])
        ))

    def __hash__(self) -> int:
        return self._hash


# A name with its whole run of well-formed index groups.  ``[^\W_]`` is
# ``str.isalnum``; a name's first character must also pass ``str.isalpha``,
# which no character class spells, so the parser tests it.
_NAME = r"(?P<name>[^\W\d_][^\W_]*)(?P<indices>(?:[_^](?:[a-z1-9]|\{[a-z1-9]+\}))*)"
# a leading "name indices? =", the target
_TARGET = re.compile(r"\s*" + _NAME + r"\s*=")
# One token at the current position, after the whitespace in group 1: a
# name, a number with the '*' after it, or a sign.  ``lastgroup`` names the
# kind: "indices" for a name (whose run may be empty), "star" or "number"
# for a number with or without its '*', "sign", or None when no token
# starts there.  ``\s`` is ``str.isspace`` and ``\d`` is ``str.isdecimal``.
_TOKEN = re.compile(
    r"(\s*)(?:" + _NAME
    + r"|(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)\s*(?P<star>\*)?"
    + r"|(?P<sign>[-+]))?"
)
_INDEX_CHARS = re.compile(r"[a-z1-9]*")

# the 70 written indices, shared by every statement: marker -> symbol -> spec
_SPECS = {
    marker: {symbol: IndexSpec(symbol, variance)
             for symbol in "abcdefghijklmnopqrstuvwxyz123456789"}
    for marker, variance in (("_", DOWN), ("^", UP))
}


def _index_specs(run: str) -> tuple[IndexSpec, ...]:
    """The specs of a run of well-formed index groups, such as ``^r_{st}``."""
    specs = []
    for ch in run:
        if ch in _SPECS:
            table = _SPECS[ch]
        elif ch != "{" and ch != "}":
            specs.append(table[ch])
    return tuple(specs)


def _factor_error(text: str, end: int) -> ExpressionSyntaxError:
    """The error for a name whose run of good index groups ends at ``end``
    and is empty or followed by a malformed group."""
    if not text.startswith(("_", "^"), end):
        return ExpressionSyntaxError("a factor needs at least one index", end + 1)
    pos = end + 1
    if text.startswith("{", pos):
        pos = _INDEX_CHARS.match(text, pos + 1).end()
        if pos == len(text):
            return ExpressionSyntaxError("unterminated '{' index group", pos + 1)
        if text[pos] == "}":
            # a '}' after index symbols would have closed a good group
            return ExpressionSyntaxError("empty '{}' index group", pos + 1)
    return ExpressionSyntaxError(
        f"index must be a lowercase letter a..z or a digit 1..9, got {text[pos:pos + 1]!r}",
        pos + 1,
    )


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
    target: FactorRef | None = None
    pos = 0
    m = _TARGET.match(text)
    if m is not None and m.group("name")[0].isalpha():
        target = FactorRef(m.group("name"), _index_specs(m.group("indices")))
        pos = m.end()
    token = _TOKEN.match
    m = token(text, pos)
    kind = m.lastgroup

    # the first term's sign is optional and every later term's is not
    terms = []
    while not terms or kind == "sign":
        sign = 1.0
        if kind == "sign":
            sign = -1.0 if m.group("sign") == "-" else 1.0
            m = token(text, m.end())
            kind = m.lastgroup
        coefficient = 1.0
        if kind == "number":
            raise ExpressionSyntaxError(
                "expected '*' after a numeric coefficient", m.end() + 1
            )
        if kind == "star":
            coefficient = float(m.group("number"))
            if not math.isfinite(coefficient):
                raise ExpressionSyntaxError(
                    f"coefficient {m.group('number')} is not a finite number",
                    m.end(1) + 1,
                )
            m = token(text, m.end())
            kind = m.lastgroup
        factors = []
        while kind == "indices":
            name, run = m.group("name", "indices")
            if not name[0].isalpha():
                break
            end = m.end()
            if not run or text.startswith(("_", "^"), end):
                raise _factor_error(text, end)
            factors.append(FactorRef(name, _index_specs(run)))
            m = token(text, end)
            kind = m.lastgroup
        if not factors:
            raise ExpressionSyntaxError("expected a factor", m.end(1) + 1)
        terms.append(Term(sign * coefficient, tuple(factors)))
    at = m.end(1)
    if at != len(text):
        raise ExpressionSyntaxError(f"unexpected {text[at]!r}", at + 1)
    return Statement(target, tuple(terms))
