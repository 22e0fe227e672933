"""Reference implementations the tests compare the library against.

Deliberately naive: pure Python loops over lists, recursion, no shared code
with the package internals and no vectorized shortcuts.  Slow is fine here.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from indicial.einsum.syntax import FactorRef, IndexSpec, Statement, Term
from indicial.errors import DocumentError, ExpressionSyntaxError
from indicial.objects import DOWN, UP, TensorObject, Variance


def cofactor_det(rows: list[list[float]]) -> float:
    """Recursive expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0.0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1.0 if j % 2 else 1.0
        total += sign * rows[0][j] * cofactor_det(minor)
    return total


def gauss_jordan_inverse(rows: list[list[float]]) -> list[list[float]]:
    """Row reduction with partial pivoting on an augmented matrix."""
    n = len(rows)
    aug = [
        [float(v) for v in row] + [1.0 if i == j else 0.0 for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[pivot][col]) == 0.0:
            raise ZeroDivisionError("singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0.0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def bucket_slots(written, slots) -> list[int]:
    """Map written indices to slot positions, upper and lower separately."""
    upper = [k for k, v in enumerate(slots) if v is UP]
    lower = [k for k, v in enumerate(slots) if v is DOWN]
    out: list[int] = []
    for spec in written:
        bucket = upper if spec.variance is UP else lower
        out.append(bucket.pop(0))
    return out


def positional_slots(written, slots) -> list[int]:
    return list(range(len(written)))


def naive_eval(statement, bindings, dim, orthogonal=False):
    """Single loop over every letter assignment, one term at a time.

    Returns (array, muladd_counts) where muladd_counts[i] is the number of
    accumulated products for term i.
    """
    mapper = positional_slots if orthogonal else bucket_slots
    target = statement.target
    free = [spec.letter for spec in target.indices] if target else []
    out = np.zeros((dim,) * len(free))
    counts = []
    for term in statement.terms:
        letters: list[str] = []
        placements = []  # per factor: list of (slot, letter or fixed value)
        for f in term.factors:
            obj = bindings[f.name]
            slot_map = mapper(f.indices, obj.slots)
            entries = []
            for spec, slot in zip(f.indices, slot_map):
                if spec.is_fixed:
                    entries.append((slot, int(spec.letter)))
                else:
                    entries.append((slot, spec.letter))
                    if spec.letter not in letters:
                        letters.append(spec.letter)
            placements.append((obj, entries))
        count = 0
        for assign in itertools.product(range(1, dim + 1), repeat=len(letters)):
            env = dict(zip(letters, assign))
            prod = term.coefficient
            for obj, entries in placements:
                idx = [0] * len(entries)
                for slot, ref in entries:
                    idx[slot] = ref if isinstance(ref, int) else env[ref]
                prod *= obj.component(tuple(idx))
            out[tuple(env[l] - 1 for l in free)] += prod
            count += 1
        counts.append(count)
    return out, counts


def direct_law(t: TensorObject, c_rows, gamma_rows, det_gamma: float, weight: int):
    """Transformation law written out as an explicit sum over old indices."""
    d = t.dim
    out = np.zeros(t.components.shape)
    scale = 1.0
    for _ in range(abs(weight)):
        scale = scale * det_gamma if weight > 0 else scale / det_gamma
    for new_idx in itertools.product(range(d), repeat=t.rank):
        total = 0.0
        for old_idx in itertools.product(range(d), repeat=t.rank):
            factor = 1.0
            for k, variance in enumerate(t.slots):
                if variance is UP:
                    factor *= c_rows[new_idx[k]][old_idx[k]]
                else:
                    factor *= gamma_rows[old_idx[k]][new_idx[k]]
            total += factor * float(t.components[old_idx])
        out[new_idx] = total * scale
    return out


def read_array_per_item(node, dim: int, rank: int, what: str) -> np.ndarray:
    """The document reader checked one item at a time: nesting level by
    level, then each leaf, then the float64 range, then finiteness, with the
    library's messages."""
    level = [node]
    for depth in range(rank):
        if any(not isinstance(sub, list) or len(sub) != dim for sub in level):
            raise DocumentError(f"{what} must nest lists of length {dim} at depth {depth}")
        level = [v for sub in level for v in sub]
    for v in level:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise DocumentError(f"{what} must hold numbers at depth {rank}, got {v!r}")
    try:
        arr = np.array(level, dtype=np.float64)
    except OverflowError:
        raise DocumentError(f"{what} holds an integer outside the float64 range") from None
    finite = np.isfinite(arr)
    if not finite.all():
        raise DocumentError(f"{what} must be finite, got {arr[~finite][0]}")
    return arr.reshape((dim,) * rank)


def cross3(a, b) -> list[float]:
    return [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]


def dot3(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def compose_velocities(b1: float, b2: float) -> float:
    """Relativistic velocity addition along one axis."""
    return (b1 + b2) / (1.0 + b1 * b2)


def conjugation_residual(c, eta) -> float:
    """max |C^T eta C - eta| via explicit triple loops."""
    n = len(c)
    worst = 0.0
    for r in range(n):
        for s in range(n):
            total = 0.0
            for m in range(n):
                for k in range(n):
                    total += c[m][r] * eta[m][k] * c[k][s]
            worst = max(worst, abs(total - eta[r][s]))
    return worst


# ------------------------------------------------- random statement corpus

_FREE_LETTERS = "mnp"
_DUMMY_LETTERS = "rstuv"


def random_statement(rng: np.random.Generator, max_dim: int = 4):
    """Build a random valid statement plus matching bindings.

    Factors are written with their indices in slot order, so the bucket
    mapping is the identity and the naive oracle stays simple.  Rank <= 4,
    at most 4 factors and 3 terms, at most 2 free letters and 2 summed
    pairs per term, occasional fixed digits, coefficients, and a shared
    statement weight.
    """
    from indicial.objects import new_object

    dim = int(rng.integers(2, max_dim + 1))
    n_terms = int(rng.integers(1, 4))
    n_free = int(rng.integers(0, 3))
    free = [
        (_FREE_LETTERS[i], UP if rng.uniform() < 0.5 else DOWN)
        for i in range(n_free)
    ]
    weight = int(rng.integers(-1, 2))

    bindings: dict[str, TensorObject] = {}
    term_texts = []
    for tpos in range(n_terms):
        n_factors = int(rng.integers(1, 5))
        # indices written per factor, in slot order; rank capped at 4
        factor_specs: list[list[tuple[str, object]]] = [[] for _ in range(n_factors)]

        def place(letter: str, variance) -> None:
            open_spots = [i for i in range(n_factors) if len(factor_specs[i]) < 4]
            factor_specs[int(rng.choice(open_spots))].append((letter, variance))

        for letter, variance in free:
            place(letter, variance)
        capacity = 4 * n_factors - n_free
        n_dummy = min(int(rng.integers(0, 3)), capacity // 2)
        for k in range(n_dummy):
            letter = _DUMMY_LETTERS[k]
            place(letter, UP)
            place(letter, DOWN)
        for spots in factor_specs:
            if not spots:
                spots.append(
                    (str(rng.integers(1, dim + 1)), UP if rng.uniform() < 0.5 else DOWN)
                )

        parts = []
        for fpos, spots in enumerate(factor_specs):
            name = f"t{tpos}f{fpos}"
            slots = tuple(v for _, v in spots)
            w = weight if fpos == 0 else 0
            bindings[name] = new_object(
                dim, slots, w, rng.uniform(-1.0, 1.0, size=(dim,) * len(slots))
            )
            text = name
            for letter, variance in spots:
                text += ("^" if variance is UP else "_") + letter
            parts.append(text)
        coeff = float(rng.choice([1.0, 2.0, 0.5, -1.5, 3.0]))
        body = " ".join(parts)
        if coeff != 1.0:
            body = f"{abs(coeff)} * {body}"
        sign = "-" if coeff < 0 else "+"
        term_texts.append((sign, body))

    text = ""
    for k, (sign, body) in enumerate(term_texts):
        if k == 0:
            text = body if sign == "+" else f"- {body}"
        else:
            text += f" {sign} {body}"
    if free:
        target = "out"
        for letter, variance in free:
            target += ("^" if variance is UP else "_") + letter
        text = f"{target} = {text}"
    else:
        text = f"out = {text}"
    return text, bindings, dim


# ------------------------------------------------------ reference parser

# A character-at-a-time scanner for the statement grammar, the reference
# for ``indicial.einsum.parse``, which reads whole tokens with patterns;
# the differential test compares the two on arbitrary text.  It builds the
# library's own Statement classes, which compare by value.

_NUMBER = re.compile(r"(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")


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
        return self.peek().isalpha()

    def read_name(self) -> str:
        # callers test at_name() first
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalnum():
            self.pos += 1
        return self.text[start : self.pos]

    def read_index_char(self) -> str:
        ch = self.peek()
        if "a" <= ch <= "z" or "1" <= ch <= "9":
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


def reference_parse(text: str) -> Statement:
    """Parse one statement.  Raises ExpressionSyntaxError with a column,
    also for a ``text`` that is not a ``str`` (column 1)."""
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
