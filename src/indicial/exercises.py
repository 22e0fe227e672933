"""Built-in verification catalogue behind the check-exercises command.

Every check is called with its dimension (--dim, or the one it is fixed
to) and a generator seeded by (seed, crc32(check id)), so results are
independent of filtering and ordering and the rendered report is
byte-identical across runs with the same seed, dim and tolerance (timings
are opt-in because wall-clock time is not reproducible).

Checks return a max deviation compared against a limit: ``limit=0.0``
marks identities that are exact in double precision, a pinned float keeps
that specific bound, and ``limit=None`` uses the report tolerance (--tol).

A check that expects an error asks ``_raises``: the expected class counts
as a rejection, a normal return does not, and any other exception
propagates, so run_checks fails the check and names that class.

Every check can fail: each is named by at least one row of the fault table
in ``tests/test_catalogue_faults.py``, a plausible library fault under which
it fails, and each of its failure arms is taken by some row.  A check that
no such fault reaches is strengthened against an independent value or
deleted, and a check that fails under exactly the faults another fails
under, through the same library path, is merged into that one.
"""

from __future__ import annotations

import fnmatch
import itertools
import json
import math
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import determinants, frames, metric, minkowski, objects, symbols
from .einsum import Mode, execute, order_contractions, parse, validate
from .errors import (
    AddressingError,
    ConventionError,
    DefinitenessError,
    ExpressionSyntaxError,
    ShapeError,
    SingularityError,
    SuperluminalError,
)
from .objects import DOWN, UP, TensorObject, _scale, new_object

INF = float("inf")


@dataclass(frozen=True)
class Check:
    check_id: str
    title: str
    fn: Callable[[int, np.random.Generator], float]
    limit: float | None
    fixed_dim: int | None


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    title: str
    status: str  # "pass" | "fail"
    deviation: float
    limit: float
    elapsed_ms: float
    error: str | None = None  # the exception class when the check crashed


_REGISTRY: list[Check] = []


def _check(
    check_id: str,
    title: str,
    *,
    limit: float | None = None,
    fixed_dim: int | None = None,
):
    def wrap(fn):
        _REGISTRY.append(Check(check_id, title, fn, limit, fixed_dim))
        return fn

    return wrap


# ---------------------------------------------------------------- helpers

def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _frame_gap(f: frames.Frame, op: Callable, *objs: TensorObject) -> float:
    """Max deviation between transforming ``op``'s result and applying ``op``
    to the transformed operands: zero (to rounding) when ``op`` is covariant."""
    new = op(*(frames.transform(t, f) for t in objs))
    return _scale(frames.transform(op(*objs), f).components - new.components)


def _fixed_gap(f: frames.Frame, *objs: TensorObject) -> float:
    """Max |transform(t) - t| over ``objs``: zero (to rounding) for objects
    that the frame leaves fixed."""
    return max(_scale(frames.transform(t, f).components - t.components) for t in objs)


def _inverse_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Max deviation of ``a @ b`` and ``b @ a`` from the identity."""
    eye = np.eye(len(a))
    return max(_scale(a @ b - eye), _scale(b @ a - eye))


def _raises(cls: type[Exception], fn: Callable, *args) -> bool:
    """True when ``fn(*args)`` raises ``cls``, False when it returns; any
    other exception propagates."""
    try:
        fn(*args)
    except cls:
        return True
    return False


def _rand(rng: np.random.Generator, dim: int, slots, weight: int = 0) -> TensorObject:
    slots = tuple(slots)
    return new_object(dim, slots, weight, rng.uniform(-1.0, 1.0, size=(dim,) * len(slots)))


def _rotation_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = np.eye(dim)
    for _ in range(max(3, dim)):
        i, j = rng.choice(dim, size=2, replace=False)
        a = rng.uniform(0.0, 2.0 * math.pi)
        g = np.eye(dim)
        g[i, i] = math.cos(a)
        g[j, j] = math.cos(a)
        g[i, j] = -math.sin(a)
        g[j, i] = math.sin(a)
        m = g @ m
    return m


def _spatial_rotation4(rng: np.random.Generator) -> np.ndarray:
    m = np.eye(4)
    m[1:, 1:] = _rotation_matrix(rng, 3)
    return m


def _oriented_rows(rng: np.random.Generator) -> np.ndarray:
    """A right-handed, well-conditioned 3 x 3 draw (det >= 0.1): the
    ``_invertible_rows`` draw, its first row negated if det < 0."""
    rows = determinants._invertible_rows(rng, 3)
    if np.linalg.det(rows) < 0:
        rows[0] = -rows[0]
    return rows


def _sym_rand(rng: np.random.Generator, dim: int) -> TensorObject:
    a = rng.uniform(-1.0, 1.0, size=(dim, dim))
    return new_object(dim, (DOWN, DOWN), 0, 0.5 * (a + a.T))


def _eval(text: str, bindings: dict[str, TensorObject], mode: Mode = Mode.STRICT):
    return execute(validate(parse(text), bindings, mode), bindings)


def _law_oracle(t: TensorObject, f: frames.Frame, weight: int) -> np.ndarray:
    """Direct summation form of the weighted law, built from the matrices."""
    c = f.c.components
    g = f.gamma.components
    out_letters = "abcdefgh"[: t.rank]
    in_letters = "nopqrstu"[: t.rank]
    parts = []
    mats = []
    for k, variance in enumerate(t.slots):
        if variance is UP:
            parts.append(out_letters[k] + in_letters[k])  # c^new_old
            mats.append(c)
        else:
            parts.append(in_letters[k] + out_letters[k])  # gamma^old_new
            mats.append(g)
    if t.rank == 0:
        arr = t.components.copy()
    else:
        spec = ",".join(parts) + "," + in_letters + "->" + out_letters
        arr = np.einsum(spec, *mats, t.components)
    scale = 1.0
    for _ in range(abs(weight)):
        scale = scale * f.det_gamma if weight > 0 else scale / f.det_gamma
    return arr * scale


def _quotient_gap(f: frames.Frame, a: TensorObject, relation: Callable) -> float:
    """Max deviation of ``transform(a, f)`` from the quotient rule: ``relation(x)``,
    linear in the vector x and holding in every frame, is probed on the new
    basis vectors (old components: the columns of gamma), each value carried
    to the new frame by the law; the stacked values are the new components."""
    probes = [new_object(a.dim, (UP,), 0, col) for col in f.gamma.components.T]
    new = [_law_oracle(v, f, v.weight) for v in map(relation, probes)]
    return _scale(frames.transform(a, f).components - np.stack(new, axis=-1))


# ------------------------------------------------------------- exercises

@_check("ex03", "contracting a mixed object with a vector is first order")
def _ex03(dim: int, rng: np.random.Generator) -> float:
    x = _rand(rng, dim, (UP, DOWN))
    y = _rand(rng, dim, (UP,))
    got = _eval("z^r = x^r_s y^s", {"x": x, "y": y})
    if got.slots != (UP,) or got.components.shape != (dim,):
        return INF
    return _scale(got.components - x.components @ y.components)


@_check("ex06", "antisymmetric forms vanish on repeated vectors, and conversely", limit=1e-12)
def _ex06(dim: int, rng: np.random.Generator) -> float:
    b = _rand(rng, dim, (DOWN, DOWN))
    x = rng.uniform(-1.0, 1.0, size=dim)
    sym = objects.symmetrize(b, 0, 1)
    anti = objects.add(b, objects.scale(sym, -1.0))

    def q(a: TensorObject, v: np.ndarray) -> float:
        return _eval("q = a_{rs} x^r x^s", {"a": a, "x": new_object(dim, (UP,), 0, v)}).as_scalar()

    # converse: polarizing the form of b gives its symmetric part
    units = np.eye(dim)
    polar = [[0.5 * (q(b, u + v) - q(b, u) - q(b, v)) for v in units] for u in units]
    return max(abs(q(anti, x)), _scale(np.array(polar) - sym.components))


@_check("ex07", "trace of the mixed Kronecker delta equals the dimension", limit=0.0)
def _ex07(dim: int, rng: np.random.Generator) -> float:
    delta = symbols.kronecker(dim, symbols.KroneckerKind.MIXED)
    return abs(objects.contract(delta, 0, 1).as_scalar() - dim)


@_check("ex10", "closed polynomial form of the rank-3 symbol", limit=0.0, fixed_dim=3)
def _ex10(dim: int, rng: np.random.Generator) -> float:
    e = symbols.levi_civita_symbol(3, DOWN)
    dev = 0.0
    for r, s, t in itertools.product(range(1, 4), repeat=3):
        expected = (s - r) * (t - r) * (t - s) / 2.0
        dev = max(dev, abs(e.component((r, s, t)) - expected))
    return dev


@_check("ex11", "the identity matrix has determinant one", limit=0.0)
def _ex11(dim: int, rng: np.random.Generator) -> float:
    delta = symbols.kronecker(dim, symbols.KroneckerKind.MIXED)
    return abs(determinants.determinant(delta) - 1.0)


@_check("ex12", "rotations have determinant +1, reflections and odd involutions -1", fixed_dim=3)
def _ex12(dim: int, rng: np.random.Generator) -> float:
    q = _rotation_matrix(rng, 3)
    # an involution V = P D P^-1, D = diag(1, -1, 1)
    p = determinants._invertible_rows(rng, 3)
    involution = p @ np.diag([1.0, -1.0, 1.0]) @ np.linalg.inv(p)
    cases = ((q, 1.0), (q @ np.diag([1.0, 1.0, -1.0]), -1.0), (involution, -1.0))
    return max(abs(determinants.determinant(m) - det) for m, det in cases)


@_check("ex13", "row expansion of the determinant and row-swap sign", limit=1e-12, fixed_dim=3)
def _ex13(dim: int, rng: np.random.Generator) -> float:
    e_up = symbols.levi_civita_symbol(3, UP)
    delta = symbols.kronecker(3, symbols.KroneckerKind.MIXED)
    bindings = {"e": e_up, "x": delta}
    row_form = _eval("t = e^{rst} x_r^1 x_s^2 x_t^3", bindings).as_scalar()
    dev = abs(row_form - 1.0)
    swapped = np.eye(3)[[1, 0, 2]]
    bindings["x"] = new_object(3, (UP, DOWN), 0, swapped)
    dev = max(dev, abs(_eval("t = e^{rst} x_r^1 x_s^2 x_t^3", bindings).as_scalar() + 1.0))
    x = _rand(rng, 3, (UP, DOWN))
    bindings["x"] = x
    row = _eval("t = e^{rst} x_r^1 x_s^2 x_t^3", bindings).as_scalar()
    dev = max(dev, _rel(row, determinants.determinant(x)))
    return dev


def _symbol_scaling_gap(rng: np.random.Generator, variance, text: str) -> float:
    """Max deviation of ``text``, three random mixed factors x contracted
    into the symbol e of ``variance``, from det(x) times that symbol."""
    x = _rand(rng, 3, (UP, DOWN))
    e = symbols.levi_civita_symbol(3, variance)
    got = _eval(text, {"e": e, "x": x})
    return _scale(got.components - determinants.determinant(x) * e.components)


@_check("ex14", "contracting three mixed factors with the symbol scales it by det", limit=1e-12, fixed_dim=3)
def _ex14(dim: int, rng: np.random.Generator) -> float:
    return _symbol_scaling_gap(rng, UP, "f^{mnp} = e^{rst} x^m_r x^n_s x^p_t")


@_check("ex15", "double-symbol product equals the delta determinant (729 cases)", limit=0.0, fixed_dim=3)
def _ex15(dim: int, rng: np.random.Generator) -> float:
    e = symbols.levi_civita_symbol(3, DOWN)
    dev = 0.0
    for m, n, p in itertools.product(range(1, 4), repeat=3):
        for r, s, t in itertools.product(range(1, 4), repeat=3):
            rows = []
            for up in (r, s, t):
                rows.append([1.0 if up == low else 0.0 for low in (m, n, p)])
            det = (
                rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
                - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
                + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
            )
            lhs = e.component((m, n, p)) * e.component((r, s, t))
            dev = max(dev, abs(lhs - det))
    return dev


@_check("ex19", "covariant components pull back through the mixing matrix")
def _ex19(dim: int, rng: np.random.Generator) -> float:
    f = frames.random_frame(rng, dim)
    a = _rand(rng, dim, (DOWN,))
    a_new = frames.transform(a, f)
    return _scale(a.components - f.c.components.T @ a_new.components)


@_check("ex20", "the mixing matrix and its inverse multiply to the identity")
def _ex20(dim: int, rng: np.random.Generator) -> float:
    f = frames.random_frame(rng, dim)
    if _scale(f.c.components - np.eye(dim)) <= 1e-3:  # a trivial draw proves nothing
        return INF
    return _inverse_gap(f.gamma.components, f.c.components)


@_check("ex21", "new basis vectors are gamma-combinations of the old ones")
def _ex21(dim: int, rng: np.random.Generator) -> float:
    f = frames.random_frame(rng, dim)
    rows = determinants._invertible_rows(rng, dim)
    basis = [new_object(dim, (UP,), 0, rows[r]) for r in range(dim)]
    new_basis = frames.transform_basis(f, basis)
    dev = 0.0
    for r in range(dim):
        expected = sum(
            f.gamma.components[s, r] * rows[s] for s in range(dim)
        )
        dev = max(dev, _scale(new_basis[r].components - expected))
    return dev


@_check("ex23", "an outer-product relation holds in every frame")
def _ex23(dim: int, rng: np.random.Generator) -> float:
    f = frames.random_frame(rng, dim)
    y = _rand(rng, dim, (UP, DOWN))
    z = _rand(rng, dim, (DOWN,))
    return _frame_gap(f, objects.outer_product, y, z)


@_check("ex24", "slot symmetry survives a change of frame")
def _ex24(dim: int, rng: np.random.Generator) -> float:
    f = frames.random_frame(rng, dim)
    a = _sym_rand(rng, dim)
    a_new = frames.transform(a, f)
    if objects.symmetry_check(a_new, 0, 1, tol=1e-9) is not objects.Symmetry.SYMMETRIC:
        return INF
    return _scale(a_new.components - a_new.components.T)


@_check("ex25", "the mixed delta is frame-invariant", limit=1e-12)
def _ex25(dim: int, rng: np.random.Generator) -> float:
    f = frames.random_frame(rng, dim)
    return _fixed_gap(f, symbols.kronecker(dim, symbols.KroneckerKind.MIXED))


def _stretch_gap(kind: symbols.KroneckerKind, diagonal: list[float]) -> float:
    """Max deviation of the dim-3 delta of ``kind``, moved by the stretch
    diag(2, 1, 1), from diag(``diagonal``)."""
    f = frames.frame_from_matrix(np.diag([2.0, 1.0, 1.0]))
    got = frames.transform(symbols.kronecker(3, kind), f)
    return _scale(got.components - np.diag(diagonal))


@_check("ex26", "the twice-lower delta moves under a stretch", limit=1e-12, fixed_dim=3)
def _ex26(dim: int, rng: np.random.Generator) -> float:
    return _stretch_gap(symbols.KroneckerKind.LOWER_LOWER, [0.25, 1.0, 1.0])


@_check("ex27", "the twice-upper delta moves under a stretch", limit=1e-12, fixed_dim=3)
def _ex27(dim: int, rng: np.random.Generator) -> float:
    return _stretch_gap(symbols.KroneckerKind.UPPER_UPPER, [4.0, 1.0, 1.0])


@_check("ex28", "products and contractions of tensors are tensors")
def _ex28(dim: int, rng: np.random.Generator) -> float:
    f = frames.random_frame(rng, dim)
    a = _rand(rng, dim, (UP,))
    b = _rand(rng, dim, (DOWN, DOWN))
    return max(
        _frame_gap(f, objects.outer_product, a, b),
        _frame_gap(f, lambda t: objects.contract(t, 0, 1), objects.outer_product(a, b)),
    )


@_check("ex29", "a product contracted over one pair transforms as rank (2,1)")
def _ex29(dim: int, rng: np.random.Generator) -> float:
    f = frames.random_frame(rng, dim)
    x = _rand(rng, dim, (UP, DOWN, DOWN))
    y = _rand(rng, dim, (UP, DOWN))
    text = "w^p_{st} = x^r_{st} y^p_r"
    return _frame_gap(f, lambda x, y: _eval(text, {"x": x, "y": y}), x, y)


@_check("ex30", "a summed index equation holds in every frame")
def _ex30(dim: int, rng: np.random.Generator) -> float:
    f = frames.random_frame(rng, dim)
    a = _rand(rng, dim, (UP, DOWN, DOWN))
    b = _rand(rng, dim, (UP, DOWN, DOWN))
    x = _rand(rng, dim, (UP,))
    text = "d^r_s = a^r_{st} x^t + b^r_{st} x^t"
    return _frame_gap(f, lambda a, b, x: _eval(text, {"a": a, "b": b, "x": x}), a, b, x)


@_check("ex32", "quotient rule for a matrix-vector relation")
def _ex32(dim: int, rng: np.random.Generator) -> float:
    f = frames.random_frame(rng, dim)
    a = _rand(rng, dim, (UP, DOWN))
    return _quotient_gap(f, a, lambda x: _eval("y^r = a^r_s x^s", {"a": a, "x": x}))


@_check("ex34", "Gram matrices: the identity for orthonormal rows, row products for skew ones")
def _ex34(dim: int, rng: np.random.Generator) -> float:
    def gram(rows: np.ndarray) -> np.ndarray:
        basis = [new_object(dim, (UP,), 0, row) for row in rows]
        return metric.metric_from_basis(basis).g.components

    q = _rotation_matrix(rng, dim)
    rows = determinants._invertible_rows(rng, dim)
    return max(_scale(gram(q) - np.eye(dim)), _scale(gram(rows) - rows @ rows.T))


@_check("ex35", "the metric and its inverse contract to the delta")
def _ex35(dim: int, rng: np.random.Generator) -> float:
    m = metric.random_metric(rng, dim)
    if _scale(m.g.components - np.eye(dim)) <= 1e-3:  # a trivial draw proves nothing
        return INF
    return _inverse_gap(m.g.components, m.g_inv.components)


@_check("ex36", "the squared length agrees in raised and lowered form")
def _ex36(dim: int, rng: np.random.Generator) -> float:
    m = metric.random_metric(rng, dim)
    x = _rand(rng, dim, (UP,))
    lowered = metric.lower_index(x, 0, m)
    direct = float(x.components @ m.g.components @ x.components)
    via_inverse = float(
        lowered.components @ m.g_inv.components @ lowered.components
    )
    return _rel(direct, via_inverse)


@_check("ex37", "scalar products of lowered vectors use the inverse metric")
def _ex37(dim: int, rng: np.random.Generator) -> float:
    m = metric.random_metric(rng, dim)
    x = _rand(rng, dim, (UP,))
    y = _rand(rng, dim, (UP,))
    xl = metric.lower_index(x, 0, m)
    yl = metric.lower_index(y, 0, m)
    direct = metric.inner(x, y, m)
    dev = _rel(direct, float(xl.components @ y.components))
    dev = max(dev, _rel(direct, float(xl.components @ m.g_inv.components @ yl.components)))
    return dev


@_check("ex39", "with the identity metric, raising and lowering change nothing")
def _ex39(dim: int, rng: np.random.Generator) -> float:
    m = metric.orthonormal_metric(dim)
    x = _rand(rng, dim, (UP,))
    t = _rand(rng, dim, (DOWN, DOWN))
    return max(
        _scale(metric.lower_index(x, 0, m).components - x.components),
        _scale(metric.raise_index(t, 1, m).components - t.components),
    )


@_check("ex40", "dividing by a power of a reference density yields a tensor")
def _ex40(dim: int, rng: np.random.Generator) -> float:
    f = frames.random_frame(rng, dim)
    value = float(rng.uniform(0.5, 2.0))
    density = new_object(dim, (), 1, [value])
    y = _rand(rng, dim, (UP, DOWN, DOWN), weight=2)
    normalized = objects.outer_product(
        new_object(dim, (), -2, [value ** -2]), y
    )
    if normalized.weight != 0:
        return INF
    lhs = frames.transform(normalized, f)
    density_new = frames.transform(density, f).as_scalar()
    y_new = frames.transform(y, f)
    rhs = y_new.components * density_new ** -2
    return _scale(lhs.components - rhs)


@_check("ex41", "equal-weight sums add componentwise and transform term by term")
def _ex41(dim: int, rng: np.random.Generator) -> float:
    f = frames.random_frame(rng, dim)
    a = _rand(rng, dim, (UP, DOWN), weight=2)
    b = _rand(rng, dim, (UP, DOWN), weight=2)
    total = objects.add(a, b)
    exact = np.array_equal(total.components, a.components + b.components)
    if not exact or frames.transform(total, f).weight != 2:
        return INF
    return _frame_gap(f, objects.add, a, b)


@_check("ex42", "weights add under outer products")
def _ex42(dim: int, rng: np.random.Generator) -> float:
    f = frames.random_frame(rng, dim)
    a = _rand(rng, dim, (UP,), weight=1)
    b = _rand(rng, dim, (DOWN,), weight=-2)
    if objects.outer_product(a, b).weight != -1:
        return INF
    return _frame_gap(f, objects.outer_product, a, b)


@_check("ex43", "contraction preserves the weight")
def _ex43(dim: int, rng: np.random.Generator) -> float:
    f = frames.random_frame(rng, dim)
    t = _rand(rng, dim, (UP, DOWN, DOWN), weight=3)
    if objects.contract(t, 0, 1).weight != 3:
        return INF
    return _frame_gap(f, lambda t: objects.contract(t, 0, 1), t)


@_check("ex44", "quotient rule at nonzero weight")
def _ex44(dim: int, rng: np.random.Generator) -> float:
    f = frames.random_frame(rng, dim)
    a = _rand(rng, dim, (UP, DOWN, DOWN), weight=2)
    return _quotient_gap(f, a, lambda x: _eval("y^r_s = a^r_{st} x^t", {"a": a, "x": x}))


@_check("ex45", "both permutation symbols are invariant at their declared weights")
def _ex45(dim: int, rng: np.random.Generator) -> float:
    d = min(dim, 4)
    c = determinants._invertible_rows(rng, d)
    mirrored = c.copy()
    mirrored[0] = -mirrored[0]  # one of the two frames reverses orientation
    symbol_pair = (symbols.levi_civita_symbol(d, DOWN), symbols.levi_civita_symbol(d, UP))
    return max(_fixed_gap(frames.frame_from_matrix(m), *symbol_pair) for m in (c, mirrored))


@_check("ex48", "the law inverts with the opposite matrices and weight power")
def _ex48(dim: int, rng: np.random.Generator) -> float:
    f = frames.random_frame(rng, dim)
    t = _rand(rng, dim, (UP, DOWN), weight=-2)
    t_new = frames.transform(t, f)
    if not frames.verify_transform_law(t, t_new, f, weight=-2):
        return INF
    det_c = determinants.determinant(f.c)
    back = np.einsum(
        "rm,ns,mn->rs", f.gamma.components, f.c.components, t_new.components
    ) * det_c ** -2
    return _scale(back - t.components)


@_check("ex49", "the determinant of a mixed tensor is frame-invariant")
def _ex49(dim: int, rng: np.random.Generator) -> float:
    f = frames.random_frame(rng, dim)
    a = _rand(rng, dim, (UP, DOWN))
    return _rel(determinants.determinant(frames.transform(a, f)), determinants.determinant(a))


def _det_power_gap(dim: int, rng: np.random.Generator, slots, power: int) -> float:
    """Relative deviation of det of a random tensor of ``slots`` in a random
    frame from det(gamma) ** ``power`` times its old det."""
    f = frames.random_frame(rng, dim)
    a = _rand(rng, dim, slots)
    new_det = float(np.linalg.det(frames.transform(a, f).components))
    return _rel(new_det, f.det_gamma ** power * float(np.linalg.det(a.components)))


@_check("ex50", "the determinant of a twice-lower tensor scales as weight two")
def _ex50(dim: int, rng: np.random.Generator) -> float:
    return _det_power_gap(dim, rng, (DOWN, DOWN), 2)


@_check("ex51", "the determinant of a twice-upper tensor scales as weight minus two")
def _ex51(dim: int, rng: np.random.Generator) -> float:
    return _det_power_gap(dim, rng, (UP, UP), -2)


@_check("ex52", "the scaled symbols are weight-0 tensors (orientation preserved)", fixed_dim=3)
def _ex52(dim: int, rng: np.random.Generator) -> float:
    f = frames.frame_from_matrix(_oriented_rows(rng))
    m = metric.random_metric(rng, 3)
    g_new = metric.metric_from_tensor(frames.transform(m.g, f))
    dev = 0.0
    for variance in (DOWN, UP):
        eps_old = metric.levi_civita_tensor(m, variance)
        eps_new = metric.levi_civita_tensor(g_new, variance)
        dev = max(dev, _scale(frames.transform(eps_old, f).components - eps_new.components))
    return dev


@_check("ex54", "the upper symbol tensor is the thrice-raised lower one", fixed_dim=3)
def _ex54(dim: int, rng: np.random.Generator) -> float:
    m = metric.random_metric(rng, 3)
    eps_low = metric.levi_civita_tensor(m, DOWN)
    eps_up = metric.levi_civita_tensor(m, UP)
    raised = metric.raise_index(
        metric.raise_index(metric.raise_index(eps_low, 0, m), 1, m), 2, m
    )
    return _scale(raised.components - eps_up.components)


@_check("ex55", "triple products of the basis vectors reproduce the epsilon tensor", fixed_dim=3)
def _ex55(dim: int, rng: np.random.Generator) -> float:
    rows = _oriented_rows(rng)
    basis = [new_object(3, (UP,), 0, rows[r]) for r in range(3)]
    m = metric.metric_from_basis(basis)
    eps_low = metric.levi_civita_tensor(m, DOWN)
    # in their own frame the basis vectors are the coordinate unit vectors
    units = [new_object(3, (UP,), 0, np.eye(3)[r]) for r in range(3)]
    dev = 0.0
    for r, s, t in itertools.product(range(3), repeat=3):
        got = metric.triple(units[r], units[s], units[t], m)
        dev = max(dev, abs(got - eps_low.components[r, s, t]))
        ambient = float(np.linalg.det(np.stack([rows[r], rows[s], rows[t]])))
        dev = max(dev, abs(ambient - eps_low.components[r, s, t]))
    return dev


@_check("ex56", "the double cross product expands into scalar products", fixed_dim=3)
def _ex56(dim: int, rng: np.random.Generator) -> float:
    m = metric.random_metric(rng, 3)
    x, y, z = (_rand(rng, 3, (UP,)) for _ in range(3))
    lhs = metric.cross(x, metric.cross(y, z, m), m)
    rhs = metric.inner(x, z, m) * y.components - metric.inner(x, y, m) * z.components
    return _scale(lhs.components - rhs)


@_check("ex57", "velocity boosts satisfy the interval-preservation condition", fixed_dim=4)
def _ex57(dim: int, rng: np.random.Generator) -> float:
    boosts = [minkowski.boost(float(beta)) for beta in rng.uniform(-0.95, 0.95, size=8)]
    return max(minkowski.eta_residual(m) if minkowski.is_lorentz(m) else INF for m in boosts)


@_check("ex58", "the componentwise condition is exactly interval preservation", fixed_dim=4)
def _ex58(dim: int, rng: np.random.Generator) -> float:
    candidates = [
        np.eye(4),
        minkowski.boost(0.5),
        _spatial_rotation4(rng),
        minkowski.boost(-0.8) @ _spatial_rotation4(rng) @ minkowski.boost(0.3),
        np.eye(4) + 1e-3,
        rng.uniform(-1.0, 1.0, size=(4, 4)),
        # unit columns, the first two not orthogonal: only an off-diagonal pair refuses it
        np.column_stack([minkowski.boost(0.5)[:, 0], np.eye(4)[:, 1:]]),
    ]
    dev = 0.0
    for c in candidates:
        componentwise = minkowski.is_lorentz(c)
        conjugation = minkowski.eta_residual(c) <= 1e-9
        if componentwise != conjugation:
            return INF
        if componentwise:
            for _ in range(4):
                x = rng.uniform(-1.0, 1.0, size=4)
                y = rng.uniform(-1.0, 1.0, size=4)
                dev = max(
                    dev,
                    abs(
                        minkowski.mink_product(c @ x, c @ y)
                        - minkowski.mink_product(x, y)
                    ),
                )
    return dev


@_check("ex59", "the 0.6c boost has entries 1.25 and -0.75", limit=1e-12, fixed_dim=4)
def _ex59(dim: int, rng: np.random.Generator) -> float:
    expected = np.eye(4)
    expected[0, 0] = expected[1, 1] = 1.25
    expected[0, 1] = expected[1, 0] = -0.75
    return _scale(minkowski.boost(0.6) - expected)


@_check("ex60", "rapidity form of the boost and additive composition", fixed_dim=4)
def _ex60(dim: int, rng: np.random.Generator) -> float:
    dev = abs(minkowski.rapidity(0.6) - math.log(2.0))
    for beta in rng.uniform(-0.9, 0.9, size=6):
        beta = float(beta)
        psi = minkowski.rapidity(beta)
        root = math.sqrt(1.0 - beta * beta)
        dev = max(dev, abs(math.sinh(psi) - beta / root))
        dev = max(dev, abs(math.cosh(psi) - 1.0 / root))
        dev = max(
            dev,
            _scale(minkowski.boost(beta) - minkowski.boost_from_rapidity(-psi)),
        )
    a, b = 0.4, -0.7
    lhs = minkowski.boost_from_rapidity(a) @ minkowski.boost_from_rapidity(b)
    dev = max(dev, _scale(lhs - minkowski.boost_from_rapidity(a + b)))
    return dev


# ------------------------------------------------------- equation checks

@_check("eq01", "the determinant is the signed symbol contraction", limit=1e-12, fixed_dim=3)
def _eq01(dim: int, rng: np.random.Generator) -> float:
    x = _rand(rng, 3, (UP, DOWN))
    e_low = symbols.levi_civita_symbol(3, DOWN)
    got = _eval("t = e_{rst} x_1^r x_2^s x_3^t", {"e": e_low, "x": x}).as_scalar()
    return _rel(got, determinants.determinant(x))


@_check("eq02", "contracting three factors into the lower symbol scales it by det", limit=1e-12, fixed_dim=3)
def _eq02(dim: int, rng: np.random.Generator) -> float:
    return _symbol_scaling_gap(rng, DOWN, "f_{mnp} = e_{rst} x^r_m x^s_n x^t_p")


def _vector_law_gap(dim: int, rng: np.random.Generator, variance, mixing: Callable) -> float:
    """Max deviation of a random vector of ``variance`` in a random frame from
    ``mixing(frame)`` times its old components."""
    f = frames.random_frame(rng, dim)
    v = _rand(rng, dim, (variance,))
    return _scale(frames.transform(v, f).components - mixing(f) @ v.components)


@_check("eq04", "contravariant components mix through the matrix")
def _eq04(dim: int, rng: np.random.Generator) -> float:
    return _vector_law_gap(dim, rng, UP, lambda f: f.c.components)


@_check("eq07", "covariant components mix through the inverse transpose")
def _eq07(dim: int, rng: np.random.Generator) -> float:
    return _vector_law_gap(dim, rng, DOWN, lambda f: f.gamma.components.T)


@_check("eq10", "quadratic form coefficients transform contragrediently")
def _eq10(dim: int, rng: np.random.Generator) -> float:
    f = frames.random_frame(rng, dim)
    a = _sym_rand(rng, dim)
    x = _rand(rng, dim, (UP,))
    a_new = frames.transform(a, f)
    x_new = frames.transform(x, f)
    expected = np.einsum("rm,sn,rs->mn", f.gamma.components, f.gamma.components, a.components)
    dev = _scale(a_new.components - expected)
    form_old = float(x.components @ a.components @ x.components)
    form_new = float(x_new.components @ a_new.components @ x_new.components)
    return max(dev, _rel(form_old, form_new))


@_check("eq13", "old basis vectors are mixing-matrix combinations of the new")
def _eq13(dim: int, rng: np.random.Generator) -> float:
    f = frames.random_frame(rng, dim)
    rows = determinants._invertible_rows(rng, dim)
    basis = [new_object(dim, (UP,), 0, rows[r]) for r in range(dim)]
    new_rows = np.stack([e.components for e in frames.transform_basis(f, basis)])
    return _scale(f.c.components.T @ new_rows - rows)


@_check("eq14", "linear operators conjugate under a change of frame")
def _eq14(dim: int, rng: np.random.Generator) -> float:
    f = frames.random_frame(rng, dim)
    a = _rand(rng, dim, (UP, DOWN))
    expected = np.einsum(
        "ts,rm,mt->rs", f.gamma.components, f.c.components, a.components
    )
    return _scale(frames.transform(a, f).components - expected)


@_check("eq15", "the general weighted law matches direct summation")
def _eq15(dim: int, rng: np.random.Generator) -> float:
    dev = 0.0
    shapes = [(), (UP,), (DOWN,), (UP, DOWN), (DOWN, DOWN), (UP, UP, DOWN)]
    for k, slots in enumerate(shapes):
        f = frames.random_frame(rng, dim)
        weight = int(rng.integers(-2, 3))
        t = _rand(rng, dim, slots, weight=weight)
        got = frames.transform(t, f)
        if got.weight != weight or got.slots != t.slots:
            return INF
        dev = max(dev, _scale(got.components - _law_oracle(t, f, weight)))
    return dev


@_check("eq18", "the scalar product is frame-invariant")
def _eq18(dim: int, rng: np.random.Generator) -> float:
    f = frames.random_frame(rng, dim)
    m = metric.random_metric(rng, dim)
    x = _rand(rng, dim, (UP,))
    y = _rand(rng, dim, (UP,))
    m_new = metric.metric_from_tensor(frames.transform(m.g, f))
    return _rel(
        metric.inner(x, y, m),
        metric.inner(frames.transform(x, f), frames.transform(y, f), m_new),
    )


@_check("eq19", "lowering contracts with the metric")
def _eq19(dim: int, rng: np.random.Generator) -> float:
    m = metric.random_metric(rng, dim)
    x = _rand(rng, dim, (UP,))
    lowered = metric.lower_index(x, 0, m)
    if lowered.slots != (DOWN,):
        return INF
    return _scale(lowered.components - m.g.components @ x.components)


@_check("eq21", "raising undoes lowering")
def _eq21(dim: int, rng: np.random.Generator) -> float:
    m = metric.random_metric(rng, dim)
    x = _rand(rng, dim, (UP,))
    back = metric.raise_index(metric.lower_index(x, 0, m), 0, m)
    t = _rand(rng, dim, (DOWN, DOWN))
    back2 = metric.lower_index(metric.raise_index(t, 0, m), 0, m)
    return max(
        _scale(back.components - x.components),
        _scale(back2.components - t.components),
    )


@_check("eq22", "the skew-frame cross product is the conjugated orthonormal one", fixed_dim=3)
def _eq22(dim: int, rng: np.random.Generator) -> float:
    f = frames.frame_from_matrix(_oriented_rows(rng))
    delta_lower = symbols.kronecker(3, symbols.KroneckerKind.LOWER_LOWER)
    g_new = metric.metric_from_tensor(frames.transform(delta_lower, f))
    x_new = _rand(rng, 3, (UP,))
    y_new = _rand(rng, 3, (UP,))
    got = metric.cross(x_new, y_new, g_new)
    x_old = f.gamma.components @ x_new.components
    y_old = f.gamma.components @ y_new.components
    expected = f.c.components @ np.cross(x_old, y_old)
    return _scale(got.components - expected)


@_check("eq25", "the Minkowski product is bilinear, symmetric, and nondegenerate", fixed_dim=4)
def _eq25(dim: int, rng: np.random.Generator) -> float:
    x = rng.uniform(-1.0, 1.0, size=4)
    y = rng.uniform(-1.0, 1.0, size=4)
    z = rng.uniform(-1.0, 1.0, size=4)
    a, b = rng.uniform(-2.0, 2.0, size=2)
    dev = abs(
        minkowski.mink_product(a * x + b * y, z)
        - a * minkowski.mink_product(x, z)
        - b * minkowski.mink_product(y, z)
    )
    dev = max(dev, abs(minkowski.mink_product(x, y) - minkowski.mink_product(y, x)))
    eye = np.eye(4)
    signs = [1.0, -1.0, -1.0, -1.0]
    recovered = np.array(
        [signs[k] * minkowski.mink_product(x, eye[k]) for k in range(4)]
    )
    return max(dev, _scale(recovered - x))


# ------------------------------------------------------------ tag checks

@_check("det-product", "determinants multiply under matrix products")
def _det_product(dim: int, rng: np.random.Generator) -> float:
    x = _rand(rng, dim, (UP, DOWN))
    y = _rand(rng, dim, (UP, DOWN))
    z = _eval("z^r_s = x^r_m y^m_s", {"x": x, "y": y})
    return _rel(
        determinants.determinant(z),
        determinants.determinant(x) * determinants.determinant(y),
    )


@_check("det-paths", "the elimination path matches the signed-sum path", limit=1e-12, fixed_dim=4)
def _det_paths(dim: int, rng: np.random.Generator) -> float:
    dev = 0.0
    for _ in range(5):
        x = _rand(rng, 4, (UP, DOWN))
        dev = max(
            dev,
            _rel(determinants.determinant(x), float(np.linalg.det(x.components))),
        )
    return dev


@_check("det-singular", "singular matrices are rejected with the determinant value", limit=0.0)
def _det_singular(dim: int, rng: np.random.Generator) -> float:
    arr = rng.uniform(-1.0, 1.0, size=(dim, dim))
    arr[-1] = arr[0]  # dependent rows
    rejected = _raises(SingularityError, determinants.inverse, arr) and _raises(
        SingularityError, frames.frame_from_matrix, arr
    )
    return 0.0 if rejected else INF


@_check("conv-violations", "convention violations raise the documented errors", limit=0.0)
def _conv_violations(dim: int, rng: np.random.Generator) -> float:
    v = _rand(rng, dim, (UP,))
    w = _rand(rng, dim, (DOWN,))
    a2 = _rand(rng, dim, (DOWN, DOWN))
    m2 = _rand(rng, dim, (UP, DOWN))
    w1 = _rand(rng, dim, (DOWN,), weight=1)
    other = _rand(rng, dim + 1, (DOWN,))
    cases = [  # validated in strict mode
        ("x_{rrr}", {"x": _rand(rng, dim, (DOWN, DOWN, DOWN))}, ConventionError),
        ("a_{rs} x_r", {"a": a2, "x": w}, ConventionError),
        ("y_{st} = x^t_s", {"x": m2}, ConventionError),
        ("z_r = a_r + b_s", {"a": w, "b": w}, ConventionError),
        ("a_r x^r q^m", {"a": w, "x": v, "q": v}, ConventionError),
        ("t = a_r + b_r", {"a": w, "b": w1}, ConventionError),
        ("a_r", {"a": a2}, ShapeError),
        ("a^r x_r", {"a": a2, "x": w}, ShapeError),
        ("t = x^r y_r", {"x": v, "y": other}, ShapeError),
        ("t = q_r x^r", {"x": v}, ShapeError),
        ("t = x_9^r", {"x": m2}, AddressingError),
    ]
    if not all(_raises(cls, validate, parse(text), bindings) for text, bindings, cls in cases):
        return INF
    bad_texts = ("x_", "x^{rs", "a_R", "2 a_r", "", "a_r +", "x_{}")
    if not all(_raises(ExpressionSyntaxError, parse, text) for text in bad_texts):
        return INF
    # positive twin: orthogonal mode accepts the coerced pairing
    got = _eval("y_s = a_{rs} x_r", {"a": a2, "x": v}, Mode.ORTHOGONAL)
    expected_arr = a2.components.T @ v.components
    return _scale(got.components - expected_arr)


@_check("einsum-weights", "result weights add per term and must agree across terms", limit=0.0)
def _einsum_weights(dim: int, rng: np.random.Generator) -> float:
    a = _rand(rng, dim, (DOWN,), weight=1)
    b = _rand(rng, dim, (DOWN,), weight=1)
    x = _rand(rng, dim, (UP,), weight=-1)
    plan = validate(parse("t = a_r x^r"), {"a": a, "x": x})
    if plan.weight != 0:
        return INF
    plan2 = validate(parse("s_r = a_r + b_r"), {"a": a, "b": b})
    if plan2.weight != 1:
        return INF
    mismatched = {"a": a, "b": _rand(rng, dim, (DOWN,))}
    return 0.0 if _raises(ConventionError, validate, parse("s_r = a_r + b_r"), mismatched) else INF


def _naive_eval(statement, bindings: dict[str, TensorObject], dim: int) -> np.ndarray:
    """Single-loop oracle: iterate every letter assignment per term.

    Factors in the corpus are written with indices in slot order, so the
    component lookup is direct.
    """
    target = statement.target
    free = [spec.letter for spec in target.indices] if target else []
    out = np.zeros((dim,) * len(free))
    for term in statement.terms:
        letters: list[str] = []
        for f in term.factors:
            for spec in f.indices:
                if not spec.is_fixed and spec.letter not in letters:
                    letters.append(spec.letter)
        for assign in itertools.product(range(1, dim + 1), repeat=len(letters)):
            env = dict(zip(letters, assign))
            prod = term.coefficient
            for f in term.factors:
                idx = tuple(
                    int(s.letter) if s.is_fixed else env[s.letter] for s in f.indices
                )
                prod *= bindings[f.name].component(idx)
            out[tuple(env[l] - 1 for l in free)] += prod
    return out


@_check("einsum-oracle", "the evaluator matches naive summation", limit=1e-12)
def _einsum_oracle(dim: int, rng: np.random.Generator) -> float:
    bindings = {
        "a": _rand(rng, dim, (DOWN,)),
        "x": _rand(rng, dim, (UP,)),
        "m": _rand(rng, dim, (UP, DOWN)),
        "n": _rand(rng, dim, (UP, DOWN)),
        "g": _rand(rng, dim, (DOWN, DOWN)),
        "c": _rand(rng, dim, (UP, UP)),
        "u": _rand(rng, dim, (UP,)),
        "p": _rand(rng, dim, (UP, DOWN, DOWN)),
        "q": _rand(rng, dim, (UP, DOWN)),
    }
    texts = [
        "s = a_r x^r",
        "y^r = m^r_s x^s",
        "t = g_{rs} x^r u^s",
        "z^r_{st} = p^r_{sm} q^m_t",
        "h^r = 2 * m^r_s x^s - n^r_s x^s",
        "k = m^r_r",
        "f^{rs} = x^r u^s + 0.5 * c^{rs}",
        "w = g_{rs} x^r x^s",
    ]
    if dim == 3:
        bindings["e"] = symbols.levi_civita_symbol(3, DOWN)
        texts.append("v = e_{rst} x^r u^s x^t")
    dev = 0.0
    for text in texts:
        stmt = parse(text)
        got = execute(validate(stmt, bindings), bindings)
        expected = _naive_eval(stmt, bindings, dim)
        scale = max(1.0, _scale(expected))
        dev = max(dev, _scale(got.components - expected) / scale)
    return dev


def _cost_gap(text: str, bindings: dict[str, TensorObject], costs: tuple[int, int, int]) -> float:
    """0.0 when ``text``'s written schedule, its ordered schedule and its
    single-loop evaluation cost ``costs``; else INF."""
    plan = validate(parse(text), bindings)
    got = (plan.total_cost, order_contractions(plan).total_cost, plan.naive_cost)
    return 0.0 if got == costs else INF


@_check("plan-cost", "the greedy schedule beats the written one and single loops", limit=0.0)
def _plan_cost(dim: int, rng: np.random.Generator) -> float:
    chain = {name: _rand(rng, 8, (UP, DOWN)) for name in "abc"}
    chain["x"] = _rand(rng, 8, (UP,))
    rot = {name: _rand(rng, 3, (UP, DOWN)) for name in "xyz"}
    rot["e"] = symbols.levi_civita_symbol(3, DOWN)
    return max(
        _cost_gap("w^r_s = a^r_m b^m_n c^n_s", chain, (2 * 8 ** 3, 2 * 8 ** 3, 8 ** 4)),
        _cost_gap("f_{mnp} = e_{rst} x^r_m y^s_n z^t_p", rot, (243, 243, 729)),
        # written (a b) x: 8**3 + 8**2; greedy a (b x): 2 * 8**2
        _cost_gap("y^r = a^r_m b^m_n x^n", chain, (8 ** 3 + 8 ** 2, 2 * 8 ** 2, 8 ** 3)),
    )


@_check("plan-order-invariance", "reordering the schedule never changes values", limit=1e-12)
def _plan_order_invariance(dim: int, rng: np.random.Generator) -> float:
    bindings = {
        "u": _rand(rng, dim, (UP,)),
        "x": _rand(rng, dim, (UP,)),
        "a": _rand(rng, dim, (UP, DOWN)),
    }
    # the written (u x) a ends in the letters (s, r), the greedy (u a) x in (r, s)
    plan = validate(parse("z^{rs} = u^m x^s a^r_m"), bindings)
    ordered = order_contractions(plan)
    return _scale(execute(plan, bindings).components - execute(ordered, bindings).components)


@_check("frame-singular", "degenerate mixing matrices are rejected", limit=0.0)
def _frame_singular(dim: int, rng: np.random.Generator) -> float:
    arr = rng.uniform(-1.0, 1.0, size=(dim, dim))
    arr[:, -1] = 0.0
    return 0.0 if _raises(SingularityError, frames.frame_from_matrix, arr) else INF


@_check("metric-definite", "non-metrics are rejected", limit=0.0)
def _metric_definite(dim: int, rng: np.random.Generator) -> float:
    asym = np.eye(dim)
    asym[0, -1] = 0.5  # positive leading minors: only the symmetry test refuses it
    rows = rng.uniform(-1.0, 1.0, size=(dim, dim))
    rows[-1] = rows[0]  # dependent basis
    basis = [new_object(dim, (UP,), 0, row) for row in rows]
    rejected = (
        _raises(DefinitenessError, metric.metric_from_tensor, asym)
        and _raises(DefinitenessError, metric.metric_from_tensor, -np.eye(dim))
        and _raises(DefinitenessError, metric.metric_from_basis, basis)
    )
    return 0.0 if rejected else INF


@_check("superluminal", "boosts at or beyond the speed of light are rejected", limit=0.0, fixed_dim=4)
def _superluminal(dim: int, rng: np.random.Generator) -> float:
    rejected = all(
        _raises(SuperluminalError, fn, beta)
        for beta in (1.0, -1.0, 1.5)
        for fn in (minkowski.boost, minkowski.rapidity)
    )
    return 0.0 if rejected else INF


@_check("core-dot", "outer product plus contraction is the matrix-vector product")
def _core_dot(dim: int, rng: np.random.Generator) -> float:
    m = _rand(rng, dim, (UP, DOWN))
    x = _rand(rng, dim, (UP,))
    got = objects.contract(objects.outer_product(m, x), 2, 1)
    return _scale(got.components - m.components @ x.components)


# ---------------------------------------------------------------- runner

def run_checks(
    dim: int = 3,
    seed: int = 0,
    tol: float = 1e-9,
    pattern: str | None = None,
) -> list[CheckResult]:
    results: list[CheckResult] = []
    for check in _REGISTRY:
        if pattern and not fnmatch.fnmatch(check.check_id, pattern):
            continue
        use_dim = check.fixed_dim if check.fixed_dim is not None else dim
        rng = np.random.default_rng([seed, zlib.crc32(check.check_id.encode())])
        limit = tol if check.limit is None else check.limit
        error = None
        start = time.perf_counter()
        try:
            deviation = float(check.fn(use_dim, rng))
        except Exception as exc:  # a crash fails the check and is named
            deviation = INF
            error = type(exc).__name__
        elapsed = (time.perf_counter() - start) * 1000.0
        status = "pass" if deviation <= limit else "fail"
        results.append(
            CheckResult(check.check_id, check.title, status, deviation, limit,
                        elapsed, error)
        )
    return results


def all_passed(results: Sequence[CheckResult]) -> bool:
    return all(r.status != "fail" for r in results)


def format_report(
    results: Sequence[CheckResult],
    dim: int,
    seed: int,
    tol: float,
    as_json: bool = False,
    timings: bool = False,
) -> str:
    if as_json:
        payload = {
            "dim": dim,
            "seed": seed,
            "tol": tol,
            "checks": [
                {
                    "id": r.check_id,
                    "title": r.title,
                    "status": r.status,
                    "max_deviation": r.deviation,
                    "limit": r.limit,
                    **({"elapsed_ms": round(r.elapsed_ms, 3)} if timings else {}),
                    **({"error": r.error} if r.error else {}),
                }
                for r in results
            ],
            "all_passed": all_passed(results),
        }
        return json.dumps(payload, indent=2, allow_nan=True)

    lines = [f"builtin checks: dim={dim} seed={seed} tol={format(tol, 'g')}"]
    header = f"{'id':<22} {'status':<8} {'max-dev':<12} title"
    if timings:
        header += "  [ms]"
    lines.append(header)
    for r in results:
        dev = format(r.deviation, ".3e")
        title = r.title
        if r.error:
            title += f" [error: {r.error}]"
        line = f"{r.check_id:<22} {r.status:<8} {dev:<12} {title}"
        if timings:
            line += f"  [{r.elapsed_ms:.1f}]"
        lines.append(line)
    n_pass = sum(1 for r in results if r.status == "pass")
    lines.append(f"total {len(results)}  pass {n_pass}  fail {len(results) - n_pass}")
    return "\n".join(lines)
