"""The frame, metric and Lorentz kernels against loop references, bit for bit.

Each reference below is written from the documented rule with its plain
loop or per-call numpy form and calls nothing in ``indicial``: the
per-permutation determinant loop, the max-entry singularity rule, the
``np.max(np.abs(...))`` frame residual, one ``np.linalg.det`` per leading
minor, and the 16-case Lorentz loop.  Results must agree in every bit
(``tobytes`` for arrays, ``repr`` for floats) and failures must raise the
same exception class, over seeded corpora at dims 1-6 (and 8 for the
determinant, inverse and frame kernels, past the check catalogue's dims)
that include +-inf, NaN, +-0.0, 1e300, subnormal and rank-deficient inputs.
RuntimeWarnings are errors here (pyproject), so a warning one side raises
the other must raise too.  The LAPACK gufuncs that the kernels call without
the ``np.linalg`` wrapper are pinned to ``np.linalg.inv`` and
``np.linalg.det`` directly, so a numpy whose wrapper starts to do more
fails here.  The products of the transformation law, raising and lowering,
``inner``, ``cross``, ``triple`` and ``transform_basis`` are pinned to
references that multiply with ``@`` per slot, so the ``ndarray.dot`` the
kernels call on operands of at most two axes must give ``@``'s bits, and
warn where it warns.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from indicial.determinants import (
    _det,
    _inv,
    _lu_det,
    determinant,
    inverse,
    singularity_threshold,
)
from indicial.errors import ConventionError, DefinitenessError, SingularityError
from indicial.frames import Frame, compose, frame_from_matrix, transform, transform_basis
from indicial.metric import (
    cross,
    inner,
    lower_index,
    metric_from_tensor,
    raise_index,
    triple,
)
from indicial.minkowski import is_lorentz
from indicial.objects import DOWN, UP, new_object

DIMS = (1, 2, 3, 4, 5, 6)
# past the catalogue's dims 2-6, where only the LAPACK path runs
LARGE_DIMS = DIMS + (8,)
SPECIALS = (math.inf, -math.inf, math.nan, 0.0, -0.0, 1e300, -1e300, 5e-324, 1e-310)


def _sign(perm) -> int:
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return -1 if inversions % 2 else 1


def ref_det(m: np.ndarray) -> float:
    d = len(m)
    if d <= 4:
        rows = m.tolist()
        total = 0.0
        for perm in itertools.permutations(range(d)):
            prod = 1.0
            for col, row in enumerate(perm):
                prod *= rows[row][col]
            total += _sign(perm) * prod
        return total
    # a non-finite entry gives a NaN or infinite det, which counts as singular;
    # subnormal entries can set "divide" on the way to a det of 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return float(np.linalg.det(m))


def ref_threshold(m: np.ndarray) -> float:
    scale = float(np.max(np.abs(m), initial=0.0))
    try:
        return 1e-12 * scale ** len(m)
    except OverflowError:
        return math.inf


def ref_singular(m: np.ndarray) -> bool:
    return not ref_threshold(m) < abs(ref_det(m)) < math.inf


def ref_inverse(m: np.ndarray) -> np.ndarray:
    if ref_singular(m):
        raise SingularityError
    return np.linalg.inv(m)


def ref_frame(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    gamma = ref_inverse(c)
    residual = float(np.max(np.abs(gamma @ c - np.eye(len(c)))))
    if not residual <= 1e-9:
        raise SingularityError
    return c, gamma, _ref_checked_det(ref_det(gamma))


def _ref_checked_det(det_gamma: float) -> float:
    if not 0.0 < abs(det_gamma) < math.inf:
        raise SingularityError
    return det_gamma


def ref_compose(first, second) -> tuple[np.ndarray, np.ndarray, float]:
    det_gamma = _ref_checked_det(first[2] * second[2])
    with np.errstate(over="ignore", invalid="ignore"):
        c = second[0] @ first[0]
        gamma = first[1] @ second[1]
    if not (np.isfinite(c).all() and np.isfinite(gamma).all()):
        raise SingularityError
    return c, gamma, det_gamma


def ref_metric(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    if not np.isfinite(m).all() or float(np.max(np.abs(m - m.T))) > 1e-10:
        raise DefinitenessError
    with np.errstate(over="ignore", divide="ignore"):
        minors = [float(np.linalg.det(m[:k, :k])) for k in range(1, len(m) + 1)]
    if not all(math.isfinite(v) and v > 1e-12 for v in minors):
        raise DefinitenessError
    return m, np.linalg.inv(m), minors[-1]


def ref_is_lorentz(c: np.ndarray) -> bool:
    t, x, y, z = c.tolist()
    for s in range(4):
        for r in range(4):
            value = t[s] * t[r] - x[s] * x[r] - y[s] * y[r] - z[s] * z[r]
            expected = 0.0 if s != r else (1.0 if s == 0 else -1.0)
            if not abs(value - expected) <= 1e-9:
                return False
    return True


def _bits(value) -> object:
    """What must match: array bytes with shape, a float's repr, or a bool."""
    if isinstance(value, np.ndarray):
        return value.shape, value.dtype.str, value.tobytes()
    if isinstance(value, float):
        return "float", repr(value)
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return type(value).__name__, value


def _outcome(fn, *args) -> tuple[str, object]:
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return "raised", type(exc)


def _same(got, want) -> bool:
    if got[0] != want[0]:
        return False
    if got[0] == "raised":
        return got[1] is want[1]
    return _bits(got[1]) == _bits(want[1])


def _matrices(rng: np.random.Generator, d: int, count: int) -> list[np.ndarray]:
    """Random, integer, rank-deficient, badly scaled and special-valued d x d."""
    out = []
    for k in range(count):
        kind = k % 8
        m = rng.standard_normal((d, d))
        if kind == 1:
            m = rng.integers(-3, 4, (d, d)).astype(float)
        elif kind == 2 and d > 1:
            m[-1] = m[0] * rng.choice([1.0, -2.0, 0.0])
        elif kind == 3:
            m *= rng.choice([1e300, 1e154, 1e-154, 1e-160, 1e-300, 5e-324])
        elif kind == 4:
            for _ in range(rng.integers(1, 3)):
                m[rng.integers(d), rng.integers(d)] = rng.choice(SPECIALS)
        elif kind == 5:
            m[:, rng.integers(d)] = rng.choice([0.0, -0.0])
        elif kind == 6:
            m = np.diag(rng.choice([1e300, 1e-160, -0.0, 3.0, 5e-324], d))
        out.append(m)
    return out


def _mixed(m: np.ndarray, weight: int = 0):
    return new_object(len(m), (UP, DOWN), weight, m)


def _frame_parts(f: Frame) -> tuple[np.ndarray, np.ndarray, float]:
    return f.c.components, f.gamma.components, f.det_gamma


@pytest.mark.parametrize("dim", LARGE_DIMS)
def test_determinant_inverse_and_threshold_match_the_references(dim):
    rng = np.random.default_rng(1100 + dim)
    for m in _matrices(rng, dim, 400):
        t = _mixed(m, weight=int(rng.integers(-2, 3)))
        assert _same(_outcome(determinant, t), _outcome(ref_det, m)), m
        assert _same(_outcome(singularity_threshold, t), _outcome(ref_threshold, m)), m
        got = _outcome(lambda: inverse(t).components)
        assert _same(got, _outcome(ref_inverse, m)), m
        if got[0] == "ok":
            assert inverse(t).weight == -t.weight


@pytest.mark.parametrize("dim", LARGE_DIMS)
def test_frames_and_their_composition_match_the_references(dim):
    rng = np.random.default_rng(1200 + dim)
    built = []
    for m in _matrices(rng, dim, 400):
        got = _outcome(lambda: _frame_parts(frame_from_matrix(m)))
        assert _same(got, _outcome(ref_frame, m)), m
        if got[0] == "ok":
            built.append((frame_from_matrix(m), got[1]))
    assert len(built) > 100
    for _ in range(200):
        (f1, r1), (f2, r2) = (built[i] for i in rng.integers(len(built), size=2))
        got = _outcome(lambda: _frame_parts(compose(f1, f2)))
        assert _same(got, _outcome(ref_compose, r1, r2))


@pytest.mark.parametrize("dim", range(1, 9))
def test_the_lapack_gufuncs_match_np_linalg(dim):
    """``_inv`` and ``_lu_det`` over a stack, and ``_det`` matrix by matrix
    on its LAPACK branch, give ``np.linalg``'s bits; finite inputs only,
    since ``np.linalg.inv`` raises where the gufunc returns NaN."""
    rng = np.random.default_rng(1600 + dim)
    stack = np.stack(
        [np.nan_to_num(m, nan=1.0, posinf=2.0, neginf=-2.0) for m in _matrices(rng, dim, 64)]
    )
    with np.errstate(all="ignore"):  # the same flags on both sides
        dets = np.linalg.det(stack)
        assert _bits(_lu_det(stack)) == _bits(dets)
        for m, want in zip(stack, dets.tolist()):
            assert _bits(float(_lu_det(m))) == _bits(want)
            if dim >= 5:
                assert _bits(_det(m, dim)) == _bits(want)
    invertible = stack[np.abs(dets) > 1e-300]
    assert len(invertible) > 32
    assert _bits(_inv(invertible)) == _bits(np.linalg.inv(invertible))
    for m in invertible:
        assert _bits(_inv(m)) == _bits(np.linalg.inv(m))


@pytest.mark.parametrize("dim", DIMS)
def test_basis_singularity_follows_the_threshold_rule(dim):
    rng = np.random.default_rng(1300 + dim)
    f = frame_from_matrix(rng.standard_normal((dim, dim)) + 3.0 * np.eye(dim))
    for m in _matrices(rng, dim, 200):
        basis = [new_object(dim, (UP,), 0, row) for row in m]
        got = _outcome(transform_basis, f, basis)
        want = _outcome(ref_singular, m)
        if want[0] == "ok":
            want = ("raised", SingularityError) if want[1] else ("ok", None)
        assert got[0] == want[0] and (got[0] == "ok" or got[1] is want[1]), m


def _metric_inputs(rng: np.random.Generator, d: int, count: int) -> list[np.ndarray]:
    """SPD, indefinite, singular, asymmetric, badly scaled and special-valued."""
    out = []
    for k, a in enumerate(_matrices(rng, d, count)):
        kind = k % 6
        if kind in (0, 1, 2):
            a = np.nan_to_num(a, nan=1.0, posinf=2.0, neginf=-2.0)
            with np.errstate(all="ignore"):
                a = a @ a.T
            if kind == 0:
                a = a + np.eye(d)
            elif kind == 1 and d > 1:
                a[-1, -1] = -a[-1, -1]
        elif kind == 3:
            a = a + a.T
        out.append(a)
    return out


@pytest.mark.parametrize("dim", DIMS + (16, 17))
def test_metric_matches_per_minor_determinants(dim):
    """g, g_inv and det_g in every bit, and the same accept/reject class, on
    both sides of the largest dim whose minors come from one stacked call.

    Rejection messages are not compared: they list the intermediate minors,
    which a stacked determinant call may round differently in the last place
    from a call per minor (seen at dim 6), while det_g, the full matrix, is
    the same call either way.
    """
    rng = np.random.default_rng(1400 + dim)
    inputs = _metric_inputs(rng, dim, 300 if dim > 6 else 600)
    accepted = 0
    for m in inputs:
        got = _outcome(lambda: _metric_parts(m))
        assert _same(got, _outcome(ref_metric, m)), m
        accepted += got[0] == "ok"
    assert accepted >= len(inputs) // 6


def _metric_parts(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    met = metric_from_tensor(m)
    return met.g.components, met.g_inv.components, met.det_g


def _boost(beta: float) -> np.ndarray:
    g = 1.0 / math.sqrt(1.0 - beta * beta)
    b = np.eye(4)
    b[0, 0] = b[1, 1] = g
    b[0, 1] = b[1, 0] = -beta * g
    return b


def test_is_lorentz_matches_the_sixteen_case_loop():
    rng = np.random.default_rng(1500)
    perm = np.eye(4)
    cases = []
    for _ in range(500):
        b = _boost(float(rng.uniform(-0.999999, 0.999999)))
        cases.append(b)
        cases.append(b @ _boost(float(rng.uniform(-0.9, 0.9))))
        cases.append(b[:, rng.permutation(4)])
        cases.append(np.diag(rng.choice([1.0, -1.0], 4)) @ b)
        noisy = b.copy()
        noisy[rng.integers(4), rng.integers(4)] += rng.choice([1e-12, 1e-10, 1e-9, 1e-8])
        cases.append(noisy)
        special = b.copy()
        special[rng.integers(4), rng.integers(4)] = rng.choice(SPECIALS)
        cases.append(special)
        cases.append(rng.standard_normal((4, 4)))
    cases.append(perm)
    verdicts = set()
    for c in cases:
        want = ref_is_lorentz(c)
        assert is_lorentz(c) is want, c
        verdicts.add(want)
    assert verdicts == {True, False}


def ref_power(det_gamma: float, weight: int) -> float:
    """det(gamma) ** weight for weights -2..2, one product per factor."""
    base = det_gamma if weight > 0 else 1.0 / det_gamma
    return base * base if abs(weight) == 2 else base


def ref_transform(arr, ups, c, gamma, det_gamma, weight) -> np.ndarray:
    """The weighted law with ``@`` per slot at every rank: an upper slot,
    moved last, times c.T, a lower one times gamma."""
    if weight != 0:
        factor = ref_power(det_gamma, weight)
        if not abs(factor) < math.inf or (factor == 0.0 and arr.any()):
            raise SingularityError
    for k, up in enumerate(ups):
        arr = (arr.swapaxes(k, -1) @ (c.T if up else gamma)).swapaxes(k, -1)
    if weight != 0:
        arr = arr * factor
    return np.asarray(arr)


def ref_move_index(arr, ups, slot, matrix, up_before) -> np.ndarray:
    if ups[slot] is not up_before:
        raise ConventionError
    return (arr.swapaxes(slot, -1) @ matrix.T).swapaxes(slot, -1)


def ref_inner(x, y, g) -> float:
    return float(x @ g @ y)


def ref_cross(x, y, g, det_g) -> np.ndarray:
    a1, a2, a3 = (g @ x).tolist()
    b1, b2, b3 = (g @ y).tolist()
    root = math.sqrt(det_g)
    z = [a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1]
    return np.array([v / root for v in z])


def ref_transform_basis(rows, gamma) -> tuple[np.ndarray, ...]:
    if ref_singular(rows):
        raise SingularityError
    return tuple(gamma.T @ rows)


def _entries(pool: list[np.ndarray], rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    """A (d,) * rank array of corpus entries: rows and whole matrices of
    ``pool``, stacked for ranks 3 and 4."""
    m = pool[rng.integers(len(pool))]
    if rank == 0:
        return np.array(m[0, 0])
    if rank == 1:
        return m[rng.integers(d)].copy()
    if rank == 2:
        return m.copy()
    return np.stack([_entries(pool, rng, d, rank - 1) for _ in range(d)])


@pytest.mark.parametrize("dim", DIMS)
def test_transform_and_transform_basis_match_the_per_slot_matmul_law(dim):
    """Ranks 0-4, so that both sides of the kernel's rank test run, and
    weights -2..2, under frames and objects drawn from the corpus."""
    rng = np.random.default_rng(1700 + dim)
    pool = _matrices(rng, dim, 200)
    frames = []
    for m in pool:
        try:
            frames.append(frame_from_matrix(m))
        except SingularityError:
            pass
    assert len(frames) > 50
    outcomes = set()
    for k in range(300 if dim < 5 else 150):
        f = frames[rng.integers(len(frames))]
        rank, weight = k % 5, (k // 5) % 5 - 2
        ups = tuple(bool(u) for u in rng.integers(0, 2, rank))
        arr = _entries(pool, rng, dim, rank)
        t = new_object(dim, tuple(UP if u else DOWN for u in ups), weight, arr)
        got = _outcome(lambda: transform(t, f).components)
        want = _outcome(ref_transform, arr, ups, f.c.components, f.gamma.components,
                        f.det_gamma, weight)
        assert _same(got, want), (arr, ups, weight, f)
        outcomes.add(got[0] if got[0] == "ok" else got[1])
    # overflowing products warn at every dim; det(gamma) powers leave
    # float64 at the small dims
    assert outcomes >= {"ok", RuntimeWarning}
    for m in pool:
        f = frames[rng.integers(len(frames))]
        basis = [new_object(dim, (UP,), 0, row) for row in m]
        got = _outcome(lambda: tuple(e.components for e in transform_basis(f, basis)))
        assert _same(got, _outcome(ref_transform_basis, m, f.gamma.components)), m


@pytest.mark.parametrize("dim", DIMS)
def test_raising_lowering_and_inner_match_the_matmul_references(dim):
    rng = np.random.default_rng(1800 + dim)
    metrics = []
    for m in _metric_inputs(rng, dim, 200):
        try:
            metrics.append(metric_from_tensor(m))
        except DefinitenessError:
            pass
    assert len(metrics) > 20
    pool = _matrices(rng, dim, 100)
    for k in range(240 if dim < 5 else 120):
        met = metrics[rng.integers(len(metrics))]
        rank = k % 4 + 1
        slot = int(rng.integers(rank))
        ups = tuple(bool(u) for u in rng.integers(0, 2, rank))
        arr = _entries(pool, rng, dim, rank)
        t = new_object(dim, tuple(UP if u else DOWN for u in ups), 0, arr)
        for fn, matrix, up_before in (
            (lower_index, met.g.components, True),
            (raise_index, met.g_inv.components, False),
        ):
            got = _outcome(lambda: fn(t, slot, met).components)
            want = _outcome(ref_move_index, arr, ups, slot, matrix, up_before)
            assert _same(got, want), (fn.__name__, arr, ups, slot)
        x, y = (_entries(pool, rng, dim, 1) for _ in range(2))
        got = _outcome(inner, new_object(dim, (UP,), 0, x), new_object(dim, (UP,), 0, y), met)
        assert _same(got, _outcome(ref_inner, x, y, met.g.components)), (x, y)


def test_cross_and_triple_match_the_matmul_references():
    rng = np.random.default_rng(1900)
    metrics = []
    for m in _metric_inputs(rng, 3, 200):
        try:
            metrics.append(metric_from_tensor(m))
        except DefinitenessError:
            pass
    pool = _matrices(rng, 3, 200)
    for _ in range(600):
        met = metrics[rng.integers(len(metrics))]
        g, det_g = met.g.components, met.det_g
        x, y, z = (_entries(pool, rng, 3, 1) for _ in range(3))
        vx, vy, vz = (new_object(3, (UP,), 0, v) for v in (x, y, z))
        got = _outcome(lambda: cross(vx, vy, met).components)
        assert _same(got, _outcome(ref_cross, x, y, g, det_g)), (x, y)
        got = _outcome(triple, vx, vy, vz, met)
        want = _outcome(lambda: ref_inner(ref_cross(x, y, g, det_g), z, g))
        assert _same(got, want), (x, y, z)


def test_products_at_dim_1_keep_the_signed_zeros_of_matmul():
    """At dim 1 ``ndarray.dot`` multiplies the two entries as scalars and
    keeps a -0.0 (or an underflow to -0.0) that ``@``'s one-term sum turns
    into 0.0, so every kernel keeps ``@`` there.  A frame from
    ``frame_from_matrix`` never composes to a zero entry; a Frame built
    field by field can.  Each product below is -0.0 under ``dot``."""
    one, zero = _mixed(np.array([[1.0]])), _mixed(np.array([[-0.0]]))
    f = Frame(1, zero, zero, 1.0)
    g = Frame(1, one, one, 1.0)
    for h in (compose(f, g), compose(g, f)):
        assert _bits(_frame_parts(h)) == _bits((np.array([[0.0]]), np.array([[0.0]]), 1.0))
    tiny = frame_from_matrix([[1e300]])
    basis = [new_object(1, (UP,), 0, [-1e-100])]
    assert _bits(transform_basis(tiny, basis)[0].components) == _bits(np.array([0.0]))
    two = frame_from_matrix([[2.0]])
    met = metric_from_tensor([[2.0]])
    up, down = (new_object(1, (v,), 0, [-0.0]) for v in (UP, DOWN))
    for got in (
        transform(up, two).components,
        transform(down, two).components,
        lower_index(up, 0, met).components,
        raise_index(down, 0, met).components,
    ):
        assert _bits(got) == _bits(np.array([0.0]))
    assert _bits(inner(up, new_object(1, (UP,), 0, [1.0]), met)) == _bits(0.0)
