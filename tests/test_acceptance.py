"""Acceptance suite: one test per product criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; ``-s`` additionally shows the printed summary lines.
"""

import itertools

import numpy as np
import pytest

from indicial import (
    DOWN,
    UP,
    ConventionError,
    KroneckerKind,
    Mode,
    add,
    boost,
    boost_from_rapidity,
    contract,
    determinant,
    eta_residual,
    execute,
    identity_frame,
    inner,
    inverse_frame,
    is_lorentz,
    kronecker,
    levi_civita_symbol,
    levi_civita_tensor,
    lower_index,
    metric_from_basis,
    metric_from_tensor,
    mink_product,
    new_object,
    order_contractions,
    outer_product,
    parse,
    raise_index,
    random_frame,
    random_metric,
    transform,
    validate,
)
from indicial import cross as metric_cross
from indicial import frame_from_matrix
from indicial import triple as metric_triple
from indicial.cli import run as cli_run
from indicial.frames import verify_transform_law
from indicial.metric import Metric

from oracles import cofactor_det, cross3, naive_eval, random_statement

_REL = 1e-12


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _mixed(arr) -> "new_object":
    arr = np.asarray(arr, dtype=float)
    return new_object(arr.shape[0], (UP, DOWN), 0, arr)


def _done(n: int, label: str) -> None:
    print(f"criterion {n}: pass  {label}")


# 1. symbol identities, exact


def test_criterion_1_symbol_identities():
    delta = kronecker(3, KroneckerKind.MIXED)
    assert contract(delta, 0, 1).as_scalar() == 3.0

    el = levi_civita_symbol(3, DOWN).components
    eu = levi_civita_symbol(3, UP).components
    d = np.eye(3)

    # e_{mnp} e^{rsp} over all 81 (r, s, m, n) tuples
    for r, s, m, n in itertools.product(range(3), repeat=4):
        lhs = sum(el[m, n, p] * eu[r, s, p] for p in range(3))
        assert lhs == d[r, m] * d[s, n] - d[s, m] * d[r, n]

    # e_{mnp} e^{rnp} = 2 delta^r_m
    for r, m in itertools.product(range(3), repeat=2):
        lhs = sum(el[m, n, p] * eu[r, n, p] for n in range(3) for p in range(3))
        assert lhs == 2.0 * d[r, m]

    # full self-contraction counts the permutations
    assert float(np.sum(el * eu)) == 6.0

    # product of two symbols as a 3x3 determinant of deltas, all 729 tuples
    for r, s, t, m, n, p in itertools.product(range(3), repeat=6):
        rows = [
            [d[r, m], d[r, n], d[r, p]],
            [d[s, m], d[s, n], d[s, p]],
            [d[t, m], d[t, n], d[t, p]],
        ]
        assert eu[r, s, t] * el[m, n, p] == cofactor_det(rows)

    # closed polynomial form of the rank-3 symbol, all 27 entries
    for r, s, t in itertools.product(range(1, 4), repeat=3):
        assert el[r - 1, s - 1, t - 1] == (r - s) * (s - t) * (t - r) / 2.0

    _done(1, "symbol identities exact")


# 2. determinants


def test_criterion_2_determinants():
    rng = np.random.default_rng(2026)

    for dim in (1, 2, 3, 4):
        assert determinant(kronecker(dim, KroneckerKind.MIXED)) == 1.0

    # integer entries keep every product and sum exact in double precision
    for _ in range(100):
        arr = rng.integers(-9, 10, size=(3, 3)).astype(float)
        i, j = rng.choice(3, size=2, replace=False)
        swapped_cols = arr.copy()
        swapped_cols[:, [i, j]] = swapped_cols[:, [j, i]]
        swapped_rows = arr.copy()
        swapped_rows[[i, j], :] = swapped_rows[[j, i], :]
        base = determinant(_mixed(arr))
        assert determinant(_mixed(swapped_cols)) == -base
        assert determinant(_mixed(swapped_rows)) == -base

    for _ in range(1000):
        arr = rng.standard_normal((3, 3))
        assert _rel(determinant(_mixed(arr)), cofactor_det(arr.tolist())) <= _REL

    for _ in range(1000):
        x = rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3))
        got = determinant(_mixed(x @ y))
        want = determinant(_mixed(x)) * determinant(_mixed(y))
        assert _rel(got, want) <= 1e-9

    el = levi_civita_symbol(3, DOWN).components
    eu = levi_civita_symbol(3, UP).components
    for _ in range(100):
        a = rng.standard_normal((3, 3))
        det = determinant(_mixed(a))
        # the symbol spreads the determinant over every column triple
        spread = np.einsum("rst,rm,sn,tp->mnp", el, a, a, a)
        scale = max(1.0, float(np.max(np.abs(spread))))
        assert np.max(np.abs(spread - el * det)) <= 1e-12 * scale
        # and contracting both symbols recovers it, up to the 3! count
        total = np.einsum("rst,mnp,rm,sn,tp->", el, eu, a, a, a) / 6.0
        assert _rel(total, det) <= 1e-12

    _done(2, "determinant laws")


# 3. transformation laws


_SIGNATURES = [
    sig
    for rank in range(4)
    for sig in itertools.product((UP, DOWN), repeat=rank)
]


def test_criterion_3_transformation_laws():
    rng = np.random.default_rng(3)
    delta = kronecker(3, KroneckerKind.MIXED)
    eps = {v: levi_civita_symbol(3, v) for v in (UP, DOWN)}

    def rand(slots, weight=0):
        return new_object(3, slots, weight, rng.standard_normal((3,) * len(slots)))

    for _ in range(100):
        f = random_frame(rng, 3, min_det=0.1)

        a, x = rand((DOWN,)), rand((UP,))
        s_old = float(a.components @ x.components)
        s_new = float(transform(a, f).components @ transform(x, f).components)
        assert abs(s_new - s_old) <= 1e-9 * max(1.0, abs(s_old))

        t = rand((UP, DOWN))
        tr_old = contract(t, 0, 1).as_scalar()
        tr_new = contract(transform(t, f), 0, 1).as_scalar()
        assert abs(tr_new - tr_old) <= 1e-9 * max(1.0, abs(tr_old))

        assert np.max(np.abs(transform(delta, f).components - np.eye(3))) <= 1e-12

        for v in (UP, DOWN):
            moved = transform(eps[v], f)
            assert moved.weight == eps[v].weight
            assert np.max(np.abs(moved.components - eps[v].components)) <= 1e-9

        # the law is linear and multiplicative, for every rank up to 3
        sig = _SIGNATURES[int(rng.integers(len(_SIGNATURES)))]
        t1, t2 = rand(sig), rand(sig)
        lhs = transform(add(t1, t2), f).components
        rhs = add(transform(t1, f), transform(t2, f)).components
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(lhs)))

        u, w = rand((UP,), weight=int(rng.integers(-1, 2))), rand(
            (DOWN, UP), weight=int(rng.integers(-1, 2))
        )
        prod = outer_product(u, w)
        assert prod.weight == u.weight + w.weight  # weights add under products
        lhs = transform(prod, f).components
        rhs = outer_product(transform(u, f), transform(w, f)).components
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(lhs)))

        t3 = rand((UP, DOWN, UP))
        lhs = transform(contract(t3, 0, 1), f).components
        rhs = contract(transform(t3, f), 0, 1).components
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(lhs)))

        # round trip through the inverse frame, every signature, random weight
        for sig in _SIGNATURES:
            t = rand(sig, weight=int(rng.integers(-2, 3)))
            moved = transform(t, f)
            assert verify_transform_law(t, moved, f, t.weight, tol=1e-9)
            back = transform(moved, inverse_frame(f))
            scale = max(1.0, float(np.max(np.abs(t.components))))
            assert np.max(np.abs(back.components - t.components)) <= 1e-9 * scale

    stretch = frame_from_matrix(np.diag([2.0, 1.0, 1.0]))
    lower = transform(kronecker(3, KroneckerKind.LOWER_LOWER), stretch)
    assert np.max(np.abs(lower.components - np.diag([0.25, 1.0, 1.0]))) <= 1e-12

    _done(3, "transformation laws")


# 4. metric


def test_criterion_4_metric():
    rng = np.random.default_rng(4)

    def vec():
        return new_object(3, (UP,), 0, rng.standard_normal(3))

    for _ in range(100):
        m = random_metric(rng, 3)
        assert np.max(np.abs(m.g.components @ m.g_inv.components - np.eye(3))) <= 1e-9

        x = vec()
        back = raise_index(lower_index(x, 0, m), 0, m)
        assert np.max(np.abs(back.components - x.components)) <= 1e-9

        # both routes to the squared length
        g, gi = m.g.components, m.g_inv.components
        xv = x.components
        lhs = float(xv @ g @ xv)
        x_low = g @ xv
        rhs = float(x_low @ gi @ x_low)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

        # raising all three slots of the volume tensor with the inverse metric
        lo = levi_civita_tensor(m, DOWN).components
        up = levi_civita_tensor(m, UP).components
        raised = np.einsum("rm,sn,tp,mnp->rst", gi, gi, gi, lo)
        assert np.max(np.abs(raised - up)) <= 1e-9

    # cross product in a skew frame is the conjugated orthonormal cross
    for _ in range(50):
        while True:
            f = random_frame(rng, 3, min_det=0.1)
            if 1.0 / f.det_gamma > 0:  # keep the orientation
                break
        g_new = metric_from_tensor(
            transform(kronecker(3, KroneckerKind.LOWER_LOWER), f)
        )
        x, y = vec(), vec()
        got = metric_cross(x, y, g_new)
        x_old = f.gamma.components @ x.components
        y_old = f.gamma.components @ y.components
        want = f.c.components @ np.array(cross3(x_old.tolist(), y_old.tolist()))
        assert np.max(np.abs(got.components - want)) <= 1e-9 * max(
            1.0, float(np.max(np.abs(want)))
        )

    # a x (b x c) = b (a.c) - c (a.b)
    for _ in range(100):
        m = random_metric(rng, 3)
        a, b, c = vec(), vec(), vec()
        lhs = metric_cross(a, metric_cross(b, c, m), m).components
        rhs = inner(a, c, m) * b.components - inner(a, b, m) * c.components
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(rhs)))

    # volume tensor entries are ambient triple products of the basis rows
    for _ in range(20):
        while True:
            rows = rng.uniform(-1.0, 1.0, size=(3, 3))
            if np.linalg.det(rows) >= 0.1:
                break
        basis = [new_object(3, (UP,), 0, rows[r]) for r in range(3)]
        m = metric_from_basis(basis)
        lo = levi_civita_tensor(m, DOWN).components
        for r, s, t in itertools.product(range(3), repeat=3):
            want = cofactor_det([rows[r].tolist(), rows[s].tolist(), rows[t].tolist()])
            assert abs(lo[r, s, t] - want) <= 1e-9 * max(1.0, abs(want))

    _done(4, "metric identities")


# 5. Minkowski


def _rotation4(rng: np.random.Generator) -> np.ndarray:
    out = np.eye(4)
    for i, j in ((1, 2), (1, 3), (2, 3)):
        theta = rng.uniform(0.0, 2.0 * np.pi)
        g = np.eye(4)
        g[i, i] = g[j, j] = np.cos(theta)
        g[i, j] = -np.sin(theta)
        g[j, i] = np.sin(theta)
        out = out @ g
    return out


def test_criterion_5_minkowski():
    rng = np.random.default_rng(5)

    b = boost(0.6)
    assert abs(b[0, 0] - 1.25) <= 1e-12
    assert abs(b[1, 1] - 1.25) <= 1e-12
    assert abs(b[0, 1] + 0.75) <= 1e-12
    assert abs(b[1, 0] + 0.75) <= 1e-12
    assert np.array_equal(b[2:, 2:], np.eye(2))
    assert np.all(b[2:, :2] == 0.0) and np.all(b[:2, 2:] == 0.0)

    for beta in rng.uniform(-0.99, 0.99, size=100):
        c = boost(float(beta))
        assert is_lorentz(c)
        assert eta_residual(c) <= 1e-9

    for _ in range(200):
        c = np.eye(4)
        for _ in range(int(rng.integers(1, 4))):
            c = c @ boost(float(rng.uniform(-0.9, 0.9)))
            c = c @ _rotation4(rng)
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        before = mink_product(x, y)
        after = mink_product(c @ x, c @ y)
        assert abs(after - before) <= 1e-9 * max(1.0, abs(before))

    for _ in range(100):
        p1, p2 = rng.uniform(-3.0, 3.0, size=2)
        lhs = boost_from_rapidity(float(p1)) @ boost_from_rapidity(float(p2))
        rhs = boost_from_rapidity(float(p1 + p2))
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, float(np.max(np.abs(rhs))))

    _done(5, "four-vector algebra")


# 6. summation engine vs the nested-loop oracle


def test_criterion_6_einsum_engine():
    rng = np.random.default_rng(6)

    for _ in range(200):
        text, bindings, dim = random_statement(rng, max_dim=4)
        statement = parse(text)
        plan = validate(statement, bindings, Mode.STRICT)
        want, _counts = naive_eval(statement, bindings, dim)
        scale = max(1.0, float(np.max(np.abs(want))))
        for candidate in (plan, order_contractions(plan)):
            got = execute(candidate, bindings).components
            assert np.max(np.abs(got - want)) <= _REL * scale

    # renaming a dummy letter cannot move a single bit
    b = {
        "a": new_object(3, (UP, DOWN), 0, rng.standard_normal((3, 3))),
        "x": new_object(3, (UP,), 0, rng.standard_normal(3)),
    }
    first = execute(validate(parse("y^r = a^r_s x^s"), b, Mode.STRICT), b)
    second = execute(validate(parse("y^r = a^r_t x^t"), b, Mode.STRICT), b)
    assert first.components.tobytes() == second.components.tobytes()

    # reordering the pairwise schedule moves the cost, not the value
    b6 = {
        "a": new_object(3, (DOWN, DOWN), 0, rng.standard_normal((3, 3))),
        "u": new_object(3, (UP,), 0, rng.standard_normal(3)),
        "v": new_object(3, (UP,), 0, rng.standard_normal(3)),
        "w": new_object(3, (DOWN,), 0, rng.standard_normal(3)),
        "z": new_object(3, (UP,), 0, rng.standard_normal(3)),
    }
    plan = validate(parse("s = a_{rm} u^r v^m w_k z^k"), b6, Mode.STRICT)
    ordered = order_contractions(plan)
    assert ordered.total_cost < plan.total_cost
    v1 = execute(plan, b6).as_scalar()
    v2 = execute(ordered, b6).as_scalar()
    assert _rel(v1, v2) <= _REL

    # convention violations are rejected, not silently summed
    x = new_object(3, (UP,), 0, rng.standard_normal(3))
    y = new_object(3, (DOWN,), 0, rng.standard_normal(3))
    corpus = {
        "s = x^r y_r x^r": {"x": x, "y": y},  # letter used three times
        "s = x^r z^r": {"x": x, "z": x},  # two upper occurrences
        "out^r = x^r + y_s": {"x": x, "y": y},  # free letters disagree
    }
    for text, bindings in corpus.items():
        with pytest.raises(ConventionError):
            validate(parse(text), bindings, Mode.STRICT)

    _done(6, "summation engine vs oracle")


# 7. built-in check catalogue through the command line


def test_criterion_7_check_catalogue(capsys):
    argv = ["check-exercises", "--seed", "42", "--dim", "3"]
    assert cli_run(list(argv)) == 0
    first = capsys.readouterr().out
    assert cli_run(list(argv)) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-for-byte reproducible

    lines = first.splitlines()
    body = [ln for ln in lines[2:] if ln and not ln.startswith("total")]
    assert body
    assert all(ln.split()[1] == "pass" for ln in body)

    with capsys.disabled():
        _done(7, "check catalogue deterministic and green")
