"""The ``geometry`` workload: seeded kernel tasks at dims 2-6.

No statement is parsed here, so a change confined to the einsum layers
should leave every figure of this workload where it was.  Oracles are
``np.linalg``, explicit per-slot transformation laws built from a numpy
inverse, and a permutation-symbol table built by this file.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from common import Op, close, cycle_kinds, spd, well_conditioned

DIMS = (2, 3, 4, 5, 6)


def _parity(perm: tuple[int, ...]) -> int:
    """Sign of a permutation of 0..n-1 from its cycle decomposition."""
    seen, sign = set(), 1
    for start in range(len(perm)):
        length, k = 0, start
        while k not in seen:
            seen.add(k)
            k = perm[k]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def _symbol_table(dim: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    perms = list(itertools.permutations(range(dim)))
    index = tuple(np.array(axis) for axis in zip(*perms))
    return index, np.array([_parity(p) for p in perms], dtype=np.float64)


def apply_law(arr, slots, c, g, det_g, weight):
    """Explicit weighted law, one einsum per slot: upper with c, lower with g."""
    rank = arr.ndim
    letters = "abcdefgh"[:rank]
    for k, up in enumerate(slots):
        out = letters[:k] + "z" + letters[k + 1:]
        matrix_subs = "z" + letters[k] if up else letters[k] + "z"
        arr = np.einsum(f"{matrix_subs},{letters}->{out}", c if up else g, arr)
    return arr * det_g ** weight


class Geometry:
    shares = {
        "frame": 12, "transform": 20, "determinant": 12, "inverse": 10,
        "levi2": 2, "levi3": 2, "levi4": 2, "levi5": 2, "levi6": 2,
        "metric": 8, "raise_lower": 8, "cross_triple": 6, "boost": 6,
        "compose": 5, "singular": 1, "indefinite": 1, "superluminal": 1,
    }

    def __init__(self, ix, rng: np.random.Generator):
        self.ix = ix
        self.rng = rng
        self.tables = {d: _symbol_table(d) for d in DIMS}
        # frames and metrics are inputs here, so they are built once, with
        # numpy inverses kept beside them for the oracles
        self.frames = {}
        self.metrics = {}
        for d in DIMS:
            self.frames[d] = []
            self.metrics[d] = []
            for _ in range(4):
                c = well_conditioned(rng, d)
                g = np.linalg.inv(c)
                self.frames[d].append((ix.frame_from_matrix(c), c, g, 1.0 / np.linalg.det(c)))
                m = spd(rng, d)
                self.metrics[d].append((ix.metric_from_tensor(m), m, np.linalg.inv(m)))

    def warmup(self) -> list[Op]:
        return [self._op(kind) for kind in self.shares]

    def cycle(self) -> list[Op]:
        return [self._op(kind) for kind in cycle_kinds(self.rng, self.shares)]

    def _op(self, kind: str) -> Op:
        return getattr(self, "_" + kind.rstrip("23456"))(kind)

    def _dim(self) -> int:
        return int(self.rng.integers(2, 7))

    def _obj(self, dim, slots, weight=0):
        arr = self.rng.standard_normal((dim,) * len(slots))
        return self.ix.new_object(dim, slots, weight, arr), arr

    def _frame(self, kind):
        c = well_conditioned(self.rng, self._dim())

        def run():
            return self.ix.frame_from_matrix(c)

        def twin():
            t0 = time.perf_counter()
            g = np.linalg.inv(c)
            det_g = 1.0 / np.linalg.det(c)
            return {"other": time.perf_counter() - t0}, (g, det_g)

        def check(f, want):
            return (np.array_equal(f.c.components, c) and close(f.gamma.components, want[0])
                    and close(f.det_gamma, want[1]))

        return Op(kind, run, twin, check)

    def _transform(self, kind):
        ix, rng = self.ix, self.rng
        dim = self._dim()
        rank = int(rng.integers(1, 5))
        weight = int(rng.integers(-1, 3))
        up = [bool(b) for b in rng.integers(0, 2, rank)]
        t, arr = self._obj(dim, [ix.UP if u else ix.DOWN for u in up], weight)
        f, c, g, det_g = self.frames[dim][rng.integers(4)]

        def twin():
            t0 = time.perf_counter()
            value = apply_law(arr, up, c, g, det_g, weight)
            return {"transform": time.perf_counter() - t0}, value

        def check(res, value):
            return res.slots == t.slots and res.weight == weight and close(res.components, value)

        return Op(kind, lambda: ix.transform(t, f), twin, check)

    def _determinant(self, kind):
        ix, rng = self.ix, self.rng
        dim = self._dim()
        exact = dim <= 4 and rng.random() < 0.3
        m = rng.integers(-3, 4, (dim, dim)).astype(float) if exact else well_conditioned(rng, dim)
        t = ix.new_object(dim, (ix.UP, ix.DOWN), 0, m)

        def twin():
            t0 = time.perf_counter()
            value = np.linalg.det(m)
            return {"det": time.perf_counter() - t0}, value

        def check(res, value):
            # the permutation-sum branch keeps integer determinants exact
            return res == round(value) if exact else close(res, value)

        return Op(kind, lambda: ix.determinant(t), twin, check)

    def _inverse(self, kind):
        ix, rng = self.ix, self.rng
        dim = self._dim()
        weight = int(rng.integers(-1, 3))
        m = well_conditioned(rng, dim)
        t = ix.new_object(dim, (ix.UP, ix.DOWN), weight, m)

        def twin():
            t0 = time.perf_counter()
            value = np.linalg.inv(m)
            return {"det": time.perf_counter() - t0}, value

        def check(res, value):
            return res.slots == t.slots and res.weight == -weight and close(res.components, value)

        return Op(kind, lambda: ix.inverse(t), twin, check)

    def _levi(self, kind):
        ix = self.ix
        dim = int(kind[-1])
        variance = ix.UP if self.rng.random() < 0.5 else ix.DOWN
        index, signs = self.tables[dim]

        def twin():
            t0 = time.perf_counter()
            value = np.zeros((dim,) * dim)
            value[index] = signs
            return {"other": time.perf_counter() - t0}, value

        def check(res, value):
            return (res.slots == (variance,) * dim and res.weight == (1 if variance is ix.UP else -1)
                    and np.array_equal(res.components, value))

        return Op("levi", lambda: ix.levi_civita_symbol(dim, variance), twin, check)

    def _metric(self, kind):
        m = spd(self.rng, self._dim())

        def twin():
            t0 = time.perf_counter()
            np.linalg.cholesky(m)
            value = (np.linalg.inv(m), np.linalg.det(m))
            return {"other": time.perf_counter() - t0}, value

        def check(res, value):
            return (np.array_equal(res.g.components, m) and close(res.g_inv.components, value[0])
                    and close(res.det_g, value[1]))

        return Op(kind, lambda: self.ix.metric_from_tensor(m), twin, check)

    def _raise_lower(self, kind):
        ix, rng = self.ix, self.rng
        dim = self._dim()
        met, g, g_inv = self.metrics[dim][rng.integers(4)]
        rank = int(rng.integers(1, 4))
        slot = int(rng.integers(rank))
        up = [bool(b) for b in rng.integers(0, 2, rank)]
        up[slot] = True
        t, arr = self._obj(dim, [ix.UP if u else ix.DOWN for u in up])

        def run():
            lowered = ix.lower_index(t, slot, met)
            return lowered, ix.raise_index(lowered, slot, met)

        def twin():
            t0 = time.perf_counter()
            lowered = np.moveaxis(np.einsum("za,a...->z...", g, np.moveaxis(arr, slot, 0)), 0, slot)
            back = np.moveaxis(np.einsum("za,a...->z...", g_inv, np.moveaxis(lowered, slot, 0)), 0, slot)
            return {"other": time.perf_counter() - t0}, (lowered, back)

        def check(res, value):
            lowered, back = res
            return (lowered.slots[slot] is ix.DOWN and back.slots == t.slots
                    and close(lowered.components, value[0]) and close(back.components, value[1]))

        return Op(kind, run, twin, check)

    def _cross_triple(self, kind):
        ix, rng = self.ix, self.rng
        met, g, _ = self.metrics[3][rng.integers(4)]
        vecs = [self._obj(3, (ix.UP,)) for _ in range(3)]
        (x, xa), (y, ya), (z, za) = vecs

        def run():
            return ix.cross(x, y, met), ix.triple(x, y, z, met)

        def twin():
            t0 = time.perf_counter()
            root = math.sqrt(np.linalg.det(g))
            value = (np.cross(g @ xa, g @ ya) / root,
                     root * np.linalg.det(np.stack([xa, ya, za])))
            return {"other": time.perf_counter() - t0}, value

        def check(res, value):
            return (res[0].slots == (ix.UP,) and close(res[0].components, value[0])
                    and close(res[1], value[1]))

        return Op(kind, run, twin, check)

    def _boost(self, kind):
        ix = self.ix
        beta = float(self.rng.uniform(-0.95, 0.95))

        def run():
            b = ix.boost(beta)
            return b, ix.rapidity(beta), ix.is_lorentz(b)

        def twin():
            t0 = time.perf_counter()
            value = (boost_matrix(beta), 0.5 * math.log((1 + beta) / (1 - beta)))
            return {"other": time.perf_counter() - t0}, value

        def check(res, value):
            return close(res[0], value[0]) and close(res[1], value[1]) and res[2] is True

        return Op(kind, run, twin, check)

    def _compose(self, kind):
        ix = self.ix
        b1, b2 = (float(v) for v in self.rng.uniform(-0.7, 0.7, 2))

        def run():
            f = ix.compose(ix.frame_from_matrix(ix.boost(b1)), ix.frame_from_matrix(ix.boost(b2)))
            return f, ix.is_lorentz(f.c.components)

        def twin():
            t0 = time.perf_counter()
            c = boost_matrix(b2) @ boost_matrix(b1)
            value = (c, np.linalg.inv(c))
            return {"other": time.perf_counter() - t0}, value

        def check(res, value):
            f, lorentz = res
            # velocities add relativistically, so the product is one boost
            combined = boost_matrix((b1 + b2) / (1 + b1 * b2))
            return (lorentz is True and close(f.c.components, value[0])
                    and close(f.c.components, combined) and close(f.gamma.components, value[1])
                    and close(f.det_gamma, 1.0))

        return Op(kind, run, twin, check)

    def _singular(self, kind):
        m = well_conditioned(self.rng, self._dim())
        m[-1] = m[0]
        return Op(kind, lambda: self.ix.frame_from_matrix(m), expect=self.ix.SingularityError)

    def _indefinite(self, kind):
        m = spd(self.rng, self._dim(), negative=True)
        return Op(kind, lambda: self.ix.metric_from_tensor(m), expect=self.ix.DefinitenessError)

    def _superluminal(self, kind):
        beta = float(self.rng.choice([-1.0, 1.0])) * float(self.rng.choice([1.0, 1.2, 3.0]))
        return Op(kind, lambda: self.ix.boost(beta), expect=self.ix.SuperluminalError)


def boost_matrix(beta: float) -> np.ndarray:
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    m = np.eye(4)
    m[0, 0] = m[1, 1] = gamma
    m[0, 1] = m[1, 0] = -beta * gamma
    return m
