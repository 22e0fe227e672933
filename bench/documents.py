"""The ``documents`` workload: one CLI-shaped request per op over JSON files
written once at set-up, with results written to files and read back.

Most ops call the public functions the CLI composes (load, compute,
``format_tensor_document``, write); every fourth op of each kind goes
through ``cli.run`` with the equivalent argv.  Every ``eval`` text carries
a coefficient unique to its op, so no text repeats.  Inputs range from 27
to 100k components.  Oracles are numpy on the inputs as decoded by the
stdlib ``json`` module (that decode is the load part of the numpy floor),
and each emitted document is re-read with ``json`` and compared.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time

import numpy as np

from common import Op, close, cycle_kinds, spd, well_conditioned
from geometry import apply_law, boost_matrix

# eval templates: key -> (target, body after "C * ", files, mode, einsum
# subscripts, result slots); files: list of (stem, {name: (dim, slots)}),
# where names None is a single-document file bound under its stem
_EVALS = {
    "s1": ("y^r", "e^r_{st} u^s v^t", [("s1", {"e": (3, "udd"), "u": (3, "u"), "v": (3, "u")})],
           "strict", "rst,s,t->r", "u"),
    "s2": ("t^r_s", "a^r_k b^k_s + c^r_s", [("s2", {"a": (9, "ud"), "b": (9, "ud"), "c": (9, "ud")})],
           "strict", None, "ud"),
    "s3": ("w_{rs}", "q_{rstu} p^{tu}", [("s3", {"q": (6, "dddd")}), ("p", None)],
           "strict", "rstu,tu->rs", "dd"),
    "m": ("z_{rstu}", "h_{rstu} - h_{srut}", [("m", {"h": (9, "udud")})],
          "orthogonal", None, "dddd"),
    "l1": ("z^{rstuv}", "a^{rst}_k lb^{kuv}", [("l1", {"a": (10, "uuud")}), ("lb", None)],
           "strict", "rstk,kuv->rstuv", "uuuuu"),
    "l2": ("s_k", "f^{rstu}_k g_{rstu}", [("l2", {"f": (10, "uuuud"), "g": (10, "dddd")})],
           "strict", "rstuk,rstu->k", "d"),
}
_SINGLE = {"p": (6, "uu"), "lb": (10, "uuu")}
_TENSORS = {"t27": (3, "udu"), "t216": (6, "udd"), "t1296": (6, "uddu"), "t100k": (10, "uduud")}
_ERRORS = ["bad_json", "bad_nesting", "unknown_key", "bool_component", "nan_component",
           "singular_frame", "indefinite_metric", "superluminal"]
VARIANTS = 2
CLI_EVERY = 4


def _nested(arr: np.ndarray):
    return float(arr) if arr.ndim == 0 else arr.tolist()


def _doc(arr: np.ndarray, slots: str, weight: int = 0) -> dict:
    return {"dim": arr.shape[0],
            "slots": ["up" if s == "u" else "down" for s in slots],
            "weight": weight, "components": _nested(arr)}


class Documents:
    # per 200 ops; the slowest kind (transform_l) stays under 1%, so p99
    # falls inside the eval_l1 requests (2%): a 100k-component emission
    # after a 1e6 multiply-add contraction
    shares = {"eval_s": 76, "eval_m": 12, "eval_l1": 4, "eval_l2": 2, "transform_s": 28,
              "transform_m": 8, "transform_l": 1, "dot": 16, "cross": 16, "triple": 12,
              "boost": 15, "error": 10}

    def __init__(self, ix, rng: np.random.Generator, workdir: str):
        self.ix = ix
        self.rng = rng
        self.dir = workdir
        self.out = os.path.join(workdir, "out")
        os.makedirs(self.out, exist_ok=True)
        self.floor_out = os.path.join(self.out, "floor.json")
        self.kept: dict[tuple[str, int], object] = {}  # what the oracles need
        self.count = 0
        self.per_kind: dict[str, int] = {}
        self.error_turn = 0
        for k in range(VARIANTS):
            self._write_inputs(k)

    # -- inputs, written once -------------------------------------------------

    def _path(self, stem: str) -> str:
        return os.path.join(self.dir, stem + ".json")

    def _write(self, stem: str, obj, raw: str | None = None) -> str:
        path = self._path(stem)
        if os.path.exists(path):  # written by the run's parent process
            return path
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(raw if raw is not None else json.dumps(obj))
        return path

    def _tensor(self, dim: int, slots: str) -> np.ndarray:
        return self.rng.standard_normal((dim,) * len(slots))

    def _write_inputs(self, k: int) -> None:
        rng = self.rng
        for key, (_, _, files, _, _, _) in _EVALS.items():
            for stem, names in files:
                if names is None:
                    dim, slots = _SINGLE[stem]
                    # a single-document file binds under its stem, so each
                    # variant lives in its own directory
                    os.makedirs(os.path.join(self.dir, f"v{k}"), exist_ok=True)
                    self._write(f"v{k}/{stem}", _doc(self._tensor(dim, slots), slots))
                else:
                    self._write(f"{stem}_{k}", {
                        n: _doc(self._tensor(dim, slots), slots)
                        for n, (dim, slots) in names.items()})
        for key, (dim, slots) in _TENSORS.items():
            weight = int(rng.integers(-1, 3))
            self.kept[(key, k)] = weight
            self._write(f"{key}_{k}", _doc(self._tensor(dim, slots), slots, weight))
        for dim in (3, 6, 10):
            c = well_conditioned(rng, dim)
            self._write(f"frame{dim}_{k}", {"dim": dim, "c": c.tolist()})
        for dim in (3, 5):
            g = spd(rng, dim)
            self.kept[(f"metric{dim}", k)] = g
            self._write(f"metric{dim}_{k}", _doc(g, "dd"))
            for v in range(3):
                self._write(f"vec{dim}_{k}_{v}", _doc(self._tensor(dim, "u"), "u"))
        rows = well_conditioned(rng, 3)
        self.kept[("basis3", k)] = rows @ rows.T
        self._write(f"basis3_{k}", {"dim": 3, "vectors": rows.tolist()})
        # malformed and singular inputs, expected to exit 1 or 2
        good = json.dumps(_doc(rng.standard_normal((3, 3)), "ud"))
        self._write(f"bad_json_{k}", None, raw=good[: len(good) // 2])
        self._write(f"bad_nesting_{k}", {"dim": 3, "slots": ["up", "down", "up"], "weight": 0,
                                         "components": rng.standard_normal((3, 3, 2)).tolist()})
        self._write(f"unknown_key_{k}", {**_doc(rng.standard_normal(3), "u"), "units": "m"})
        doc = _doc(rng.standard_normal((3, 3)), "ud")
        doc["components"][1][2] = True
        self._write(f"bool_component_{k}", {"bad": doc})
        a, b, c = rng.standard_normal(3)
        self._write(f"nan_component_{k}", None, raw=(
            f'{{"bad": {{"dim": 4, "slots": ["up"], "weight": 0, '
            f'"components": [{a!r}, NaN, {b!r}, {c!r}]}}}}'))
        singular = well_conditioned(rng, 3)
        singular[2] = singular[0]
        self._write(f"singular_frame_{k}", {"dim": 3, "c": singular.tolist()})
        self._write(f"indefinite_metric_{k}", _doc(spd(rng, 3, negative=True), "dd"))

    # -- ops ------------------------------------------------------------------

    def warmup(self) -> list[Op]:
        # the large kinds run the same code as their small twins, so they
        # would add only time, and noise, to set-up
        return [self._op(kind) for kind in self.shares if not kind.endswith(("_l", "_l1", "_l2"))]

    def cycle(self) -> list[Op]:
        return [self._op(kind) for kind in cycle_kinds(self.rng, self.shares)]

    def _op(self, kind: str) -> Op:
        seen = self.per_kind.get(kind, 0)
        self.per_kind[kind] = seen + 1
        self.count += 1
        via_cli = seen % CLI_EVERY == CLI_EVERY - 1
        out = os.path.join(self.out, f"r{self.count}.json")
        k = int(self.rng.integers(VARIANTS))
        family, _, size = kind.partition("_")
        if kind == "error":
            family = _ERRORS[self.error_turn % len(_ERRORS)]
            self.error_turn += 1
        argv, compute, loads, want, floor_key = getattr(self, "_" + family)(size, k, out)
        return self._finish(kind, via_cli, argv, compute, loads, want, floor_key, out)

    def _finish(self, kind, via_cli, argv, compute, loads, want, floor_key, out) -> Op:
        ix = self.ix
        fatal = (ix.SingularityError, ix.SuperluminalError, ix.DefinitenessError)
        exit_code = want if isinstance(want, int) else 0

        if via_cli:
            def run():
                with contextlib.redirect_stderr(io.StringIO()):
                    return ix.cli.run(argv), None
        else:
            def run():
                # the same composition and exit-code mapping as the CLI
                try:
                    res = compute()
                    text = ix.format_tensor_document(res)
                    with open(out, "w", encoding="utf-8") as fh:
                        fh.write(text + "\n")
                    return 0, res
                except fatal:
                    return 2, None
                except ix.TensorError:
                    return 1, None

        def twin():
            if exit_code:
                return {}, None
            t0 = time.perf_counter()
            decoded = []
            for path in loads:
                with open(path, "r", encoding="utf-8") as fh:
                    decoded.append(json.loads(fh.read()))
            t1 = time.perf_counter()
            value, slots, weight = want(decoded)
            t2 = time.perf_counter()
            with open(self.floor_out, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(_nested(np.asarray(value))) + "\n")
            t3 = time.perf_counter()
            return {"load": t1 - t0, floor_key: t2 - t1, "emit": t3 - t2}, (value, slots, weight)

        def check(res, expected) -> bool:
            code, obj = res
            if exit_code:
                return code == exit_code and not os.path.exists(out)
            if code != 0:
                return False
            with open(out, "r", encoding="utf-8") as fh:
                doc = json.loads(fh.read())
            os.remove(out)
            value, slots, weight = expected
            got = np.asarray(doc["components"], dtype=np.float64)
            if obj is not None and not np.array_equal(got, obj.components):
                return False  # emission must round-trip bit-exactly
            return (doc["slots"] == ["up" if s == "u" else "down" for s in slots]
                    and doc["weight"] == weight and close(got, value))

        return Op(kind, run, twin, check)

    # Each family returns (argv, compute, input paths, oracle, floor key).
    # The oracle maps the JSON-decoded inputs to (value, slots, weight); a
    # request that must fail has its exit code in place of the oracle.

    def _eval(self, size, k, out):
        ix = self.ix
        key = {"s": ("s1", "s2", "s3")[self.count % 3]}.get(size, size)
        target, body, files, mode, subs, slots = _EVALS[key]
        coef = float(f"{1 + self.count * 1e-6:.9g}")
        text = f"{target} = {coef!r} * {body}"
        paths = [self._path(f"v{k}/{stem}" if names is None else f"{stem}_{k}") for stem, names in files]
        argv = ["eval", text, *sum((["--bindings", p] for p in paths), []), "--mode", mode, "--out", out]
        mode_enum = ix.Mode.STRICT if mode == "strict" else ix.Mode.ORTHOGONAL

        def compute():
            b = ix.load_bindings(paths)
            return ix.execute(ix.order_contractions(ix.validate(ix.parse(text), b, mode_enum)), b)

        def want(decoded):
            ops = {}
            for (stem, names), obj in zip(files, decoded):
                if names is None:
                    ops[stem] = np.asarray(obj["components"])
                else:
                    ops.update({n: np.asarray(d["components"]) for n, d in obj.items()})
            if key == "s2":
                value = coef * np.einsum("rk,ks->rs", ops["a"], ops["b"]) + ops["c"]
            elif key == "m":
                value = coef * ops["h"] - np.einsum("srut->rstu", ops["h"])
            else:
                value = coef * np.einsum(subs, *ops.values())
            return value, slots, 0

        return argv, compute, paths, want, "einsum"

    def _transform(self, size, k, out):
        ix = self.ix
        key = {"s": ("t27", "t216")[self.count % 2], "m": "t1296", "l": "t100k"}[size]
        dim, slots = _TENSORS[key]
        weight = self.kept[(key, k)]
        frame, tensor = self._path(f"frame{dim}_{k}"), self._path(f"{key}_{k}")
        argv = ["transform", "--frame", frame, "--input", tensor, "--out", out]

        def compute():
            return ix.transform(ix.load_tensor_document(tensor), ix.load_frame_document(frame))

        def want(decoded):
            c = np.asarray(decoded[0]["c"])
            arr = np.asarray(decoded[1]["components"])
            g = np.linalg.inv(c)
            up = [s == "u" for s in slots]
            return apply_law(arr, up, c, g, 1.0 / np.linalg.det(c), weight), slots, weight

        return argv, compute, [frame, tensor], want, "transform"

    def _metric_args(self, dim, k):
        """Half the requests give the metric, half a basis (dim 3 only)."""
        if dim == 3 and self.count % 2:
            path = self._path(f"basis3_{k}")
            return ["--basis", path], path, self.kept[("basis3", k)]
        path = self._path(f"metric{dim}_{k}")
        return ["--metric", path], path, self.kept[(f"metric{dim}", k)]

    def _vectors(self, family, size, k, out, nvec, dim):
        ix = self.ix
        flag, mpath, g = self._metric_args(dim, k)
        vecs = [self._path(f"vec{dim}_{k}_{v}") for v in range(nvec)]
        argv = [family, *vecs, *flag, "--out", out]

        def compute():
            m = (ix.metric_from_tensor(ix.load_tensor_document(mpath)) if flag[0] == "--metric"
                 else ix.metric_from_basis(ix.load_basis_document(mpath)))
            xs = [ix.load_tensor_document(p) for p in vecs]
            if family == "cross":
                return ix.cross(*xs, m)
            value = ix.inner(*xs, m) if family == "dot" else ix.triple(*xs, m)
            return ix.new_object(dim, (), 0, [value])

        return argv, compute, [mpath, *vecs], g

    def _dot(self, size, k, out):
        dim = (3, 5)[self.count % 2]
        argv, compute, loads, g = self._vectors("dot", size, k, out, 2, dim)

        def want(decoded):
            x, y = (np.asarray(d["components"]) for d in decoded[1:])
            return np.asarray(x @ g @ y), "", 0

        return argv, compute, loads, want, "other"

    def _cross(self, size, k, out):
        argv, compute, loads, g = self._vectors("cross", size, k, out, 2, 3)

        def want(decoded):
            x, y = (np.asarray(d["components"]) for d in decoded[1:])
            return np.cross(g @ x, g @ y) / math.sqrt(np.linalg.det(g)), "u", 0

        return argv, compute, loads, want, "other"

    def _triple(self, size, k, out):
        argv, compute, loads, g = self._vectors("triple", size, k, out, 3, 3)

        def want(decoded):
            rows = np.stack([np.asarray(d["components"]) for d in decoded[1:]])
            return np.asarray(math.sqrt(np.linalg.det(g)) * np.linalg.det(rows)), "", 0

        return argv, compute, loads, want, "other"

    def _boost(self, size, k, out, beta=None):
        ix = self.ix
        beta = float(self.rng.uniform(-0.95, 0.95)) if beta is None else beta
        argv = ["boost", "--beta", repr(beta), "--out", out]

        def compute():
            return ix.new_object(4, (ix.UP, ix.DOWN), 0, ix.boost(beta))

        def want(decoded):
            return boost_matrix(beta), "ud", 0

        return argv, compute, [], want, "other"

    # -- requests that must fail with exit code 1 or 2 ---------------------------

    def _bad_eval(self, stem, text, k, out, code):
        ix = self.ix
        path = self._path(f"{stem}_{k}")
        text = text.replace("C", repr(1 + self.count * 1e-6))
        argv = ["eval", text, "--bindings", path, "--out", out]

        def compute():
            b = ix.load_bindings([path])
            return ix.execute(ix.order_contractions(ix.validate(ix.parse(text), b)), b)

        return argv, compute, [], code, None

    def _bad_json(self, size, k, out):
        return self._bad_eval("bad_json", "y^r_s = C * bad^r_s", k, out, 1)

    def _bool_component(self, size, k, out):
        return self._bad_eval("bool_component", "y^r_s = C * bad^r_s", k, out, 1)

    def _nan_component(self, size, k, out):
        # NaN loads, so the request fails only when the result is emitted
        return self._bad_eval("nan_component", "y^r = C * bad^r", k, out, 1)

    def _transform_of(self, frame, tensor, out, code):
        ix = self.ix
        argv = ["transform", "--frame", frame, "--input", tensor, "--out", out]
        return argv, (lambda: ix.transform(ix.load_tensor_document(tensor),
                                           ix.load_frame_document(frame))), [], code, None

    def _bad_nesting(self, size, k, out):
        return self._transform_of(self._path(f"frame3_{k}"), self._path(f"bad_nesting_{k}"), out, 1)

    def _singular_frame(self, size, k, out):
        return self._transform_of(self._path(f"singular_frame_{k}"), self._path(f"t27_{k}"), out, 2)

    def _dot_of(self, metric, x, y, out, code):
        ix = self.ix
        argv = ["dot", x, y, "--metric", metric, "--out", out]

        def compute():
            m = ix.metric_from_tensor(ix.load_tensor_document(metric))
            value = ix.inner(ix.load_tensor_document(x), ix.load_tensor_document(y), m)
            return ix.new_object(3, (), 0, [value])

        return argv, compute, [], code, None

    def _unknown_key(self, size, k, out):
        return self._dot_of(self._path(f"metric3_{k}"), self._path(f"vec3_{k}_0"),
                            self._path(f"unknown_key_{k}"), out, 1)

    def _indefinite_metric(self, size, k, out):
        return self._dot_of(self._path(f"indefinite_metric_{k}"), self._path(f"vec3_{k}_0"),
                            self._path(f"vec3_{k}_1"), out, 2)

    def _superluminal(self, size, k, out):
        argv, compute, _, _, _ = self._boost(size, k, out, beta=float(self.rng.choice([1.0, -1.5])))
        return argv, compute, [], 2, None
