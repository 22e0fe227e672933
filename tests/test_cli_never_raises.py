"""Property: ``cli.run`` never raises, whatever documents and statements it
is given.  Every run exits 0, 1 or 2, and a non-zero exit prints exactly one
``error:`` line to stderr and nothing else there."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from indicial import exercises
from indicial.cli import run

_ORDINARY = st.one_of(st.integers(-3, 3), st.floats(-4.0, 4.0))
# magnitudes whose products and powers overflow or underflow float64, and
# non-finite values (json.dumps writes NaN and Infinity, which the document
# reader must refuse)
_EXTREME = st.one_of(
    st.sampled_from([1e-160, 1.2e154, -1.2e154, 1e200, 1e308, 5e-324, 10 ** 400]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def _number(draw):
    """Mostly an ordinary number; one in fifteen exercises a boundary."""
    return draw(_EXTREME if draw(st.integers(0, 14)) == 0 else _ORDINARY)


_NUMBERS = _number()

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _nest(flat, dim, rank):
    if rank == 0:
        return flat[0]
    step = dim ** (rank - 1)
    return [_nest(flat[k * step:(k + 1) * step], dim, rank - 1) for k in range(dim)]


@st.composite
def _flat(draw, size):
    """``size`` numbers; one list in eight is scaled so that sums and
    products of its entries leave float64."""
    flat = draw(st.lists(_NUMBERS, min_size=size, max_size=size))
    if draw(st.integers(0, 7)) == 0:
        scale = draw(st.sampled_from([1e-160, 1e154, 1e200, 1e308]))
        flat = [v * scale if isinstance(v, float) and abs(v) < 10 else v for v in flat]
    return flat


@st.composite
def _matrix(draw, dim):
    return _nest(draw(_flat(dim * dim)), dim, 2)


@st.composite
def _tensor_doc(draw, dim, slots=None):
    if slots is None:
        slots = draw(st.lists(st.sampled_from(["up", "down"]), max_size=3))
    size = dim ** len(slots)
    doc = {
        "dim": dim,
        "slots": slots,
        "weight": draw(st.integers(-3, 3)),
        "components": _nest(draw(_flat(size)), dim, len(slots)),
    }
    damage = draw(st.sampled_from(["none"] * 16 + ["drop", "extra", "dim", "any"]))
    if damage == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif damage == "extra":
        doc["extra"] = 1
    elif damage == "dim":
        doc["dim"] = draw(st.sampled_from([0, -1, dim + 1, 10 ** 6, 2.0, True, "3"]))
    elif damage == "any":
        return draw(_JSON)
    return doc


# well-formed statements with the slots each name needs
_TEMPLATES = [
    ("y^r = a^r_s x^s", {"a": ["up", "down"], "x": ["up"]}),
    ("s = x^r b_r", {"x": ["up"], "b": ["down"]}),
    ("y_r = 2 * b_r - b_r", {"b": ["down"]}),
    ("t^{rs} = x^r x^s", {"x": ["up"]}),
    ("c = a^r_r", {"a": ["up", "down"]}),
    ("y^r = a^r_1", {"a": ["up", "down"]}),
    ("d_{sr} = q_{rs}", {"q": ["down", "down"]}),
    ("z = 1e308 * x^r b_r", {"x": ["up"], "b": ["down"]}),
]


@st.composite
def _statement(draw):
    """A statement and the slots of the bindings it needs."""
    kind = draw(st.integers(0, 9))
    if kind < 5:
        return draw(st.sampled_from(_TEMPLATES))
    if kind == 5:
        text = draw(st.text(alphabet="abrsxy_^{}=+-*. 0123456789e", max_size=20))
        return text, {}

    def factor():
        name = draw(st.sampled_from(["a", "b", "x", "q"]))
        indices = draw(st.lists(
            st.tuples(st.sampled_from("^_"), st.sampled_from("rstu123")),
            min_size=1, max_size=3,
        ))
        return name + "".join(v + i for v, i in indices)

    terms = []
    for k in range(draw(st.integers(1, 3))):
        coefficient = draw(st.sampled_from(["", "2 * ", "1e308 * ", "0.5*"]))
        body = " ".join(factor() for _ in range(draw(st.integers(1, 3))))
        sign = draw(st.sampled_from([" + ", " - "])) if k else ""
        terms.append(sign + coefficient + body)
    target = draw(st.sampled_from(["", "y = ", "y^r = ", "y_r = ", "y^{rs} = "]))
    return target + "".join(terms), {}


@st.composite
def _metric_doc(draw, dim):
    """A tensor document that is a metric now and then."""
    if draw(st.booleans()):
        diagonal = draw(st.lists(st.floats(0.25, 4.0) | _NUMBERS, min_size=dim, max_size=dim))
        matrix = [[diagonal[r] if r == s else 0 for s in range(dim)] for r in range(dim)]
        return {"dim": dim, "slots": ["down", "down"], "components": matrix}
    return draw(_tensor_doc(dim, ["down", "down"]))


def _write(directory, name, obj):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


_CHECK_FILTERS = [c.check_id for c in exercises._REGISTRY] + ["ex0*", "det-*", "zzz"]


@st.composite
def _invocation(draw, directory):
    """An argument list for one subcommand, with its documents written."""
    command = draw(st.sampled_from([
        "eval", "transform", "verify-law", "dot", "cross", "triple",
        "boost", "rapidity", "check-exercises",
    ]))
    dim = draw(st.sampled_from([1, 2, 3, 3, 4]))
    out = draw(st.sampled_from([None, None, "out.json", "."]))
    out_args = [] if out is None else ["--out", os.path.join(directory, out)]
    missing = os.path.join(directory, "missing.json")

    def doc(name, strategy):
        if draw(st.integers(0, 29)) == 0:
            return missing
        return _write(directory, name, draw(strategy))

    if command == "eval":
        text, needs = draw(_statement())
        bindings = {name: draw(_tensor_doc(dim, slots)) for name, slots in needs.items()}
        bindings.update(draw(st.dictionaries(
            st.sampled_from(["a", "b", "x", "q", "1x"]), _tensor_doc(dim),
            max_size=0 if needs and draw(st.booleans()) else 3,
        )))
        mode = draw(st.sampled_from(["strict", "orthogonal"]))
        return ["eval", text, "--bindings",
                doc("vars.json", st.just(bindings)), "--mode", mode] + out_args
    if command in ("transform", "verify-law"):
        frame = doc("frame.json", st.fixed_dictionaries({"dim": st.just(dim), "c": _matrix(dim)}))
        old = doc("old.json", _tensor_doc(dim))
        weight = draw(st.one_of(st.none(), st.integers(-3, 3)))
        weight_args = [] if weight is None else [f"--weight={weight}"]
        if command == "transform":
            return ["transform", "--frame", frame, "--input", old] + weight_args + out_args
        new = doc("new.json", _tensor_doc(dim))
        tol = draw(st.sampled_from([1e-9, 0.0, 1.0, -1.0, float("nan"), float("inf")]))
        return (["verify-law", "--frame", frame, "--old", old, "--new", new,
                 f"--tol={tol}"] + weight_args)
    if command in ("dot", "cross", "triple"):
        count = 3 if command == "triple" else 2
        vectors = [doc(f"v{k}.json", _tensor_doc(dim, ["up"])) for k in range(count)]
        if draw(st.booleans()):
            geometry = ["--metric", doc("g.json", _metric_doc(dim))]
        else:
            geometry = ["--basis", doc("basis.json", st.fixed_dictionaries(
                {"dim": st.just(dim), "vectors": _matrix(dim)}))]
        return [command] + vectors + geometry + out_args
    if command in ("boost", "rapidity"):
        beta = draw(st.one_of(st.floats(-1.5, 1.5), st.floats()))
        # a separate value that starts with "-" must not read as an option
        beta_args = draw(st.sampled_from([[f"--beta={beta}"], ["--beta", str(beta)]]))
        return [command] + beta_args + out_args
    return [
        "check-exercises",
        f"--dim={draw(st.integers(-1, 8))}",
        f"--seed={draw(st.one_of(st.integers(-3, 9), st.integers(0, 2 ** 70)))}",
        "--filter", draw(st.sampled_from(_CHECK_FILTERS)),
    ] + draw(st.sampled_from([[], ["--json"]]))


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_cli_run_never_raises(data):
    with tempfile.TemporaryDirectory() as directory:
        argv = data.draw(_invocation(directory))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    elif argv[0] == "verify-law" and lines == []:
        # a violated law is a verdict on stdout, not an error
        assert code == 1 and out.getvalue().startswith("transform law violated")
    else:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
