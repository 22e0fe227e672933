"""Tensor/frame/basis document parsing, emission, and binding files."""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import read_array_per_item

from indicial import (
    DOWN,
    UP,
    DocumentError,
    SingularityError,
    TensorObject,
    format_tensor_document,
    load_basis_document,
    load_bindings,
    load_frame_document,
    load_tensor_document,
    new_object,
    parse_basis_document,
    parse_frame_document,
    parse_tensor_document,
)
from indicial import documents
from indicial.documents import _ORJSON_MAX_OPENERS, _read_array


def _awkward(rng, dim, rank):
    # values that do not survive short decimal round trips
    raw = rng.standard_normal((dim,) * rank)
    return raw * np.exp(rng.uniform(-40, 40, size=raw.shape))


@pytest.mark.parametrize("rank", [0, 1, 2, 3])
def test_round_trip_is_bit_exact(rank):
    rng = np.random.default_rng(rank)
    slots = tuple(rng.choice([UP, DOWN]) for _ in range(rank))
    t = new_object(3, slots, int(rng.integers(-2, 3)), _awkward(rng, 3, rank))
    text = format_tensor_document(t)
    back = parse_tensor_document(json.loads(text))
    assert back == t  # exact equality: dim, slots, weight, every bit


def test_emission_has_stable_key_order():
    t = new_object(2, (UP,), 0, [1.0, 2.0])
    text = format_tensor_document(t)
    assert text.index('"dim"') < text.index('"slots"') < text.index('"weight"')
    assert text.rstrip().endswith("}")
    assert json.loads(text) == {
        "dim": 2,
        "slots": ["up"],
        "weight": 0,
        "components": [1.0, 2.0],
    }
    text = format_tensor_document(new_object(2, (DOWN,), -1, [0.5, 3.0]))
    assert text.startswith('{"dim":2,"slots":["down"],"weight":-1,"components":')


def test_floats_are_written_as_their_shortest_round_trip_repr():
    # repr spells the last four 1e+300, 1e-05, 2.5e-07 and 1e+16
    values = [0.1, 1.0, -0.0, 5e-324, 1e300, 1e-05, 2.5e-07, 1e16]
    text = format_tensor_document(new_object(8, (UP,), 0, values))
    assert text.endswith('"components":[0.1,1.0,-0.0,5e-324,1e300,0.00001,2.5e-7,1e16]}')


def test_seventeen_digit_floats_round_trip():
    value = math.pi * 1e-7
    t = new_object(1, (), 0, [value])
    assert json.loads(format_tensor_document(t))["components"] == value


def test_rank_zero_components_is_a_bare_number():
    t = new_object(3, (), 1, [2.5])
    doc = json.loads(format_tensor_document(t))
    assert doc["components"] == 2.5
    assert parse_tensor_document(doc).as_scalar() == 2.5


def test_weight_defaults_to_zero_when_absent():
    t = parse_tensor_document({"dim": 2, "slots": ["up"], "components": [1, 2]})
    assert t.weight == 0


def test_integer_components_are_read_as_floats():
    t = parse_tensor_document({"dim": 2, "slots": ["up"], "components": [1, 2]})
    assert t.components.dtype == np.float64


@pytest.mark.parametrize(
    "doc",
    [
        [1, 2, 3],
        "not an object",
        {"dim": 2, "slots": ["up"], "components": [1, 2], "extra": 0},
        {"slots": ["up"], "components": [1, 2]},
        {"dim": 0, "slots": [], "components": 1.0},
        {"dim": 2.0, "slots": ["up"], "components": [1, 2]},
        {"dim": True, "slots": ["up"], "components": [1, 1]},
        {"dim": 2, "components": [1, 2]},
        {"dim": 2, "slots": "up", "components": [1, 2]},
        {"dim": 2, "slots": ["up", "sideways"], "components": [[1, 2], [3, 4]]},
        {"dim": 2, "slots": ["up"], "weight": 1.5, "components": [1, 2]},
        {"dim": 2, "slots": ["up"], "weight": True, "components": [1, 2]},
        {"dim": 2, "slots": ["up"]},
        {"dim": 2, "slots": [["up"]], "components": [1, 2]},
    ],
)
def test_malformed_documents_are_rejected(doc):
    with pytest.raises(DocumentError):
        parse_tensor_document(doc)


@pytest.mark.parametrize(
    "components",
    [
        [1.0, 2.0],  # too shallow for rank 2
        [[1.0, 2.0], [3.0]],  # short row
        [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],  # long outer level
        [[1.0, [2.0]], [3.0, 4.0]],  # list where a number belongs
        [[1.0, True], [3.0, 4.0]],  # bool is not a number
        [[1.0, "2"], [3.0, 4.0]],
        3.0,  # bare number only works at rank 0
    ],
)
def test_wrong_nesting_is_rejected(components):
    doc = {"dim": 2, "slots": ["up", "down"], "components": components}
    with pytest.raises(DocumentError):
        parse_tensor_document(doc)


def test_rank_zero_rejects_a_nested_list():
    with pytest.raises(DocumentError):
        parse_tensor_document({"dim": 3, "slots": [], "components": [3.0]})


def test_non_finite_components_cannot_be_emitted():
    deep = np.ones((2, 2, 2))
    deep[1, 0, 1] = -math.inf
    for components, named in [
        ([1.0, math.inf], "inf"),
        ([math.nan, 0.0], "nan"),
        ([math.nan, math.inf], "nan"),  # the first in C order
        ([[1.0, -math.inf], [math.nan, 1.0]], "-inf"),
        # orjson alone would write each of these as null
        (math.nan, "nan"),
        (deep, "-inf"),
    ]:
        t = new_object(2, (UP,) * np.ndim(components), 0, components)
        with pytest.raises(DocumentError, match=f"^cannot emit non-finite component {named}$"):
            format_tensor_document(t)
    # a raw object over a transposed view: inf comes first in memory, nan in C order
    t = TensorObject(2, (UP, DOWN), 0, np.array([[0.0, math.inf], [math.nan, 3.0]]).T)
    with pytest.raises(DocumentError, match="^cannot emit non-finite component nan$"):
        format_tensor_document(t)


@pytest.mark.parametrize(
    "dim, weight, key, value",
    [(1, 2**64, "weight", 2**64), (2**64, 0, "dim", 2**64),
     (1, -(2**63) - 1, "weight", -(2**63) - 1)],
    ids=["weight-2**64", "dim-2**64", "weight-below-int64"],
)
def test_integers_orjson_cannot_write_are_refused_at_emission(dim, weight, key, value):
    t = new_object(dim, (), weight, 1.0)
    message = f'cannot emit "{key}" {value}: outside the 64-bit integer range'
    with pytest.raises(DocumentError, match=f"^{message}$"):
        format_tensor_document(t)


@pytest.mark.parametrize("weight", [-(2**63), 2**64 - 1])
def test_the_ends_of_the_emittable_integer_range_round_trip(weight):
    t = new_object(2**64 - 1, (), weight, 0.5)
    back = json.loads(format_tensor_document(t))
    assert (back["dim"], back["weight"]) == (2**64 - 1, weight)


def test_load_reports_the_file_path(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"dim": 2}')
    with pytest.raises(DocumentError, match="bad.json"):
        load_tensor_document(str(p))


def test_load_rejects_invalid_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(DocumentError, match="not valid JSON"):
        load_tensor_document(str(p))


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(DocumentError, match="cannot read"):
        load_tensor_document(str(tmp_path / "absent.json"))


# frame documents


def test_frame_document_rows_are_the_upper_index():
    c = [[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    f = parse_frame_document({"dim": 3, "c": c})
    assert np.array_equal(f.c.components, np.array(c))
    # gamma is derived, never read from the file
    assert np.max(np.abs(f.gamma.components @ np.array(c) - np.eye(3))) <= 1e-12


def test_frame_document_refuses_a_supplied_inverse():
    doc = {"dim": 2, "c": [[1.0, 0.0], [0.0, 1.0]], "gamma": [[1, 0], [0, 1]]}
    with pytest.raises(DocumentError, match="unknown"):
        parse_frame_document(doc)


def test_singular_frame_document_fails_like_the_constructor(tmp_path):
    p = tmp_path / "flat.json"
    p.write_text(json.dumps({"dim": 2, "c": [[1.0, 2.0], [2.0, 4.0]]}))
    with pytest.raises(SingularityError):
        load_frame_document(str(p))


@pytest.mark.parametrize(
    "doc",
    [
        {"dim": 2, "c": [[1.0, 0.0]]},
        {"dim": 2, "c": [[1.0], [0.0]]},
        {"dim": 2, "c": [[1.0, 0.0], [0.0, "1"]]},
        {"dim": 2},
        {"c": [[1.0]]},
        [1, 2],
    ],
)
def test_malformed_frame_documents_are_rejected(doc):
    with pytest.raises(DocumentError):
        parse_frame_document(doc)


# basis documents


def test_basis_document_rows_become_upper_vectors():
    doc = {"dim": 2, "vectors": [[1.0, 1.0], [0.0, 2.0]]}
    basis = parse_basis_document(doc)
    assert len(basis) == 2
    assert all(b.slots == (UP,) for b in basis)
    assert basis[0].component([2]) == 1.0
    assert basis[1].component([2]) == 2.0


def test_basis_document_needs_dim_rows():
    with pytest.raises(DocumentError):
        parse_basis_document({"dim": 3, "vectors": [[1, 0, 0], [0, 1, 0]]})
    with pytest.raises(DocumentError, match="unknown"):
        parse_basis_document({"dim": 2, "vectors": [[1, 0], [0, 1]], "name": "e"})


def test_load_basis_document(tmp_path):
    p = tmp_path / "basis.json"
    p.write_text(json.dumps({"dim": 2, "vectors": [[1, 0], [0, 1]]}))
    assert len(load_basis_document(str(p))) == 2


# bindings files


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_bindings_named_map(tmp_path):
    path = _write(
        tmp_path,
        "vars.json",
        {
            "a": {"dim": 2, "slots": ["down"], "components": [1, 2]},
            "x": {"dim": 2, "slots": ["up"], "components": [3, 4]},
        },
    )
    bindings = load_bindings([path])
    assert set(bindings) == {"a", "x"}
    assert bindings["a"].slots == (DOWN,)
    assert bindings["x"].component([1]) == 3.0


def test_bare_document_binds_under_its_file_stem(tmp_path):
    path = _write(
        tmp_path, "x.json", {"dim": 2, "slots": ["up"], "components": [1, 1]}
    )
    bindings = load_bindings([path])
    assert list(bindings) == ["x"]


def test_bare_document_with_unusable_stem_is_rejected(tmp_path):
    path = _write(
        tmp_path, "2x.json", {"dim": 2, "slots": ["up"], "components": [1, 1]}
    )
    with pytest.raises(DocumentError, match="binding name"):
        load_bindings([path])


def test_bare_document_without_dim_is_read_as_a_tensor_document(tmp_path):
    path = _write(tmp_path, "x.json", {"slots": ["up"], "components": [1, 1]})
    with pytest.raises(DocumentError, match='"dim" must be an integer'):
        load_bindings([path])


def test_invalid_name_in_map_is_rejected(tmp_path):
    path = _write(
        tmp_path,
        "vars.json",
        {"bad name": {"dim": 2, "slots": ["up"], "components": [1, 1]}},
    )
    with pytest.raises(DocumentError, match="invalid binding name"):
        load_bindings([path])


def test_duplicate_names_across_files_are_rejected(tmp_path):
    doc = {"dim": 2, "slots": ["up"], "components": [1, 1]}
    first = _write(tmp_path, "x.json", doc)
    second = _write(tmp_path, "also.json", {"x": doc})
    with pytest.raises(DocumentError, match="duplicate"):
        load_bindings([first, second])


def test_bindings_merge_across_files(tmp_path):
    doc = {"dim": 2, "slots": ["up"], "components": [1, 1]}
    first = _write(tmp_path, "x.json", doc)
    second = _write(tmp_path, "more.json", {"y": doc, "z": doc})
    assert set(load_bindings([first, second])) == {"x", "y", "z"}


def test_bindings_file_must_be_an_object(tmp_path):
    path = _write(tmp_path, "arr.json", [1, 2, 3])
    with pytest.raises(DocumentError, match="must be a JSON object"):
        load_bindings([path])


# every number passes one reader

_BEYOND_FLOAT64 = "1" + "0" * 400
_BEYOND_DIGIT_LIMIT = "1" * 5000  # json refuses integers this long

_LOADERS = {
    "tensor": load_tensor_document,
    "bindings": lambda path: load_bindings([path]),
    "frame": load_frame_document,
    "basis": load_basis_document,
}


def _document_text(kind, number):
    """A dim-2 document of ``kind`` with one number spelled as ``number``."""
    if kind == "frame":
        return f'{{"dim": 2, "c": [[1, 0], [0, {number}]]}}'
    if kind == "basis":
        return f'{{"dim": 2, "vectors": [[1, 0], [0, {number}]]}}'
    return f'{{"dim": 2, "slots": ["up"], "components": [1, {number}]}}'


@pytest.mark.parametrize("kind", sorted(_LOADERS))
@pytest.mark.parametrize(
    "number, message",
    [
        (_BEYOND_FLOAT64, ': "{key}" holds an integer outside the float64 range'),
        ("-" + _BEYOND_FLOAT64, ': "{key}" holds an integer outside the float64 range'),
        (_BEYOND_DIGIT_LIMIT, " is not valid JSON: Exceeds the limit (4300 digits)"),
        ("NaN", ': "{key}" must be finite, got nan'),
        ("Infinity", ': "{key}" must be finite, got inf'),
        ("-Infinity", ': "{key}" must be finite, got -inf'),
        ("1e400", ': "{key}" must be finite, got inf'),  # parses as inf
    ],
    ids=["1e400-int", "-1e400-int", "5000-digits", "nan", "inf", "-inf", "1e400"],
)
def test_numbers_float64_cannot_hold_are_rejected_at_load(tmp_path, kind, number, message):
    # orjson refuses each of these texts, and json's reading is named
    p = tmp_path / "doc.json"
    p.write_text(_document_text(kind, number))
    key = {"frame": "c", "basis": "vectors"}.get(kind, "components")
    with pytest.raises(DocumentError) as caught:
        _LOADERS[kind](str(p))
    assert str(caught.value).startswith(str(p) + message.format(key=key))


@pytest.mark.parametrize(
    "value", [10**400, -(10**400), math.nan, -math.inf], ids=["big", "-big", "nan", "-inf"]
)
def test_parse_rejects_numbers_float64_cannot_hold(value):
    with pytest.raises(DocumentError):
        parse_tensor_document({"dim": 1, "slots": [], "components": value})
    with pytest.raises(DocumentError):
        parse_frame_document({"dim": 2, "c": [[1, 0], [0, value]]})
    with pytest.raises(DocumentError):
        parse_basis_document({"dim": 2, "vectors": [[1, 0], [value, 1]]})


def test_numpy_floats_are_still_numbers():
    t = parse_tensor_document(
        {"dim": 2, "slots": ["up"], "components": [np.float64(0.5), 2]}
    )
    assert t.components.tolist() == [0.5, 2.0]


def test_declared_dim_is_checked_against_the_components_before_allocating():
    # np.zeros((10**7,) * 3) would refuse this shape with a ValueError
    doc = {"dim": 10_000_000, "slots": ["up", "up", "up"], "components": []}
    with pytest.raises(DocumentError, match="length 10000000 at depth 0"):
        parse_tensor_document(doc)


@pytest.mark.parametrize(
    "raw", [b'{"dim": 2, "slots": ["\xff"]}', b"[" * 100_000], ids=["utf8", "deep"]
)
def test_load_rejects_undecodable_text(tmp_path, raw):
    p = tmp_path / "odd.json"
    p.write_bytes(raw)
    with pytest.raises(DocumentError, match="odd.json is not valid JSON"):
        load_tensor_document(str(p))


def test_more_slots_than_the_rank_cap_are_refused_before_the_components_are_read():
    # 65 slots at dim 1: numpy's reshape would raise its own ValueError
    def doc(rank):
        nested = json.loads("[" * rank + "2.5" + "]" * rank)
        return {"dim": 1, "slots": ["up"] * rank, "components": nested}

    for rank in (33, 65):
        message = f'"slots" holds {rank} slots, more than the 32 allowed'
        with pytest.raises(DocumentError, match=f"^{message}$"):
            parse_tensor_document(doc(rank))
    assert parse_tensor_document(doc(32)).rank == 32


# the decoder: orjson below the opener count, json for the rest

def test_a_shallow_document_over_the_opener_count_reads_through_json(tmp_path, monkeypatch):
    # dim 2, rank 14: 2**14 - 1 lists and 2**14 components
    t = new_object(2, (UP,) * 14, 0, _awkward(np.random.default_rng(9), 2, 14))
    text = format_tensor_document(t)
    assert text.count("[") + 3 * text.count("{") >= _ORJSON_MAX_OPENERS
    p = tmp_path / "wide.json"
    p.write_text(text)
    monkeypatch.setattr(orjson, "loads", None)  # json reads it, or this fails
    assert load_tensor_document(str(p)).components.tobytes() == t.components.tobytes()


@pytest.mark.parametrize("key", ["dim", "weight"])
@pytest.mark.parametrize("value", [2**64, -(2**63) - 1])
def test_a_dim_or_weight_beyond_64_bits_is_read_as_a_float_and_refused(tmp_path, key, value):
    doc = {"dim": 1, "slots": [], "weight": 0, "components": 1.0}
    doc[key] = value
    p = tmp_path / "big.json"
    p.write_text(json.dumps(doc))
    message = f'big.json: "{key}" must be an integer, got {float(value)!r}'
    with pytest.raises(DocumentError, match=re.escape(message) + "$"):
        load_tensor_document(str(p))


def test_components_beyond_64_bits_read_as_numpys_cast_of_the_integer(tmp_path):
    # a tie that rounds to even, one just past it, and far beyond 64 bits
    values = [2**64, 2**64 + 1, 2**70 + 2**17, 2**70 + 2**17 + 1, -(2**63) - 1,
              10**308 + 1, 3**600]
    p = tmp_path / "big.json"
    p.write_text(json.dumps({"dim": len(values), "slots": ["up"], "components": values}))
    got = load_tensor_document(str(p)).components
    assert got.tobytes() == np.array(values, dtype=np.float64).tobytes()


def _orjson_limits_depth():
    """Whether orjson refuses deep nesting (later versions stop at 1,024
    levels) instead of recursing without a limit, as 3.8 does."""
    try:
        orjson.loads(b"[" * 2000 + b"]" * 2000)
    except orjson.JSONDecodeError:
        return True
    return False


_CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(documents.__file__).parents[1]))


def _child(code, *args):
    """Run ``code`` in a new interpreter, so that a crash fails the test
    instead of ending pytest."""
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=_CHILD_ENV, timeout=120)


_DEEP_LOAD = """
import sys
from indicial import DocumentError, load_tensor_document
from indicial.cli import run
path = sys.argv[1]
try:
    load_tensor_document(path)
except DocumentError as exc:
    print(str(exc).removeprefix(path))
print(run(["transform", "--frame", path, "--input", path]))
"""


@pytest.mark.parametrize(
    "opener, closer", [("[", "]"), ('{"a": ', "}")], ids=["array", "object"]
)
def test_a_valid_document_nested_200000_deep_is_not_valid_json(tmp_path, opener, closer):
    # well past the depth at which orjson's unbounded recursion overflows
    # the 8 MB main stack (150,000 arrays), and json refuses it
    p = tmp_path / "deep.json"
    p.write_text(opener * 200_000 + "1" + closer * 200_000)
    done = _child(_DEEP_LOAD, str(p))
    assert done.returncode == 0, done.stderr
    message, code = done.stdout.splitlines()
    assert message.startswith(" is not valid JSON: maximum recursion depth exceeded")
    assert code == "1"
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


_THREAD_DECODE = """
import sys, threading
import orjson
from indicial.documents import _decode

opener, closer = sys.argv[1], sys.argv[2]


def text(depth):
    return (opener * depth + "1" + closer * depth).encode()


class Handed(Exception):
    pass


def handed_to_orjson(depth):
    def loads(data):
        raise Handed
    real, orjson.loads = orjson.loads, loads
    try:
        _decode(text(depth))
    except Handed:
        return True
    except RecursionError:
        pass
    finally:
        orjson.loads = real
    return False


# the deepest text that the decoder hands to orjson
low, high = 0, 200_000
while high - low > 1:
    mid = (low + high) // 2
    low, high = (mid, high) if handed_to_orjson(mid) else (low, mid)


def decode():
    try:
        value = _decode(text(low))
    except RecursionError:
        # an orjson with a depth limit refuses the text, and so does json
        print(low, "refused")
        return
    while not isinstance(value, int):
        value = value[0] if isinstance(value, list) else value["a"]
    print(low, value)


threading.stack_size(1 << 20)
thread = threading.Thread(target=decode)
thread.start()
thread.join()
"""


@pytest.mark.parametrize(
    "opener, closer",
    [("[", "]"), ('{"a":', "}"), ('[{"a":', "}]")],
    ids=["array", "object", "mixed"],
)
def test_the_deepest_text_the_guard_hands_to_orjson_decodes_on_a_1_mib_thread(opener, closer):
    # orjson's recursion crashes a 1 MiB thread at about 16,300 arrays or
    # 6,550 objects; json could not read these at all (recursion limit)
    done = _child(_THREAD_DECODE, opener, closer)
    assert done.returncode == 0, done.stderr
    depth, value = done.stdout.split()
    assert value == ("refused" if _orjson_limits_depth() else "1")
    if opener == "[":
        # the largest benchmark document holds about 12,230 lists
        assert int(depth) >= 12_230


def test_negative_zero_round_trips():
    t = new_object(2, (UP,), 0, [-0.0, 0.0])
    back = parse_tensor_document(json.loads(format_tensor_document(t)))
    assert back.components.tobytes() == t.components.tobytes()


# properties

_BIG_INTS = st.builds(
    lambda digits, sign: sign * 10**digits,
    st.integers(300, 420),
    st.sampled_from([1, -1]),
)
_NUMBERS = st.integers() | _BIG_INTS | st.floats()
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
_KEYS = {
    parse_tensor_document: ("dim", "slots", "weight", "components"),
    parse_frame_document: ("dim", "c"),
    parse_basis_document: ("dim", "vectors"),
}


@st.composite
def _near_valid_documents(draw, parse):
    """Documents of the right shape with a few of their parts spoiled."""
    dim = draw(st.integers(1, 3))
    rank = draw(st.integers(0, 3)) if parse is parse_tensor_document else 2
    leaves = _NUMBERS | _JSON_VALUES if draw(st.booleans()) else _NUMBERS

    def nest(depth):
        if depth == rank:
            return draw(leaves)
        length = draw(st.sampled_from([dim, dim, dim, dim - 1, dim + 1]))
        return [nest(depth + 1) for _ in range(length)]

    doc = {
        "dim": dim,
        "slots": draw(st.lists(st.sampled_from(["up", "down"]), min_size=rank, max_size=rank)),
        "weight": draw(st.integers(-2, 2)),
    }
    doc = {key: doc.get(key, nest(0)) for key in _KEYS[parse]}
    for key in draw(st.sets(st.sampled_from(_KEYS[parse] + ("extra",)), max_size=2)):
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(_JSON_VALUES)
    return doc


@st.composite
def _parse_inputs(draw):
    parse = draw(st.sampled_from(sorted(_KEYS, key=lambda f: f.__name__)))
    return parse, draw(_JSON_VALUES | _near_valid_documents(parse))


@settings(max_examples=500, deadline=None)
@given(_parse_inputs())
def test_any_json_value_loads_or_raises_document_error(case):
    parse, value = case
    allowed = (DocumentError, SingularityError) if parse is parse_frame_document else DocumentError
    try:
        parse(value)
    except allowed:
        pass


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_valid_documents_round_trip_bit_exactly(data):
    dim = data.draw(st.integers(1, 4))
    slots = data.draw(st.lists(st.sampled_from([UP, DOWN]), max_size=4))
    values = data.draw(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=dim ** len(slots),
            max_size=dim ** len(slots),
        )
    )
    t = new_object(dim, slots, data.draw(st.integers(-3, 3)), values)
    back = parse_tensor_document(json.loads(format_tensor_document(t)))
    assert back == t
    assert back.components.tobytes() == t.components.tobytes()


@st.composite
def _emitted_objects(draw):
    """Objects of rank 0-3 over any finite floats, some as raw objects over a
    transposed view, which orjson cannot write from the buffer."""
    dim, rank = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    values = draw(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=dim**rank,
            max_size=dim**rank,
        )
    )
    slots = tuple(draw(st.lists(st.sampled_from([UP, DOWN]), min_size=rank, max_size=rank)))
    arr = np.array(values).reshape((dim,) * rank)
    if rank >= 2 and draw(st.booleans()):
        return TensorObject(dim, slots, 0, arr.T)
    return new_object(dim, slots, draw(st.integers(-3, 3)), arr)


@settings(max_examples=500, deadline=None)
@given(_emitted_objects())
@example(new_object(5, (UP,), 0, [5e-324, -0.0, 1.7976931348623157e308, -1.7976931348623157e308,
                                  -2.2250738585072014e-308]))
def test_emitted_floats_read_back_bit_exactly_with_json(t):
    doc = json.loads(format_tensor_document(t))
    assert doc["dim"] == t.dim and doc["weight"] == t.weight
    assert doc["slots"] == [s.value for s in t.slots]
    assert np.array(doc["components"], dtype=np.float64).tobytes() == t.components.tobytes()


# the reader against the per-item reference


class _Row(list):
    """A list subclass, which both readers accept as a nesting level."""


_READER_NUMBERS = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.integers(-(10**6), 10**6)
    | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
)
_READER_ODD_LEAVES = (
    st.booleans()
    | st.text(max_size=3)
    | st.none()
    | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
    | st.lists(st.integers(), max_size=3)
    | st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan), np.float64(-math.inf)])
    | _BIG_INTS
)


@st.composite
def _reader_inputs(draw):
    """Nested lists of the declared shape, some of whose leaves may be odd,
    with up to three parts spoiled: a leaf made odd or nested one level
    deeper, or a level made a leaf, one item longer or shorter, or a list
    subclass."""
    dim = draw(st.integers(1, 4))
    rank = draw(st.integers(0, 4))
    odd_percent = draw(st.sampled_from([0, 0, 2, 20]))

    def nest(depth):
        if depth == rank:
            odd = draw(st.integers(0, 99)) < odd_percent
            return draw(_READER_ODD_LEAVES if odd else _READER_NUMBERS)
        return [nest(depth + 1) for _ in range(dim)]

    def spoil(node, depth):
        if depth == rank or not isinstance(node, list):
            return draw(_READER_ODD_LEAVES | st.lists(_READER_NUMBERS, max_size=dim + 1))
        kind = draw(st.sampled_from(["leaf", "longer", "shorter", "subclass"]))
        if kind == "leaf":
            return draw(_READER_NUMBERS | _READER_ODD_LEAVES)
        if kind == "longer":
            return node + [nest(depth + 1)]
        if kind == "shorter":
            return node[:-1]
        return _Row(node)

    root = [nest(0)]
    for _ in range(draw(st.integers(0, 3))):
        parent, at, depth = root, 0, 0
        target = draw(st.integers(0, rank))
        while depth < target and isinstance(parent[at], list) and parent[at]:
            parent, at = parent[at], draw(st.integers(0, len(parent[at]) - 1))
            depth += 1
        parent[at] = spoil(parent[at], depth)
    return root[0], dim, rank


def _outcome(read, node, dim, rank):
    try:
        arr = read(node, dim, rank, '"components"')
    except DocumentError as exc:
        return "error", str(exc)
    return "ok", arr.shape, arr.tobytes()


@settings(max_examples=500, deadline=None)
@given(_reader_inputs())
def test_the_reader_matches_the_per_item_reference(case):
    node, dim, rank = case
    assert _outcome(_read_array, node, dim, rank) == _outcome(read_array_per_item, node, dim, rank)


def test_a_large_document_round_trips_through_both_readers():
    t = new_object(10, (UP, DOWN, UP, UP, DOWN), 0, _awkward(np.random.default_rng(5), 10, 5))
    obj = json.loads(format_tensor_document(t))
    assert parse_tensor_document(obj).components.tobytes() == t.components.tobytes()
    assert read_array_per_item(obj["components"], 10, 5, "c").tobytes() == t.components.tobytes()


def test_a_bool_in_the_deepest_last_row_is_named():
    components = np.zeros((10,) * 5).tolist()
    components[-1][-1][-1][-1][3] = True
    components[-1][-1][-1][-1][-1] = "1.5"  # later in C order, so not named
    doc = {"dim": 10, "slots": ["up"] * 5, "components": components}
    message = '"components" must hold numbers at depth 5, got True'
    with pytest.raises(DocumentError, match=f"^{message}$"):
        parse_tensor_document(doc)
    assert _outcome(read_array_per_item, components, 10, 5) == ("error", message)


# the decoder against json.load(open(path, encoding="utf-8"))

def _reference_load(path, parse):
    """``_load`` with ``json.load`` over the file opened as UTF-8 text in
    place of the decoder, giving the same messages."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return parse(obj)
    except DocumentError as exc:
        raise DocumentError(f"{path}: {exc}") from None


_DECODER_KINDS = {
    "tensor": (load_tensor_document, parse_tensor_document),
    "frame": (load_frame_document, parse_frame_document),
    "basis": (load_basis_document, parse_basis_document),
    "bindings": (lambda path: load_bindings([path]),
                 lambda obj, path: documents._parse_bindings(obj, path)),
}


def _fingerprint(value):
    """Types, signatures and float bits of what a loader returned."""
    if isinstance(value, TensorObject):
        return (type(value.dim), value.dim, value.slots, type(value.weight), value.weight,
                value.components.shape, value.components.tobytes())
    if isinstance(value, list):
        return [_fingerprint(v) for v in value]
    if isinstance(value, dict):
        return {k: _fingerprint(v) for k, v in value.items()}
    return _fingerprint(value.c), _fingerprint(value.gamma), value.det_gamma


def _decoder_outcome(load, path):
    try:
        return "ok", _fingerprint(load(path))
    except (DocumentError, SingularityError) as exc:
        return type(exc).__name__, str(exc)


_DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=40)
_NUMBER_SPELLINGS = st.one_of(
    # a mantissa of up to 40 digits, a fraction and an exponent within +-350
    st.builds(
        lambda sign, whole, fraction, e, exponent: (
            sign + whole.lstrip("0").rjust(1, "0") + fraction + e + exponent),
        st.sampled_from(["", "-"]),
        _DIGITS,
        st.sampled_from([""]) | _DIGITS.map(lambda d: "." + d),
        st.sampled_from(["", "e", "E", "e+", "e-", "E-"]),
        st.integers(0, 350).map(str),
    ).map(lambda text: text + "0" if text[-1] in "eE+-" else text),
    st.sampled_from([
        "-0", "0", "-0.0", "0e0", "NaN", "Infinity", "-Infinity", "1e400", "-1e400",
        "1e-400", "-1e-400", "4.9e-324", "2.4703282292062327e-324", "2.2250738585072011e-308",
        "2.2250738585072014e-308", "1.7976931348623157e308", "1.7976931348623159e308",
    ]),
    # integers around 2**53, 2**63 and 2**64, of either sign
    st.builds(lambda base, offset, sign: str(sign * (base + offset)),
              st.sampled_from([2**53, 2**63, 2**64]), st.integers(-3, 3),
              st.sampled_from([1, -1])),
)


_INSERTED = [bytes([c]) for c in b'[]{},:" 0-.eE\r\nx']


@st.composite
def _decoder_texts(draw):
    """A document text of one kind with its numbers spelled many ways, now
    and then with CRLF line ends, a BOM, an invalid UTF-8 byte, a lone
    surrogate or one character inserted or deleted."""
    kind = draw(st.sampled_from(sorted(_DECODER_KINDS)))
    dim = draw(st.integers(1, 3))
    rank = draw(st.integers(0, 2)) if kind in ("tensor", "bindings") else 2

    def nest(depth):
        if depth == rank:
            return draw(_NUMBER_SPELLINGS)
        return "[" + ", ".join(nest(depth + 1) for _ in range(dim)) + "]"

    spellings = st.sampled_from(['"up"', '"down"', '"\\ud800"'])
    slots = ", ".join(draw(spellings) for _ in range(rank))
    if kind == "frame":
        text = f'{{"dim": {dim},\n "c": {nest(0)}}}'
    elif kind == "basis":
        text = f'{{"dim": {dim},\n "vectors": {nest(0)}}}'
    else:
        weight = draw(st.integers(-3, 3))
        text = (f'{{"dim": {dim},\n "slots": [{slots}],\n "weight": {weight},\n'
                f' "components": {nest(0)}}}')
        if kind == "bindings" and draw(st.booleans()):
            text = f'{{"x": {text},\n "y": {text}}}'
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    data = text.encode("utf-8")
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["insert", "delete", "bom", "xff"]))
        if edit == "insert":
            data = data[:at] + draw(st.sampled_from(_INSERTED)) + data[at:]
        elif edit == "delete":
            data = data[:at] + data[at + 1:]
        elif edit == "bom":
            data = b"\xef\xbb\xbf" + data
        else:
            data = data[:at] + b"\xff" + data[at:]
    return kind, data


@settings(max_examples=500, deadline=None)
@given(_decoder_texts())
@example(("tensor", b'{"dim": 2, "slots": ["up"],\r\n"components": [1,\r\n 2 x]}'))
@example(("tensor", b'\xef\xbb\xbf{"dim": 1, "slots": [], "components": 1}'))
@example(("tensor", b'{"dim": 1, "slots": ["\\ud800"], "components": [1]}'))
@example(("frame", b'{"dim": 1, "c": [[1e400]]}'))
@example(("basis", b'{"dim": 1, "vectors": [[18446744073709551617]]}'))
def test_the_decoder_reads_every_text_as_json_load_does(case):
    kind, data = case
    load, parse = _DECODER_KINDS[kind]
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "doc.json")
        with open(path, "wb") as fh:
            fh.write(data)
        reference = (lambda obj: parse(obj, path)) if kind == "bindings" else parse
        assert _decoder_outcome(load, path) == _decoder_outcome(
            lambda p: _reference_load(p, reference), path)
