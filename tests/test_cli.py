"""End-to-end command-line tests: documents in, documents out, exit codes."""

import dataclasses
import fnmatch
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import indicial
from indicial import exercises
from indicial.cli import run
from indicial.documents import parse_tensor_document
from indicial.errors import ShapeError


def _invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _vec(values, slot="up"):
    return {"dim": len(values), "slots": [slot], "components": list(values)}


@pytest.fixture
def identity_metric(tmp_path):
    return _write(
        tmp_path,
        "g.json",
        {
            "dim": 3,
            "slots": ["down", "down"],
            "components": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        },
    )


# eval


def test_eval_contraction(tmp_path, capsys):
    bindings = _write(
        tmp_path,
        "vars.json",
        {"a": _vec([1, 2, 3], "down"), "x": _vec([1, 1, 1], "up")},
    )
    code, out, err = _invoke(capsys, "eval", "--bindings", bindings, "s = a_r x^r")
    assert code == 0 and err == ""
    assert parse_tensor_document(json.loads(out)).as_scalar() == 6.0


def test_eval_matrix_vector(tmp_path, capsys):
    bindings = _write(
        tmp_path,
        "vars.json",
        {
            "a": {
                "dim": 2,
                "slots": ["up", "down"],
                "components": [[1, 2], [3, 4]],
            },
            "x": _vec([1, 1]),
        },
    )
    code, out, _ = _invoke(capsys, "eval", "--bindings", bindings, "y^r = a^r_s x^s")
    assert code == 0
    assert json.loads(out)["components"] == [3.0, 7.0]


def test_eval_mode_orthogonal_accepts_what_strict_refuses(tmp_path, capsys):
    bindings = _write(
        tmp_path,
        "vars.json",
        {"x": _vec([1, 2, 3], "down"), "y": _vec([1, 1, 1], "down")},
    )
    code, _, err = _invoke(capsys, "eval", "--bindings", bindings, "s = x_r y_r")
    assert code == 1 and "error:" in err
    code, out, _ = _invoke(
        capsys, "eval", "--bindings", bindings, "--mode", "orthogonal", "s = x_r y_r"
    )
    assert code == 0
    assert parse_tensor_document(json.loads(out)).as_scalar() == 6.0


def test_eval_syntax_error_names_the_column(tmp_path, capsys):
    bindings = _write(tmp_path, "vars.json", {"x": _vec([1, 1])})
    code, _, err = _invoke(capsys, "eval", "--bindings", bindings, "s = x^r x*")
    assert code == 1 and "column" in err


def test_eval_unbound_name(tmp_path, capsys):
    bindings = _write(tmp_path, "vars.json", {"x": _vec([1, 1])})
    code, _, err = _invoke(capsys, "eval", "--bindings", bindings, "s = q_r x^r")
    assert code == 1 and "q" in err


def test_eval_merges_repeated_bindings_flags(tmp_path, capsys):
    first = _write(tmp_path, "a.json", _vec([2, 0, 0], "down"))
    second = _write(tmp_path, "x.json", _vec([1, 1, 1]))
    code, out, _ = _invoke(
        capsys, "eval", "--bindings", first, "--bindings", second, "s = a_r x^r"
    )
    assert code == 0
    assert parse_tensor_document(json.loads(out)).as_scalar() == 2.0


def test_eval_writes_out_file(tmp_path, capsys):
    bindings = _write(tmp_path, "vars.json", {"x": _vec([1, 2])})
    target = tmp_path / "result.json"
    code, out, _ = _invoke(
        capsys, "eval", "--bindings", bindings, "--out", str(target), "y^r = x^r"
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["components"] == [1.0, 2.0]


# transform / verify-law


@pytest.fixture
def stretch_frame(tmp_path):
    return _write(
        tmp_path,
        "frame.json",
        {"dim": 3, "c": [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
    )


def test_transform_lower_delta_through_stretch(tmp_path, capsys, stretch_frame):
    doc = _write(
        tmp_path,
        "delta.json",
        {
            "dim": 3,
            "slots": ["down", "down"],
            "components": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        },
    )
    code, out, _ = _invoke(
        capsys, "transform", "--frame", stretch_frame, "--input", doc
    )
    assert code == 0
    got = np.array(json.loads(out)["components"])
    assert np.allclose(got, np.diag([0.25, 1.0, 1.0]), atol=1e-15)


def test_transform_weight_override(tmp_path, capsys, stretch_frame):
    doc = _write(
        tmp_path, "s.json", {"dim": 3, "slots": [], "weight": 0, "components": 3.0}
    )
    code, out, _ = _invoke(
        capsys,
        "transform", "--frame", stretch_frame, "--input", doc, "--weight", "1",
    )
    assert code == 0
    emitted = json.loads(out)
    assert emitted["weight"] == 1
    assert emitted["components"] == 1.5  # det gamma = 1/2


def test_transform_singular_frame_exits_two(tmp_path, capsys):
    frame = _write(tmp_path, "bad.json", {"dim": 2, "c": [[1.0, 2.0], [2.0, 4.0]]})
    doc = _write(tmp_path, "x.json", _vec([1, 0]))
    code, _, err = _invoke(capsys, "transform", "--frame", frame, "--input", doc)
    assert code == 2 and "error:" in err


def test_transform_frame_with_overflowing_determinant_exits_two(tmp_path, capsys):
    # det = 1e400 is beyond float64; the singularity cutoff saturates to inf
    frame = _write(tmp_path, "big.json", {"dim": 2, "c": [[1e200, 0], [0, 1e200]]})
    doc = _write(tmp_path, "x.json", _vec([1, 0]))
    code, out, err = _invoke(capsys, "transform", "--frame", frame, "--input", doc)
    assert code == 2 and out == "" and "|det| = inf" in err



def test_transform_frame_whose_det_gamma_overflows_exits_two(tmp_path):
    # det(gamma) = 1e320: the frame used to load, and a weight-1 scalar then
    # failed at emission ("cannot emit non-finite component inf", exit 1)
    frame = _write(tmp_path, "f.json", {"dim": 2, "c": [[1e-160, 0], [0, 1e-160]]})
    doc = _write(tmp_path, "s.json", {"dim": 2, "slots": [], "weight": 1, "components": [1.0]})
    env = dict(os.environ, PYTHONPATH=str(Path(indicial.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "indicial", "transform", "--frame", frame,
                           "--input", doc], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "det(gamma)" in done.stderr


def test_transform_whose_determinant_power_overflows_exits_two(tmp_path):
    # det(gamma) = 1e-308 is finite, but its -2nd power is not: the scalar
    # used to transform to inf and fail at emission (exit 1)
    frame = _write(tmp_path, "f.json", {"dim": 2, "c": [[1e154, 0], [0, 1e154]]})
    doc = _write(tmp_path, "s.json", {"dim": 2, "slots": [], "weight": -2, "components": 1.0})
    env = dict(os.environ, PYTHONPATH=str(Path(indicial.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "indicial", "transform", "--frame", frame,
                           "--input", doc], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "det(gamma) ** -2" in done.stderr


def test_transform_of_more_slots_than_the_rank_cap_exits_one(tmp_path, capsys):
    # 65 slots at dim 1 used to reach numpy's reshape, a ValueError traceback
    frame = _write(tmp_path, "f.json", {"dim": 1, "c": [[2.0]]})
    doc = _write(tmp_path, "t.json", {"dim": 1, "slots": ["up"] * 65,
                                      "components": json.loads("[" * 65 + "1" + "]" * 65)})
    code, out, err = _invoke(capsys, "transform", "--frame", frame, "--input", doc)
    assert code == 1 and out == ""
    assert err == f'error: {doc}: "slots" holds 65 slots, more than the 32 allowed\n'


def test_a_weight_beyond_64_bits_is_refused_at_emission(tmp_path, capsys):
    # orjson writes no integer outside [-2**63, 2**64): the weights of two
    # 2**63 factors add to 2**64, and --weight can name any integer
    x = _write(tmp_path, "x.json", {"dim": 2, "slots": ["up"], "weight": 2**63,
                                    "components": [1.0, 2.0]})
    frame = _write(tmp_path, "f.json", {"dim": 2, "c": [[1, 0], [0, 1]]})
    message = 'error: cannot emit "weight" 18446744073709551616: outside the 64-bit integer range\n'
    for argv in (["eval", "t^{rs} = x^r x^s", "--bindings", x],
                 ["transform", "--frame", frame, "--input", x, f"--weight={2**64}"]):
        assert _invoke(capsys, *argv) == (1, "", message)


def test_transform_whose_determinant_power_underflows_exits_two(tmp_path, capsys):
    # det(gamma) = 0.25, and 0.25 ** 1100 is 0.0 in float64: the vector
    # used to transform to [0, 0] with exit 0
    frame = _write(tmp_path, "f.json", {"dim": 2, "c": [[2.0, 0.0], [0.0, 2.0]]})
    doc = _write(tmp_path, "x.json",
                 {"dim": 2, "slots": ["up"], "weight": 1100, "components": [1, 3]})
    code, out, err = _invoke(capsys, "transform", "--frame", frame, "--input", doc)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "det(gamma) ** 1100" in err


def test_transform_at_a_huge_weight_finishes(tmp_path):
    # the power det(gamma) ** weight takes O(log weight) products
    frame = _write(tmp_path, "f.json", {"dim": 4, "c": indicial.boost(0.3).tolist()})
    doc = _write(tmp_path, "x.json",
                 {"dim": 4, "slots": ["up"], "weight": 10**12, "components": [1, 0, 0, 0]})
    env = dict(os.environ, PYTHONPATH=str(Path(indicial.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "indicial", "transform", "--frame", frame,
                           "--input", doc], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["weight"] == 10**12


@pytest.mark.parametrize("command", ["eval", "transform", "dot"])
def test_a_result_that_overflows_prints_only_the_error_line(tmp_path, capsys, command):
    # numpy's overflow warnings used to reach stderr ahead of the error
    big = _write(tmp_path, "big.json", _vec([1e308, 1e308]))
    if command == "eval":
        argv = ["eval", "--bindings", big, "y^r = 2 * big^r", "--out", str(tmp_path / "y.json")]
    elif command == "transform":
        frame = _write(tmp_path, "f.json", {"dim": 2, "c": [[2, 0], [0, 2]]})
        argv = ["transform", "--frame", frame, "--input", big]
    else:
        metric = _write(tmp_path, "g.json", {"dim": 2, "slots": ["down", "down"],
                                             "components": [[1, 0], [0, 1]]})
        argv = ["dot", big, big, "--metric", metric]
    code, out, err = _invoke(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: cannot emit non-finite component inf\n"
    assert not (tmp_path / "y.json").exists()  # refused before --out is opened

_TEXT_WITH_NUMBER = {
    "tensor": '{{"dim": 2, "slots": ["up"], "components": [1, {}]}}',
    "frame": '{{"dim": 2, "c": [[1, 0], [0, {}]]}}',
    "basis": '{{"dim": 2, "vectors": [[1, 0], [0, {}]]}}',
}


@pytest.mark.parametrize("kind", sorted(_TEXT_WITH_NUMBER))
@pytest.mark.parametrize(
    "number",
    # an Infinity frame used to pass the reader and exit 2 as singular
    ["1" + "0" * 400, "1" * 5000, "NaN", "Infinity"],
    ids=["1e400-int", "5000-digits", "nan", "inf"],
)
def test_numbers_float64_cannot_hold_exit_one(tmp_path, capsys, kind, number):
    files = {
        "tensor": _write(tmp_path, "x.json", _vec([1, 0])),
        "frame": _write(tmp_path, "f.json", {"dim": 2, "c": [[2, 0], [0, 1]]}),
        "basis": _write(tmp_path, "b.json", {"dim": 2, "vectors": [[1, 0], [0, 1]]}),
    }
    files[kind] = str(tmp_path / "bad.json")
    (tmp_path / "bad.json").write_text(_TEXT_WITH_NUMBER[kind].format(number))
    if kind == "basis":
        argv = ["dot", files["tensor"], files["tensor"], "--basis", files["basis"]]
    else:
        argv = ["transform", "--frame", files["frame"], "--input", files["tensor"]]
    code, out, err = _invoke(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "bad.json" in err


def test_huge_declared_dim_exits_one(tmp_path, capsys):
    doc = _write(
        tmp_path,
        "big.json",
        {"dim": 10_000_000, "slots": ["up", "up", "up"], "components": []},
    )
    code, out, err = _invoke(capsys, "eval", "--bindings", doc, "y^r = big^r")
    assert code == 1 and out == "" and "big.json" in err


@pytest.mark.parametrize("kind", ["frame", "basis"])
def test_overflowing_inputs_print_only_the_error_line(tmp_path, kind):
    # numpy's overflow warnings used to reach stderr ahead of the error, and
    # the basis used to fail only at emission (exit 1)
    big = [[1e200, 0], [0, 1e200]]
    vec = _write(tmp_path, "x.json", _vec([1, 0]))
    if kind == "frame":
        argv = ["transform", "--frame", _write(tmp_path, "f.json", {"dim": 2, "c": big}),
                "--input", vec]
    else:
        argv = ["dot", vec, vec, "--basis",
                _write(tmp_path, "b.json", {"dim": 2, "vectors": big})]
    env = dict(os.environ, PYTHONPATH=str(Path(indicial.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "indicial", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_metric_whose_minors_overflow_prints_only_the_error_line(tmp_path):
    # det_g used to overflow to inf with a numpy warning, and the cross
    # product came out as [0, 0, 0] with exit 0
    g = _write(tmp_path, "g.json", {"dim": 3, "slots": ["down", "down"],
                                    "components": np.diag([1e200, 1e200, 1.0]).tolist()})
    argv = ["cross", _write(tmp_path, "x.json", _vec([1, 0, 0])),
            _write(tmp_path, "y.json", _vec([0, 1, 0])), "--metric", g]
    env = dict(os.environ, PYTHONPATH=str(Path(indicial.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "indicial", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_verify_law_round_trip(tmp_path, capsys, stretch_frame):
    doc = _write(tmp_path, "x.json", _vec([1.0, 2.0, 3.0]))
    moved = tmp_path / "moved.json"
    code, _, _ = _invoke(
        capsys,
        "transform", "--frame", stretch_frame, "--input", doc, "--out", str(moved),
    )
    assert code == 0
    code, out, _ = _invoke(
        capsys,
        "verify-law", "--frame", stretch_frame, "--old", doc, "--new", str(moved),
    )
    assert code == 0 and "holds at weight 0" in out

    wrong = _write(tmp_path, "wrong.json", _vec([9.0, 9.0, 9.0]))
    code, out, _ = _invoke(
        capsys,
        "verify-law", "--frame", stretch_frame, "--old", doc, "--new", wrong,
    )
    assert code == 1 and "violated" in out


def test_verify_law_weight_flag_changes_the_verdict(tmp_path, capsys, stretch_frame):
    # scale by det gamma: correct for weight 1, wrong for weight 0
    old = _write(tmp_path, "s.json", {"dim": 3, "slots": [], "components": 3.0})
    new = _write(tmp_path, "sbar.json", {"dim": 3, "slots": [], "components": 1.5})
    code, out, _ = _invoke(
        capsys,
        "verify-law",
        "--frame", stretch_frame, "--old", old, "--new", new, "--weight", "1",
    )
    assert code == 0 and "weight 1" in out
    code, _, _ = _invoke(
        capsys, "verify-law", "--frame", stretch_frame, "--old", old, "--new", new
    )
    assert code == 1


def test_verify_law_rejects_a_bad_tolerance(tmp_path, capsys, stretch_frame):
    old = _write(tmp_path, "s.json", {"dim": 3, "slots": [], "components": 3.0})
    for tol in ("nan", "-1", "inf"):
        code, out, err = _invoke(capsys, "verify-law", "--frame", stretch_frame,
                                 "--old", old, "--new", old, f"--tol={tol}")
        assert code == 1 and out == ""
        assert err.startswith("error: --tol") and err.count("\n") == 1


# metric products


def test_dot_with_identity_metric(tmp_path, capsys, identity_metric):
    x = _write(tmp_path, "x.json", _vec([1, 2, 3]))
    y = _write(tmp_path, "y.json", _vec([1, 1, 1]))
    code, out, _ = _invoke(capsys, "dot", x, y, "--metric", identity_metric)
    assert code == 0
    assert parse_tensor_document(json.loads(out)).as_scalar() == 6.0


def test_cross_of_axes(tmp_path, capsys, identity_metric):
    e1 = _write(tmp_path, "e1.json", _vec([1, 0, 0]))
    e2 = _write(tmp_path, "e2.json", _vec([0, 1, 0]))
    code, out, _ = _invoke(capsys, "cross", e1, e2, "--metric", identity_metric)
    assert code == 0
    assert json.loads(out)["components"] == [0.0, 0.0, 1.0]
    assert json.loads(out)["slots"] == ["up"]


def test_triple_product(tmp_path, capsys, identity_metric):
    paths = [
        _write(tmp_path, f"v{k}.json", _vec(row))
        for k, row in enumerate(([1, 0, 0], [0, 1, 0], [0, 0, 1]))
    ]
    code, out, _ = _invoke(capsys, "triple", *paths, "--metric", identity_metric)
    assert code == 0
    assert parse_tensor_document(json.loads(out)).as_scalar() == pytest.approx(1.0)


def test_products_accept_a_basis_file(tmp_path, capsys):
    basis = _write(
        tmp_path,
        "basis.json",
        {"dim": 3, "vectors": [[2, 0, 0], [0, 1, 0], [0, 0, 1]]},
    )
    x = _write(tmp_path, "x.json", _vec([1, 0, 0]))
    code, out, _ = _invoke(capsys, "dot", x, x, "--basis", basis)
    assert code == 0
    # g_11 = e_1 . e_1 = 4 in that skewless stretched basis
    assert parse_tensor_document(json.loads(out)).as_scalar() == pytest.approx(4.0)


def test_metric_and_basis_are_mutually_exclusive(tmp_path, capsys, identity_metric):
    basis = _write(
        tmp_path, "b.json", {"dim": 3, "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    )
    x = _write(tmp_path, "x.json", _vec([1, 0, 0]))
    code, _, err = _invoke(
        capsys, "dot", x, x, "--metric", identity_metric, "--basis", basis
    )
    assert code == 1
    code, _, err = _invoke(capsys, "dot", x, x)
    assert code == 1


def test_indefinite_metric_exits_two(tmp_path, capsys):
    g = _write(
        tmp_path,
        "g.json",
        {
            "dim": 2,
            "slots": ["down", "down"],
            "components": [[1.0, 0.0], [0.0, -1.0]],
        },
    )
    x = _write(tmp_path, "x.json", _vec([1, 0]))
    code, _, err = _invoke(capsys, "dot", x, x, "--metric", g)
    assert code == 2 and "error:" in err


# relativity helpers


def test_boost_document(capsys):
    code, out, _ = _invoke(capsys, "boost", "--beta", "0.6")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 4 and doc["slots"] == ["up", "down"]
    m = np.array(doc["components"])
    assert abs(m[0, 0] - 1.25) <= 1e-12
    assert abs(m[0, 1] + 0.75) <= 1e-12
    assert np.array_equal(m[2:, 2:], np.eye(2))
    assert out == (
        '{"dim":4,"slots":["up","down"],"weight":0,"components":'
        "[[1.25,-0.75,0.0,0.0],[-0.75,1.25,0.0,0.0],"
        "[0.0,0.0,1.0,0.0],[0.0,0.0,0.0,1.0]]}\n"
    )


def test_boost_superluminal_exits_two(capsys):
    code, _, err = _invoke(capsys, "boost", "--beta", "1.0")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("module", ["indicial", "indicial.cli"])
def test_runs_as_a_module(module):
    env = dict(os.environ, PYTHONPATH=str(Path(indicial.__file__).parents[1]))

    def invoke(*argv):
        return subprocess.run([sys.executable, "-m", module, *argv],
                              capture_output=True, text=True, env=env, timeout=60)

    done = invoke("boost", "--beta", "0.6")
    assert done.returncode == 0
    doc = json.loads(done.stdout)
    assert doc["slots"] == ["up", "down"] and doc["components"][0][0] == 1.25
    done = invoke("rapidity", "--beta", "2")
    assert done.returncode == 2 and "error:" in done.stderr


def test_rapidity_scalar(capsys):
    code, out, _ = _invoke(capsys, "rapidity", "--beta", "0.6")
    assert code == 0
    value = parse_tensor_document(json.loads(out)).as_scalar()
    assert abs(value - math.log(2.0)) <= 1e-15


@pytest.mark.parametrize("command", ["boost", "rapidity"])
@pytest.mark.parametrize("beta", ["-1e-05", "-1.0871483637098223e-05", "-.5E-1", "-0.5", "-1"])
def test_a_negative_beta_reads_as_a_separate_value(capsys, command, beta):
    joined = _invoke(capsys, command, f"--beta={beta}")
    assert _invoke(capsys, command, "--beta", beta) == joined


# usage and file errors


def test_help_exits_zero(capsys):
    assert _invoke(capsys, "--help")[0] == 0


def test_no_arguments_is_a_usage_error(capsys):
    assert _invoke(capsys)[0] == 1


def test_unknown_subcommand(capsys):
    assert _invoke(capsys, "frobnicate")[0] == 1


@pytest.mark.parametrize("argv", [
    ["eval", "-=", "--bindings", "vars.json", "--mode", "strict"],
    ["eval", "-x^r", "--bindings", "vars.json"],
    ["eval", "--bindings", "vars.json"],
    ["boost", "--beta", "fast"],
    ["rapidity", "--beta", "0.5", "--bogus"],
    ["frobnicate"],
    [],
])
def test_a_usage_error_is_one_error_line(capsys, argv):
    # argparse would print its usage block and exit 2
    code, out, err = _invoke(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_an_expression_that_starts_with_a_minus_goes_after_double_dash(tmp_path, capsys):
    bindings = _write(tmp_path, "vars.json", {"x": _vec([1, 2, 3])})
    code, out, _ = _invoke(capsys, "eval", "--bindings", bindings, "--", "-x^1")
    assert code == 0 and parse_tensor_document(json.loads(out)).as_scalar() == -1.0


def test_missing_document_file(tmp_path, capsys):
    code, _, err = _invoke(
        capsys, "eval", "--bindings", str(tmp_path / "nope.json"), "s = x^r x_r"
    )
    assert code == 1 and "cannot read" in err


# check-exercises


def test_check_exercises_passes_and_reproduces(capsys):
    code, first, err = _invoke(capsys, "check-exercises", "--seed", "42")
    assert code == 0 and err == ""
    code, second, _ = _invoke(capsys, "check-exercises", "--seed", "42")
    assert code == 0
    assert first == second  # byte-for-byte
    assert "fail" not in [line.split()[1] for line in first.splitlines()[2:-1]]


@pytest.mark.parametrize("flag", ["--seed=-1", "--tol=nan", "--tol=-1", "--tol=inf"])
def test_check_exercises_rejects_a_bad_seed_or_tolerance(capsys, flag):
    # a negative seed used to crash numpy's generator with a traceback
    code, out, err = _invoke(capsys, "check-exercises", "--filter", "ex03", flag)
    assert code == 1 and out == ""
    assert err.startswith("error: --") and err.count("\n") == 1


def test_check_exercises_json(capsys):
    code, out, _ = _invoke(capsys, "check-exercises", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert payload["dim"] == 3 and payload["seed"] == 0
    statuses = {entry["status"] for entry in payload["checks"]}
    assert statuses == {"pass"}
    assert all("covered_by" not in entry for entry in payload["checks"])


def test_check_exercises_filter(capsys):
    code, out, _ = _invoke(capsys, "check-exercises", "--filter", "ex0*")
    assert code == 0
    body = [line for line in out.splitlines()[2:] if not line.startswith("total")]
    assert body and all(line.startswith("ex0") for line in body if line)


def test_check_exercises_timings_column(capsys):
    code, out, _ = _invoke(capsys, "check-exercises", "--timings", "--filter", "ex03")
    assert code == 0 and "[ms]" in out


def test_check_exercises_dim_range(capsys):
    code, _, err = _invoke(capsys, "check-exercises", "--dim", "7")
    assert code == 1 and "between 2 and 6" in err
    assert _invoke(capsys, "check-exercises", "--dim", "2")[0] == 0


@pytest.mark.parametrize("argv, code", [(("--dim", "6"), 0), (("--dim", "7"), 1),
                                         (("--tol", "0"), 0)])
def test_check_exercises_option_bounds(capsys, argv, code):
    got, out, err = _invoke(capsys, "check-exercises", "--filter", "ex03", *argv)
    assert got == code
    assert (err == "") is (code == 0) and ("ex03" in out) is (code == 0)


def test_check_exercises_other_dims_and_seeds(capsys):
    for dim, seed in ((4, 7), (5, 1)):
        code, _, _ = _invoke(
            capsys, "check-exercises", "--dim", str(dim), "--seed", str(seed)
        )
        assert code == 0


def _crashing_catalogue(monkeypatch):
    def crash(ctx, rng):
        raise ZeroDivisionError("float division by zero")

    crashed = dataclasses.replace(exercises._REGISTRY[0], fn=crash)
    monkeypatch.setattr(exercises, "_REGISTRY", [crashed] + exercises._REGISTRY[1:3])
    return crashed.check_id


def test_check_exercises_names_a_crashing_check(capsys, monkeypatch):
    check_id = _crashing_catalogue(monkeypatch)
    code, out, _ = _invoke(capsys, "check-exercises")
    assert code == 1
    (line,) = [l for l in out.splitlines() if l.startswith(check_id)]
    assert line.split()[1:3] == ["fail", "inf"]
    assert line.endswith(" [error: ZeroDivisionError]")
    assert sum("[error:" in l for l in out.splitlines()) == 1
    code, out, _ = _invoke(capsys, "check-exercises", "--json")
    assert code == 1
    entries = json.loads(out)["checks"]
    assert entries[0]["error"] == "ZeroDivisionError"
    assert entries[0]["status"] == "fail" and entries[0]["max_deviation"] == math.inf
    assert all("error" not in e for e in entries[1:])


def test_a_numpy_warning_fails_the_check_under_warnings_as_errors(capsys, monkeypatch):
    # pyproject turns RuntimeWarning into an error, as CI's catalogue loop does
    def overflow(dim, rng):
        return float(np.float64(1e308) * 10.0) * 0.0

    check = dataclasses.replace(exercises._REGISTRY[0], fn=overflow)
    monkeypatch.setattr(exercises, "_REGISTRY", [check])
    code, out, _ = _invoke(capsys, "check-exercises")
    assert code == 1 and out.splitlines()[2].endswith(" [error: RuntimeWarning]")


def test_a_numeric_miss_carries_no_error(monkeypatch):
    check = exercises._REGISTRY[0]
    monkeypatch.setattr(exercises, "_REGISTRY",
                        [dataclasses.replace(check, fn=lambda ctx, rng: 1.0)])
    (result,) = exercises.run_checks()
    assert result.status == "fail" and result.error is None


def test_an_unexpected_error_fails_a_check_that_expects_another(monkeypatch):
    def refuse(g):
        raise ShapeError("not a matrix")

    monkeypatch.setattr(exercises.metric, "metric_from_tensor", refuse)
    (result,) = exercises.run_checks(pattern="metric-definite")
    assert result.status == "fail" and result.error == "ShapeError"


@pytest.mark.parametrize("dim", [3, 5])
def test_a_filtered_run_repeats_the_rows_of_the_full_run(dim):
    def rows(pattern=None):
        return [dataclasses.replace(r, elapsed_ms=0.0)
                for r in exercises.run_checks(dim=dim, seed=42, pattern=pattern)]

    full = rows()
    for pattern in ("ex0*", "eq*", "det-*", "ex5?"):
        expected = [r for r in full if fnmatch.fnmatch(r.check_id, pattern)]
        assert expected and rows(pattern) == expected
