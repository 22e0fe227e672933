"""The command-line parser is built once and shared by every ``run`` call:
its help text, the state it must not carry between calls, and the imports
a plain ``import indicial.cli`` pays for."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import indicial
from indicial.cli import run
from indicial.documents import parse_tensor_document

COMMANDS = ["eval", "transform", "verify-law", "dot", "cross", "triple",
            "boost", "rapidity", "check-exercises"]


def _help_texts() -> dict[str, str]:
    """``cli_help.txt`` holds each ``--help`` output at 80 columns, headed
    by a ``==> indicial [command] --help`` line."""
    text = Path(__file__).with_name("cli_help.txt").read_text(encoding="utf-8")
    blocks = (b.partition("\n") for b in text.split("==> ")[1:])
    return {header: body for header, _, body in blocks}


HELP = _help_texts()


def test_the_help_file_covers_every_command():
    assert sorted(HELP) == sorted(
        ["indicial --help"] + [f"indicial {c} --help" for c in COMMANDS]
    )


@pytest.mark.parametrize("header", sorted(HELP))
def test_help_text_is_unchanged(header, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(header.split()[1:]) == 0
    assert capsys.readouterr().out == HELP[header]


def test_importing_the_cli_leaves_the_catalogue_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(indicial.__file__).parents[1]))
    code = "import sys, indicial.cli; print('indicial.exercises' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    assert done.stdout == "False\n"


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _vec(values, slot="up"):
    return {"dim": len(values), "slots": [slot], "components": list(values)}


def _scalar(capsys):
    return parse_tensor_document(json.loads(capsys.readouterr().out)).as_scalar()


def test_repeated_bindings_do_not_carry_into_the_next_run(tmp_path, capsys):
    a = _write(tmp_path, "a.json", {"a": _vec([2, 0, 0], "down")})
    x = _write(tmp_path, "x.json", {"x": _vec([1, 1, 1])})
    assert run(["eval", "s = a_r x^r", "--bindings", a, "--bindings", x]) == 0
    assert _scalar(capsys) == 2.0
    # a list shared through the parser would still hold a.json here
    assert run(["eval", "s = a_r x^r", "--bindings", x]) == 1
    assert "'a'" in capsys.readouterr().err
    assert run(["eval", "s = a_r x^r", "--bindings", a, "--bindings", x]) == 0
    assert _scalar(capsys) == 2.0


def test_each_product_command_runs_its_own_product(tmp_path, capsys):
    g = _write(tmp_path, "g.json", {"dim": 3, "slots": ["down", "down"],
                                    "components": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    e1, e2, e3 = (_write(tmp_path, f"e{k}.json", _vec(row))
                  for k, row in enumerate(([1, 0, 0], [0, 1, 0], [0, 0, 1])))
    assert run(["cross", e1, e2, "--metric", g]) == 0
    assert json.loads(capsys.readouterr().out)["components"] == [0.0, 0.0, 1.0]
    assert run(["triple", e1, e2, e3, "--metric", g]) == 0
    assert _scalar(capsys) == 1.0
    assert run(["dot", e1, e1, "--metric", g]) == 0
    assert _scalar(capsys) == 1.0
    assert run(["cross", e2, e3, "--metric", g]) == 0
    assert json.loads(capsys.readouterr().out)["components"] == [1.0, 0.0, 0.0]
