"""The README's quick tour runs as written and gives the values it states,
and its error table gives each exported error class's exit code."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import indicial
from indicial.errors import TensorError

ROOT = Path(__file__).resolve().parent.parent

# printed after the tour, for the values its comments state
REPORT = """
import json
print(json.dumps({
    "moved": moved.components.tolist(),
    "psi": psi,
    "b": b.tolist(),
}))
"""


def _quick_tour() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_quick_tour_runs_and_states_true_values():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", _quick_tour() + REPORT],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    got = json.loads(done.stdout)
    # moved.components == diag(1/4, 1, 1)
    assert np.array_equal(got["moved"], np.diag([0.25, 1.0, 1.0]))
    # psi = rapidity(0.6) is ln 2
    assert abs(got["psi"] - math.log(2.0)) <= 1e-15
    # boost(0.6) is a 4x4 matrix with gamma = 1.25 on its time-x diagonal
    b = np.array(got["b"])
    assert b.shape == (4, 4)
    assert abs(b[0, 0] - 1.25) <= 1e-15 and abs(b[1, 1] - 1.25) <= 1e-15


def test_every_exported_error_carries_the_exit_code_in_the_readme_table():
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Errors", 1)[1]
    table = dict(re.findall(r"^\| `(\w+)`[^|]*\| (\d) \|$", section, re.M))
    exported = {
        name: getattr(indicial, name)
        for name in indicial.__all__
        if isinstance(getattr(indicial, name), type)
        and issubclass(getattr(indicial, name), TensorError)
    }
    assert sorted(table) == sorted(exported)
    for name, cls in exported.items():
        assert cls.exit_code == int(table[name]), name
