"""Smoke test of the benchmark itself (not part of the library's suite).

    python3 -m pytest bench/test_smoke.py

Runs every workload once in ``--smoke`` mode in both trace modes and checks
the result line against BENCHMARK.json, compare mode on the result set,
seed determinism of the generated inputs, and the refusal to run without
the library sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work", "smoke")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def work():
    os.makedirs(WORK, exist_ok=True)
    yield WORK
    shutil.rmtree(WORK, ignore_errors=True)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace, work):
    results = os.path.join(work, f"{workload}-{trace}.jsonl")
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke", "--out", results)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if trace:
        assert result["metrics"]["trace.spans"]["value"] > 0
        # plan costs are counts over a fixed window, so they repeat exactly
        again = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "1", "--smoke")
        repeat = json.loads(again.stdout.strip().splitlines()[-1])["metrics"]
        for name in ("einsum.planner.madds", "einsum.planner.cost_ratio"):
            assert repeat[name] == result["metrics"][name]
        return
    assert all(m["value"] > 0 for m in result["metrics"].values())
    compare = _run("--compare", results, results)
    assert compare.returncode == 0, compare.stderr
    assert compare.stdout.count(workload) == len(wanted)


def test_same_seed_same_inputs(work):
    sys.path.insert(0, BENCH)
    from common import import_library
    from documents import Documents
    from formulas import Formulas

    ix = import_library()
    texts = [[e.text for e in Formulas(ix, np.random.default_rng(7)).valid] for _ in range(2)]
    assert texts[0] == texts[1]
    files = []
    for k in range(2):
        path = os.path.join(work, f"inputs{k}")
        Documents(ix, np.random.default_rng(7), path)
        with open(os.path.join(path, "m_0.json"), encoding="utf-8") as fh:
            files.append(fh.read())
    assert files[0] == files[1]


def test_refuses_without_sources(work):
    bare = os.path.join(work, "bare")
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run("--workload", "formulas", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
