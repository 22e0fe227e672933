"""indicial benchmark: closed-loop workloads over the public API.

One run::

    python3 bench/run.py --workload formulas --seed 1 --seconds 30 --trace 0

runs one workload in this process, one client, single-threaded: the next op
starts when the previous one has finished and been checked.  Every op is
checked against an oracle that does not call the path under test, and its
numpy floor twin is timed right after it, outside the op's own timing.  The
loop runs whole cycles of ops (fixed shares per cycle) until ``--seconds``
have passed.  The last line of standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` is also the latency sample count.  With ``--trace 0`` the
metrics are the end-to-end ones in BENCHMARK.json:

- ``ok_frac``: ops that passed their oracle over ops attempted;
- ``floor_ratio``: op time over numpy-floor time, summed over the ops that
  have a floor twin;
- ``op_p50_floor_units``, ``op_p99_floor_units``: the median and p99 op
  latency, over all ops, in units of the run's mean numpy-floor time;
- ``setup_s``: median over fresh interpreters of importing ``indicial`` and
  ``indicial.cli`` plus the warm-up ops (input generation not counted);
- ``peak_rss_mb``: peak resident memory of this process.

Raw throughput and latency drift with the shared machine's speed (by up to
40% within twenty minutes, measured on a 2-CPU cloud VM) more than any
usable bound allows, so they are not end-to-end metrics: latency is given
in units of the numpy floor, which is timed in the same run and drifts with
it.  The raw figures are per-layer metrics of the traced run
(``e2e.ops_per_s``, ``e2e.op_p50_us``, ``e2e.op_p99_us``, over its untraced
cycles).

With ``--trace 1`` cycles alternate between untraced and traced, and the
metrics are the per-layer ones, derived from spans recorded by
``tracing.py`` around calls into the library (written to
``.bench_work/trace-<workload>.csv``).  The line before the result carries
the environment.  ``--out FILE`` also appends the run, with its environment,
to a JSON-lines result set.

Compare two result sets (or summarise one)::

    for s in 1 2 3 4 5 6 7 8 9 10; do
        python3 bench/run.py --workload geometry --seed $s --seconds 30 --trace 0 --out A.jsonl
    done
    python3 bench/run.py --compare A.jsonl B.jsonl

``--smoke`` runs one cycle per phase with one set-up sample, whatever
``--seconds`` says; the smoke test ``bench/test_smoke.py`` uses it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array

# one client on one thread: keep numpy's BLAS pools from adding threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("formulas", "geometry", "documents")
SETUP_SAMPLES = 5


def _spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _generator(ix, workload: str, seed: int, workdir: str):
    import numpy as np

    rng = np.random.default_rng(seed)
    if workload == "formulas":
        from formulas import Formulas
        return Formulas(ix, rng)
    if workload == "geometry":
        from geometry import Geometry
        return Geometry(ix, rng)
    from documents import Documents
    return Documents(ix, rng, workdir)


def _setup_child(workload: str, seed: int, workdir: str) -> None:
    """Fresh interpreter: import the library, then time the warm-up ops.

    Prints the monotonic clock right after the imports (comparable with
    the parent's clock on Linux) and the warm-up time; input generation in
    between is not counted.
    """
    sys.path.insert(0, BENCH)
    from common import import_library

    ix = import_library()
    imported = time.perf_counter()
    gen = _generator(ix, workload, seed, workdir)
    ops = gen.warmup()
    t0 = time.perf_counter()
    for op in ops:
        _call(op)
    print(json.dumps({"imported": imported, "warmup_s": time.perf_counter() - t0}))


def _call(op):
    try:
        return op.run(), None
    except Exception as exc:  # graded against op.expect by the caller
        return None, exc


def _setup_seconds(workload: str, seed: int, workdir: str, samples: int) -> float:
    values = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--setup-child",
             "--workload", workload, "--seed", str(seed), "--workdir", workdir],
            capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up child failed with exit code {proc.returncode}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        values.append(child["imported"] - t0 + child["warmup_s"])
    return statistics.median(values)


def _grade(op, res, exc) -> tuple[bool, dict[str, float], str]:
    """Check one op against its oracle; returns (ok, floor parts, reason)."""
    if op.expect is not None:
        if isinstance(exc, op.expect):
            return True, {}, ""
        return False, {}, f"expected {op.expect.__name__}, got {exc!r}"
    if exc is not None:
        return False, {}, f"raised {exc!r}"
    floors, expected = op.twin()
    if op.check(res, expected):
        return True, floors, ""
    return False, floors, "wrong result"


def _loadavg() -> list[float]:
    return [round(v, 2) for v in os.getloadavg()]


def _env(args, load_before) -> dict:
    import numpy as np

    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "nproc": os.cpu_count(), "loadavg_before": load_before,
            "loadavg_after": _loadavg(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke}


def measure(args) -> dict:
    load_before = _loadavg()
    sys.path.insert(0, BENCH)
    from common import import_library

    ix = import_library()
    spec = _spec()
    from tracing import Tracer

    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    gen = _generator(ix, args.workload, args.seed, workdir)
    try:
        if not args.trace:  # set-up time is an end-to-end metric only
            samples = 1 if args.smoke else SETUP_SAMPLES
            setup_s = _setup_seconds(args.workload, args.seed, workdir, samples)
        for op in gen.warmup():
            _call(op)

        tracer = Tracer() if args.trace else None
        lat = {False: array("d"), True: array("d")}  # op seconds, untraced and traced
        floor = array("d")  # numpy-floor seconds of the ops that have one ...
        floored_s = 0.0  # ... and the summed op time of those ops
        traced_floors: dict[int, dict[str, float]] = {}
        attempted = failed = 0
        deadline = time.perf_counter() + args.seconds
        cycle = 0
        # whole cycles only, so every run holds the same op mix; a traced
        # run needs at least one untraced and one traced cycle
        min_cycles = 2 if args.trace else 1
        while cycle < min_cycles or (not args.smoke and time.perf_counter() < deadline):
            on = bool(tracer) and cycle % 2 == 1
            if on:
                tracer.install()
            for op in gen.cycle():
                n = attempted
                attempted += 1
                if on:
                    tracer.op = n
                t0 = time.perf_counter()
                res, exc = _call(op)
                dt = time.perf_counter() - t0
                lat[on].append(dt)
                ok, parts, why = _grade(op, res, exc)
                if parts:
                    floored_s += dt
                    floor.append(sum(parts.values()))
                    if on:
                        traced_floors[n] = parts
                if not ok:
                    failed += 1
                    if failed <= 5:
                        print(f"failed op {n} ({op.kind}): {why}", file=sys.stderr)
            if on:
                tracer.uninstall()
            cycle += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        every = lat[False]
        mean_floor = sum(floor) / len(floor)
        metrics = {
            "ok_frac": (attempted - failed) / attempted,
            "floor_ratio": floored_s / sum(floor),
            "op_p50_floor_units": _percentile(every, 50) / mean_floor,
            "op_p99_floor_units": _percentile(every, 99) / mean_floor,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    else:
        metrics = tracer.metrics(traced_floors)
        off, on = lat[False], lat[True]
        metrics["trace.overhead_frac"] = (sum(on) / len(on)) / (sum(off) / len(off)) - 1.0
        metrics["e2e.ops_per_s"] = len(off) / sum(off)
        metrics["e2e.op_p50_us"] = _percentile(off, 50) * 1e6
        metrics["e2e.op_p99_us"] = _percentile(off, 99) * 1e6
        tracer.write(os.path.join(WORK, f"trace-{args.workload}.csv"))
        wanted = spec["per_layer"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }
    return {"env": _env(args, load_before), "result": result}


def _percentile(values: array, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _load_set(path: str) -> dict[tuple[int, str], dict[str, list[float]]]:
    """(trace, workload) -> metric -> values, from a JSON-lines result set."""
    runs: dict[tuple[int, str], dict[str, list[float]]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                per = runs.setdefault((rec["env"]["trace"], rec["env"]["workload"]), {})
                for name, m in rec["result"]["metrics"].items():
                    per.setdefault(name, []).append(m["value"])
    return runs


def compare(paths: list[str]) -> int:
    """One row per workload and metric, for one or two result sets.

    End-to-end rows (untraced runs) get a verdict against the metric's bound;
    per-layer rows (traced runs) have no bound and get the relative change.
    """
    spec = _spec()
    sets = [_load_set(p) for p in paths]
    print(f"{'workload':10} {'metric':46} " + "  ".join(
        f"{'median [q1, q3] (' + chr(65 + k) + ')':>36}" for k in range(len(sets)))
        + "  verdict")
    for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for workload in WORKLOADS:
            if not all((trace, workload) in s for s in sets):
                continue
            for m in metrics:
                stats = [_quartiles(s[trace, workload][m["name"]]) for s in sets]
                cells = "  ".join(f"{med:12.6g} [{q1:10.6g}, {q3:10.6g}]" for q1, med, q3 in stats)
                print(f"{workload:10} {m['name']:46} {cells}  {_verdict(m, stats)}")
    return 0


def _verdict(m: dict, stats: list[tuple[float, float, float]]) -> str:
    spreads = [(q3 - q1) / abs(med) if med else 0.0 for q1, med, q3 in stats]
    bound = m.get("bound")
    if bound is not None and any(sp > bound for sp in spreads):
        return f"unresolved (spread {max(spreads):.3f} > bound {bound})"
    if len(stats) == 1:
        return f"spread {spreads[0]:.3f}" + (f" of bound {bound}" if bound is not None else "")
    (a_q1, a, a_q3), (_, b, _) = stats
    if not a:
        return "no base"
    worse = (b - a) / abs(a) * (1 if m["better"] == "lower" else -1)
    if bound is None:
        return f"{-worse:+.3f} better"
    if worse > bound:
        return f"regressed {worse:+.3f} > bound {bound}"
    if -worse * abs(a) > a_q3 - a_q1:
        return f"improved {-worse:+.3f}"
    return f"same ({-worse:+.3f} better)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one short cycle per phase")
    parser.add_argument("--out", metavar="FILE", help="append the run to a JSON-lines result set")
    parser.add_argument("--compare", nargs="+", metavar="SET", help="compare result sets")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_child:
        _setup_child(args.workload, args.seed, args.workdir)
        return 0
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        print("error: BENCHMARK.json not found", file=sys.stderr)
        return 2
    record = measure(args)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(record["env"]))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
