"""Spans around calls into the library's layers, recorded by the benchmark.

``Tracer.install`` replaces each traced public function, in every loaded
``indicial`` module that holds it, with a wrapper that records a span
``(id, parent, op, name, start_ns, end_ns)`` in memory; ``uninstall`` puts
the originals back, so untraced cycles run the library untouched.  Spans
are written out once, when the run ends.  Counts (plan costs, components,
bytes, exit codes) are taken at the same boundaries by small hooks that run
after the span has closed.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

LAYERS = ["einsum.syntax", "einsum.planner", "einsum.executor", "objects", "documents",
          "cli", "determinants", "symbols", "frames", "metric", "minkowski"]

# order_contractions results counted for the plan-cost metrics: a fixed
# number of plans, so the counts repeat exactly for a given seed
COST_WINDOW = 64


def _components(value) -> int:
    if isinstance(value, dict):
        return sum(_components(v) for v in value.values())
    if isinstance(value, list):
        return sum(_components(v) for v in value)
    if hasattr(value, "c"):  # a Frame
        return value.c.components.size
    return value.components.size


def _path_bytes(paths) -> int:
    if isinstance(paths, str):
        paths = [paths]
    return sum(os.path.getsize(p) for p in paths)


def _plan_cost(tracer, args, plan) -> None:
    if tracer.counts["plans"] < COST_WINDOW:
        tracer.counts["plans"] += 1
        tracer.counts["madds"] += plan.total_cost
        tracer.counts["naive"] += plan.naive_cost


def _loaded(tracer, args, value) -> None:
    tracer.counts["load_components"] += _components(value)
    tracer.counts["bytes_read"] += _path_bytes(args[0])


def _emitted(tracer, args, text) -> None:
    tracer.counts["emit_components"] += args[0].components.size
    tracer.counts["bytes_written"] += len(text)


def _exit(tracer, args, code) -> None:
    tracer.counts["nonzero_exits"] += code != 0


TRACED = {
    "einsum.syntax.parse": None,
    "einsum.planner.validate": None,
    "einsum.planner.order_contractions": _plan_cost,
    "einsum.executor.execute": None,
    "objects.new_object": None,
    "documents.load_bindings": _loaded,
    "documents.load_tensor_document": _loaded,
    "documents.load_frame_document": _loaded,
    "documents.load_basis_document": _loaded,
    "documents.format_tensor_document": _emitted,
    "cli.run": _exit,
    "determinants.determinant": None,
    "determinants.inverse": None,
    "symbols.levi_civita_symbol": None,
    "frames.frame_from_matrix": None,
    "frames.transform": None,
    "frames.compose": None,
    "metric.metric_from_tensor": None,
    "metric.metric_from_basis": None,
    "metric.raise_index": None,
    "metric.lower_index": None,
    "metric.inner": None,
    "metric.cross": None,
    "metric.triple": None,
    "minkowski.boost": None,
    "minkowski.rapidity": None,
    "minkowski.is_lorentz": None,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.stack: list[int] = []
        self.op = -1
        self.patches = []
        originals = {}
        for name, hook in TRACED.items():
            module, func = name.rsplit(".", 1)
            fn = getattr(sys.modules["indicial." + module], func)
            originals[id(fn)] = (fn, self._wrap(name, fn, hook))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "indicial" or mod_name.startswith("indicial."):
                for attr, value in vars(mod).items():
                    if id(value) in originals and originals[id(value)][0] is value:
                        fn, wrapper = originals[id(value)]
                        self.patches.append((mod, attr, fn, wrapper))

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.op, name, start, end))
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for mod, attr, _, wrapper in self.patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn, _ in self.patches:
            setattr(mod, attr, fn)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,op,name,start_ns,end_ns\n")
            for span in sorted(self.spans):
                fh.write(",".join(map(str, span)) + "\n")

    def metrics(self, floors: dict[int, dict[str, float]]) -> dict[str, float]:
        """Per-layer figures from the spans; ``floors`` maps op id to its
        numpy-floor timings by part."""
        child_ns: dict[int, int] = defaultdict(int)
        layer_of = {sid: name.rsplit(".", 1)[0] for sid, _, _, name, _, _ in self.spans}
        for sid, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, int] = defaultdict(int)
        layer_calls: dict[str, int] = defaultdict(int)
        layer_busy: dict[str, int] = defaultdict(int)
        layer_self: dict[str, int] = defaultdict(int)
        for sid, parent, op, name, start, end in self.spans:
            layer = layer_of[sid]
            calls[name] += 1
            busy[name] += end - start
            layer_calls[layer] += 1
            if layer_of.get(parent) != layer:  # outermost call into the layer
                layer_busy[layer] += end - start
            layer_self[layer] += end - start - child_ns[sid]

        def us(*names):
            n = sum(calls[x] for x in names)
            return sum(busy[x] for x in names) / n / 1e3 if n else 0.0

        def seconds(*names):
            return sum(busy[x] for x in names) / 1e9

        def floor_ratio(key, names, top_only=False):
            lib = sum(end - start for _, parent, op, name, start, end in self.spans
                      if name in names and key in floors.get(op, ())
                      and (parent < 0 or not top_only))
            floor = sum(f[key] for op, f in floors.items() if key in f)
            return lib / 1e9 / floor if floor else 0.0

        def per_s(count, secs):
            return count / secs if secs else 0.0

        loads = [n for n in TRACED if n.startswith("documents.load_")]
        c = self.counts
        out = {
            "einsum.syntax.parse.us_per_call": us("einsum.syntax.parse"),
            "einsum.planner.validate.us_per_call": us("einsum.planner.validate"),
            "einsum.planner.order_contractions.us_per_call": us("einsum.planner.order_contractions"),
            "einsum.planner.cost_ratio": c["madds"] / c["naive"] if c["naive"] else 0.0,
            "einsum.planner.madds": c["madds"],
            "einsum.executor.execute.us_per_call": us("einsum.executor.execute"),
            "einsum.executor.execute.busy_s": seconds("einsum.executor.execute"),
            "einsum.executor.floor_ratio": floor_ratio("einsum", {"einsum.executor.execute"}),
            "objects.new_object.us_per_call": us("objects.new_object"),
            "documents.load.busy_s": seconds(*loads),
            "documents.load.components_per_s": per_s(c["load_components"], seconds(*loads)),
            "documents.emit.busy_s": seconds("documents.format_tensor_document"),
            "documents.emit.components_per_s": per_s(
                c["emit_components"], seconds("documents.format_tensor_document")),
            "documents.bytes_read": c["bytes_read"],
            "documents.bytes_written": c["bytes_written"],
            "cli.run.us_per_call": us("cli.run"),
            "cli.run.nonzero_exits": c["nonzero_exits"],
            "determinants.determinant.us_per_call": us("determinants.determinant"),
            "determinants.inverse.us_per_call": us("determinants.inverse"),
            "determinants.floor_ratio": floor_ratio(
                "det", {"determinants.determinant", "determinants.inverse"}, top_only=True),
            "symbols.levi_civita_symbol.us_per_call": us("symbols.levi_civita_symbol"),
            "symbols.levi_civita_symbol.busy_s": seconds("symbols.levi_civita_symbol"),
            "frames.frame_from_matrix.us_per_call": us("frames.frame_from_matrix"),
            "frames.transform.us_per_call": us("frames.transform"),
            "frames.transform.floor_ratio": floor_ratio("transform", {"frames.transform"}),
            "metric.metric_from_tensor.us_per_call": us("metric.metric_from_tensor"),
            "metric.raise_lower.us_per_call": us("metric.raise_index", "metric.lower_index"),
            "metric.cross_triple.us_per_call": us("metric.cross", "metric.triple"),
            "minkowski.boost.us_per_call": us("minkowski.boost"),
            "minkowski.is_lorentz.us_per_call": us("minkowski.is_lorentz"),
        }
        for layer in LAYERS:
            out[f"{layer}.calls"] = layer_calls[layer]
            out[f"{layer}.busy_s"] = layer_busy[layer] / 1e9
            out[f"{layer}.self_s"] = layer_self[layer] / 1e9
        out["trace.spans"] = len(self.spans)
        return out
