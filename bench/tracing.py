"""Spans around weightlab's public functions, recorded from outside the package.

`Tracer.install()` replaces every public function (no leading underscore) of
the layer modules with a wrapper, both in its own module and under every name
another layer module imports it as (`constants.cumulative_moment`,
`dyadic.moment`, `dyadic.evaluate`, `bellman.gamma_log`, ...). Each call
becomes a span: name, start, end, parent span and the item that caused it.
Spans stay in memory in flat arrays until `save()`. A span's self time is its
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import inspect
import time
import tracemalloc
from array import array
from collections import Counter

import numpy as np
from workloads import GAP_TOL

LAYERS = ("weights", "constants", "solvers", "bellman", "extremals", "dyadic", "cli")

PAIR_SCANS = {f"constants.{n}_constant" for n in ("rh1", "ainf", "rhp", "ap")}
MAXIMAL = {"constants.rh1_prime_constant", "constants.maximal_function"}
ORLICZ = {"constants.rh1_doubleprime_constant", "constants.luxemburg_norm"}
EVALUATE = {"bellman.evaluate", "bellman.tangent_point"}

# name -> (unit, better): the per-layer metrics, in the order they are printed
METRICS = {
    "weights.moment.calls": ("count", "lower"),
    "weights.moment.self_s": ("s", "lower"),
    "weights.cumulative_moment.points": ("count", "lower"),
    "weights.cumulative_moment.self_s": ("s", "lower"),
    "constants.pair_scan.self_s": ("s", "lower"),
    "constants.pairs": ("count", "lower"),
    "constants.maximal.self_s": ("s", "lower"),
    "constants.orlicz.self_s": ("s", "lower"),
    "constants.peak_traced_mib": ("MiB", "lower"),
    "solvers.calls": ("count", "lower"),
    "solvers.iterations": ("count", "lower"),
    "solvers.self_s": ("s", "lower"),
    "bellman.evaluate.calls": ("count", "lower"),
    "bellman.evaluate.self_s": ("s", "lower"),
    "bellman.hessian.calls": ("count", "lower"),
    "bellman.hessian.self_s": ("s", "lower"),
    "bellman.evaluate_many.points": ("count", "lower"),
    "bellman.evaluate_many.self_s": ("s", "lower"),
    "extremals.calls": ("count", "lower"),
    "extremals.self_s": ("s", "lower"),
    "extremals.attain_ok_ratio": ("ratio", "higher"),
    "dyadic.split.calls": ("count", "lower"),
    "dyadic.split.candidates": ("count", "lower"),
    "dyadic.split.accept_ratio": ("ratio", "higher"),
    "dyadic.self_s": ("s", "lower"),
    "cli.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_out": ("B", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# slots of an open span's frame
IDX, NAME, CHILD, LAYER, MARK = range(5)


def _iterations(result) -> int | None:
    """RootResult.iterations, summed over a tuple of RootResults; else None."""
    results = result if isinstance(result, tuple) else (result,)
    if results and all(hasattr(r, "iterations") and hasattr(r, "residual") for r in results):
        return sum(r.iterations for r in results)
    return None


class Tracer:
    """Spans and counts; with `memory`, only the tracemalloc peak of constants calls.

    tracemalloc slows every allocation, so the memory peak comes from a
    separate pass and the timed spans never run under it.
    """

    def __init__(self, modules: dict, memory: bool = False):
        self.modules = modules  # layer name -> module
        self.names: list[str] = []
        self.calls: list[int] = []  # per span name
        self.self_s: list[float] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.item = -1  # index of the item being run, shared by its spans
        self.stack: list[list] = []  # frames of the open spans
        self.layer_entries: Counter = Counter()  # calls into a layer from outside it
        self.counts: Counter = Counter()
        self.memory = memory
        self.peak_bytes = 0
        self._wrappers: dict = {}  # function -> its wrapper
        self._saved: list[tuple] = []

    def install(self) -> None:
        """Put the wrappers in place; spans and counts carry over between installs."""
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if self.modules.get(layer) is None or obj.__module__ != self.modules[layer].__name__:
                    continue
                if obj not in self._wrappers:
                    self._wrappers[obj] = self._wrap(obj, layer)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, self._wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        sid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        stack, perf, calls, self_s = self.stack, time.perf_counter, self.calls, self.self_s
        starts, ends = self.span_start, self.span_end
        hook = self._hook(name)
        measure_memory = self.memory and layer == "constants"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            entering = parent is None or parent[LAYER] != layer
            if measure_memory and entering:
                tracemalloc.start()
            idx = len(ends)
            self.span_name.append(sid)
            self.span_parent.append(parent[IDX] if parent else -1)
            self.span_item.append(self.item)
            ends.append(0.0)
            frame = [idx, sid, 0.0, layer, False]
            stack.append(frame)
            result = None
            t0 = perf()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf()
                stack.pop()
                ends[idx] = t1
                calls[sid] += 1
                self_s[sid] += t1 - t0 - frame[CHILD]
                if parent is not None:
                    parent[CHILD] += t1 - t0
                if entering:
                    self.layer_entries[layer] += 1
                if hook is not None:
                    hook(args, result, frame, parent)
                if measure_memory and entering:
                    self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _parent_is(self, parent, names) -> bool:
        return parent is not None and self.names[parent[NAME]] in names

    def _hook(self, name: str):
        """Extra counts for a few functions, taken when their span closes."""
        counts = self.counts
        if name == "weights.cumulative_moment":
            def hook(args, result, frame, parent):
                n = len(args[1])
                counts["cumulative_points"] += n
                # a pair scan's first cumulative moment gives its grid size
                if self._parent_is(parent, PAIR_SCANS) and not parent[MARK]:
                    parent[MARK] = True
                    counts["pairs"] += n * (n - 1) // 2
            return hook
        if name == "weights.moment":
            def hook(args, result, frame, parent):
                counts["split_moments"] += self._parent_is(parent, {"dyadic.split"})
            return hook
        if name == "dyadic.split":
            def hook(args, result, frame, parent):
                counts["split_ok"] += result is not None
            return hook
        if name == "bellman.evaluate_many":
            def hook(args, result, frame, parent):
                counts["many_points"] += np.asarray(args[1]).size
            return hook
        if name == "extremals.attainment_check":
            def hook(args, result, frame, parent):
                counts["attain"] += 1
                counts["attain_ok"] += result is not None and abs(result.gap) <= GAP_TOL
            return hook
        if name.startswith("solvers."):
            def hook(args, result, frame, parent):
                # count each RootResult once, at the innermost solver returning it
                its = _iterations(result)
                if its is not None and not frame[MARK]:
                    counts["solver_iterations"] += its
                    frame[MARK] = True
                if parent is not None and frame[MARK]:
                    parent[MARK] = True
            return hook
        return None

    def metrics(self, overhead_ratio: float, cli_bytes: int, peak_bytes: int) -> dict:
        def total(table, names):
            return sum(v for n, v in zip(self.names, table) if n in names)

        def layer_self(layer):
            return sum(v for n, v in zip(self.names, self.self_s) if n.startswith(layer + "."))

        c, s = self.counts, self.self_s
        candidates = c["split_moments"] / 4.0
        out = {
            "weights.moment.calls": total(self.calls, {"weights.moment"}),
            "weights.moment.self_s": total(s, {"weights.moment"}),
            "weights.cumulative_moment.points": c["cumulative_points"],
            "weights.cumulative_moment.self_s": total(s, {"weights.cumulative_moment"}),
            "constants.pair_scan.self_s": total(s, PAIR_SCANS),
            "constants.pairs": c["pairs"],
            "constants.maximal.self_s": total(s, MAXIMAL),
            "constants.orlicz.self_s": total(s, ORLICZ),
            "constants.peak_traced_mib": peak_bytes / 2**20,
            "solvers.calls": self.layer_entries["solvers"],
            "solvers.iterations": c["solver_iterations"],
            "solvers.self_s": layer_self("solvers"),
            "bellman.evaluate.calls": total(self.calls, EVALUATE),
            "bellman.evaluate.self_s": total(s, EVALUATE),
            "bellman.hessian.calls": total(self.calls, {"bellman.hessian"}),
            "bellman.hessian.self_s": total(s, {"bellman.hessian"}),
            "bellman.evaluate_many.points": c["many_points"],
            "bellman.evaluate_many.self_s": total(s, {"bellman.evaluate_many"}),
            "extremals.calls": self.layer_entries["extremals"],
            "extremals.self_s": layer_self("extremals"),
            "extremals.attain_ok_ratio": c["attain_ok"] / c["attain"] if c["attain"] else 0.0,
            "dyadic.split.calls": total(self.calls, {"dyadic.split"}),
            "dyadic.split.candidates": candidates,
            "dyadic.split.accept_ratio": c["split_ok"] / candidates if candidates else 0.0,
            "dyadic.self_s": layer_self("dyadic"),
            "cli.calls": total(self.calls, {"cli.main"}),
            "cli.self_s": total(s, {"cli.main"}),
            "cli.bytes_out": cli_bytes,
            "trace.overhead_ratio": overhead_ratio,
        }
        return {k: out[k] for k in METRICS}

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            item=np.frombuffer(self.span_item, dtype=np.int32),
        )
