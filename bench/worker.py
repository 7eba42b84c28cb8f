"""One benchmark worker: set up, run one workload, check it, print one JSON line.

Started by run.py with a pinned environment; not meant to be run by hand.
The worker measures its own set-up from the monotonic time its parent took
just before starting it (`--t0`), so set-up includes interpreter start-up.

The host is a shared virtual machine whose speed switches between states
(a fixed slice of CPU work takes up to twice as long in one state as in the
other, for seconds to minutes at a time). Every time the benchmark reports is
therefore scaled to a reference speed: fixed probes (`cpu_probe()`, and for
scan also `memory_probe()`) run between items at least every PROBE_EVERY_S,
and an item's latency is divided by the median slowness of the probes within
PROBE_WINDOW_S of the item. Items whose arrays outgrow L2 take part of
their slowness from the memory probe (`Item.memory_weight`). The unscaled
figures are printed too.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# A probe's slowness is its time over the time it took in the fast state of
# the machine described in README.md (the slow state takes up to twice as
# long); scaled times read as in that fast state.
CPU_PROBE_REFERENCE_S = 0.6e-3
MEMORY_PROBE_REFERENCE_S = 3.0e-3
PROBE_EVERY_S = 0.05
PROBE_WINDOW_S = 0.25
SETUP_PROBES = 41

_PROBE_SMALL = np.linspace(1.0, 2.0, 20_000)


def cpu_probe() -> float:
    """Seconds a fixed slice of interpreter and in-cache numpy work takes now."""
    perf = time.perf_counter
    t0 = perf()
    x = 0.0
    for i in range(1, 3000):
        x += math.log(i) / i
    np.log(np.cumsum(_PROBE_SMALL)).sum()
    return perf() - t0


def memory_probe(large: np.ndarray) -> float:
    """Seconds one pass of numpy over an array beyond L2 takes now."""
    perf = time.perf_counter
    t0 = perf()
    (large * 1.5).sum()
    return perf() - t0


class Speed:
    """Probe slowness along the run, to scale item latencies to the reference speed.

    With `memory`, every probe also times `memory_probe()`, and an item's
    slowness mixes the two probes by its `memory_weight`.
    """

    def __init__(self, memory: bool = False):
        # 16 MB, beyond L2; allocated only where it is used, as it adds to peak RSS
        self.large = np.linspace(1.0, 2.0, 2_000_000) if memory else None
        self.at: list[float] = []  # midpoints, increasing
        self.cpu: list[float] = []
        self.memory: list[float] = []
        self.last = -math.inf

    def probe(self) -> None:
        t0 = time.perf_counter()
        self.cpu.append(cpu_probe() / CPU_PROBE_REFERENCE_S)
        if self.large is not None:
            self.memory.append(memory_probe(self.large) / MEMORY_PROBE_REFERENCE_S)
        self.last = time.perf_counter()
        self.at.append(0.5 * (t0 + self.last))

    def maybe_probe(self) -> None:
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.probe()

    def slowness(self, start: float, end: float, memory_weight: float = 0.0) -> float:
        """Median slowness of the probes within PROBE_WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.at, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + PROBE_WINDOW_S)
        if not memory_weight:
            return statistics.median(self.cpu[lo:hi])
        return statistics.median(
            (1.0 - memory_weight) * c + memory_weight * m for c, m in zip(self.cpu[lo:hi], self.memory[lo:hi])
        )

    def scaled(self, item) -> float:
        return item.latency / self.slowness(item.start, item.start + item.latency, item.memory_weight)


def run_block(items, tracer=None, base: int = 0, keep: bool = True, speed: Speed | None = None) -> float:
    """Run items back to back; return the block's wall time.

    With `speed`, a probe runs before the block, before any item that starts
    PROBE_EVERY_S or more after the last probe, and after the block; probes
    are not part of any item's latency, but they are part of the wall time.
    """
    perf = time.perf_counter
    start = perf()
    for k, item in enumerate(items):
        if tracer is not None:
            tracer.item = base + k
        if speed is not None:
            speed.maybe_probe()
        t0 = perf()
        item.start = t0
        try:
            out = item.call()
        except Exception as exc:  # a failure of the program, recorded per item
            item.latency = perf() - t0
            item.error = f"{type(exc).__name__} escaped: {exc}"
        else:
            item.latency = perf() - t0
            if keep:
                item.result = item.keep(out)
        item.call = None  # frees the inputs of large items
    if speed is not None:
        speed.probe()
    return perf() - start


def check_items(items, known_defects) -> dict:
    failed = Counter()
    examples = {}
    for item in items:
        reason = item.error
        if reason is None:
            try:
                reason = item.check(item)
            except Exception as exc:  # a check that cannot run fails its item
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failed[item.kind] += 1
            examples.setdefault(item.kind, (reason, item.data.get("argv")))
    unexpected = sorted(k for k in failed if k not in known_defects)
    return {
        "attempted": len(items),
        "failed": sum(failed.values()),
        "failed_kinds": dict(sorted(failed.items())),
        "examples": examples,
        "unexpected": unexpected,
        "correct": not unexpected,
    }


def percentile(sorted_values, q: float) -> float:
    """Inverted-CDF percentile: the smallest value with at least q of the sample at or below it."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def timed_run(wl, first, seconds: float) -> dict:
    """Run the seed's fixed item list: wl.blocks(seconds) blocks, block 0 being `first`."""
    speed, items, wall = Speed(wl.memory_probe), [], 0.0
    for b in range(wl.blocks(seconds)):
        block = first if b == 0 else wl.block(b)
        speed.probe()  # block generation ran since the last probe
        wall += run_block(block, speed=speed)
        items += block
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw = sorted(item.latency for item in items)
    scaled = sorted(speed.scaled(item) for item in items)
    return {
        "items": items,
        "blocks": len(items) // len(first),
        "wall_s": wall,
        "items_per_s": len(items) / math.fsum(scaled),
        "item_p50_ms": 1e3 * percentile(scaled, 0.5),
        "item_p90_ms": 1e3 * percentile(scaled, 0.9),
        "beyond_p90": len(scaled) - math.ceil(0.9 * len(scaled)),
        "peak_rss_mib": peak_kib / 1024.0,
        "median_slowness": statistics.median(speed.cpu),
        "unscaled": {
            "items_per_s": len(items) / math.fsum(raw),
            "item_p50_ms": 1e3 * percentile(raw, 0.5),
            "item_p90_ms": 1e3 * percentile(raw, 0.9),
        },
    }


def traced_run(wl, first, seconds: float, modules: dict) -> dict:
    """Trace a fixed number of blocks and run an untraced copy of each for the
    overhead, then replay them for the memory peak of constants calls if any.

    Traced and untraced copies of a block alternate which goes first. Blocks
    are generated while no wrapper is installed: generation calls the program.
    """
    from tracing import METRICS, Tracer

    n_blocks = max(1, wl.blocks(seconds) // 2)
    tracer = Tracer(modules)
    items, traced_wall, untraced_wall = [], 0.0, 0.0
    for b in range(n_blocks):
        block = first if b == 0 else wl.block(b)
        copy = wl.block(b)
        if b % 2:
            untraced_wall += run_block(copy, keep=False)
        tracer.install()
        try:
            traced_wall += run_block(block, tracer, base=len(items))
        finally:
            tracer.uninstall()
        if not b % 2:
            untraced_wall += run_block(copy, keep=False)
        items += block
    peak_bytes = 0
    if tracer.layer_entries["constants"]:
        memory = Tracer(modules, memory=True)
        for b in range(n_blocks):
            block = wl.block(b)
            memory.install()
            try:
                run_block(block, keep=False)
            finally:
                memory.uninstall()
        peak_bytes = memory.peak_bytes
    cli_bytes = sum(len(i.result[1].encode()) for i in items if "argv" in i.data and i.result is not None)
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"trace-{wl.name}.npz")
    layers = tracer.metrics(traced_wall / untraced_wall, cli_bytes, peak_bytes)
    return {
        "items": items,
        "blocks": n_blocks,
        "layers": {name: {"value": value, "unit": METRICS[name][0]} for name, value in layers.items()},
        "spans": len(tracer.span_end),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import weightlab

    if not Path(weightlab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"weightlab imported from {weightlab.__file__}, not from this checkout", file=sys.stderr)
        return 1
    from tracing import LAYERS
    from workloads import KNOWN_DEFECT_KINDS, WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.setup()
        first = wl.block(0)
        run_block(wl.warmups(), keep=False)
        setup_raw = time.monotonic() - args.t0
        setup_probe = statistics.median(cpu_probe() for _ in range(SETUP_PROBES))
        setup_s = setup_raw * CPU_PROBE_REFERENCE_S / setup_probe
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
            return 0
        if args.trace:
            modules = {name: importlib.import_module(f"weightlab.{name}") for name in LAYERS}
            res = traced_run(wl, first, args.seconds, modules)
        else:
            res = timed_run(wl, first, args.seconds)
        res.update(check_items(res.pop("items"), KNOWN_DEFECT_KINDS))
        res["setup_s"], res["setup_raw_s"] = setup_s, setup_raw
        res["env"] = {"python": platform.python_version(), "numpy": np.__version__}
        print(json.dumps(res))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
