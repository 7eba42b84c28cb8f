"""Time the pair walk of rh1, A_inf, RH_p and A_p and the two nested scans in one or more source trees.

    python tools/scan_layers.py SRC [SRC ...] [--rounds 5] [--resolutions 401,1201,2001] [--cpus 1,2]
        [--p 2,2.37] [--one-interpreter]

Each round runs every tree once, in alternating order (the first tree first
in even rounds, last in odd ones).  By default each run is a fresh
interpreter that times every case; with --one-interpreter one interpreter
loads each tree's package under its own module name and, case by case,
calls the trees in the round's order, so that the trees share one process
and its layout.  A case is timed as the best of three calls, each divided
by the median of a CPU probe (the one bench/worker.py scales latencies by)
timed just before and after.  The cases are:

- ``constants._scans`` with rh1, ainf, rhp and ap at each p on four fixed
  weights at each resolution and usable-CPU count (``_usable_cpus`` is
  patched to return it, and the walk's chunks follow it): steps, a power, a
  power rising to a constant, and a singular spike at 0 glued to a constant
  (``spike``), whose maximum lies in the first chunk while every later
  chunk's rows tie on the tail;
- ``rh1_prime_constant`` at resolutions 32, 48 and 64 and
  ``rh1_doubleprime_constant`` at 24, 36 and 48, on the steps, the power
  (singular at 0) and the rising power.

Printed: per tree and case the median over rounds of the probe-normalised
time, in milliseconds at the probe's reference speed, and against the first
tree the median ratio, its quartiles over the rounds and how many rounds the
tree was faster.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

# seconds the probe takes on a quiet reference machine; normalised times read at that speed
PROBE_REFERENCE_S = 0.6e-3
NESTED = {"rh1_prime": (32, 48, 64), "rh1_doubleprime": (24, 36, 48)}


def cpu_probe() -> float:
    """Seconds a fixed slice of interpreter and in-cache numpy work takes now."""
    import numpy as np

    t0 = time.perf_counter()
    x = 0.0
    for i in range(1, 3000):
        x += math.log(i) / i
    np.log(np.cumsum(np.linspace(1.0, 2.0, 20_000))).sum()
    return time.perf_counter() - t0


def load(src: str, name: str):
    """The weightlab package in the directory src, imported as the module `name`."""
    pkg = Path(src) / "weightlab"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def cases(wl, resolutions: list[int], cpus: list[int], ps: list[float]) -> dict:
    """Case name -> a call of the package wl, after one set-up call."""
    constants, W = wl.constants, wl.weights
    ws = {
        "step": W.step_weight((0.0, 0.2, 0.45, 0.7, 1.0), (0.3, 4.0, 1.2, 7.5)),
        "power": W.power_weight(1.3, -0.6),
        "glued": W.Weight((W.PowerPiece(W.Interval(0.0, 0.4), 2.0 / 0.4**0.8, 0.8),
                           W.PowerPiece(W.Interval(0.4, 1.0), 2.0, 0.0))),
        "spike": W.Weight((W.PowerPiece(W.Interval(0.0, 0.1), 1.0, -0.3),
                           W.PowerPiece(W.Interval(0.1, 1.0), 0.1**-0.3, 0.0))),
    }
    constants._scans([("rh1", None), ("ainf", None), ("rhp", 2.0), ("ap", 2.0)], ws["glued"], 201)  # set-up

    def scan(specs, w, r, k):
        constants._usable_cpus = lambda: k
        constants._scans(specs, w, r)

    out = {}
    for p in ps:
        specs = [("rh1", None), ("ainf", None), ("rhp", p), ("ap", p)]
        for k in cpus:
            for r in resolutions:
                for name, w in ws.items():
                    w = constants._centred(w)[0]
                    out[f"p={p:g} R={r} cpus={k} {name}"] = lambda specs=specs, w=w, r=r, k=k: scan(specs, w, r, k)
    for fn, sizes in NESTED.items():
        for r in sizes:
            for name in ("step", "power", "glued"):
                out[f"{fn} R={r} {name}"] = lambda f=getattr(constants, fn + "_constant"), w=ws[name], r=r: f(w, r)
    return out


def timed(call) -> float:
    """Probe-normalised seconds of the best of three calls."""
    best = math.inf
    for _ in range(3):
        probes = [cpu_probe() for _ in range(5)]
        t0 = time.perf_counter()
        call()
        took = time.perf_counter() - t0
        probes += [cpu_probe() for _ in range(5)]
        best = min(best, took / (statistics.median(probes) / PROBE_REFERENCE_S))
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="+")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--resolutions", default="401,1201,2001")
    parser.add_argument("--cpus", default="1,2")
    parser.add_argument("--p", default="2,2.37", help="p of rhp and ap; 2 takes numpy's sqrt and identity paths")
    parser.add_argument("--one-interpreter", action="store_true",
                        help="load every tree into this interpreter and alternate them case by case")
    parser.add_argument("--run", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    sizes = ([int(v) for v in args.resolutions.split(",")], [int(v) for v in args.cpus.split(",")],
             [float(v) for v in args.p.split(",")])
    if args.run:
        print(json.dumps({case: timed(call) for case, call in cases(load(args.src[0], "weightlab"), *sizes).items()}))
        return 0
    times: dict[str, list[dict[str, float]]] = {src: [] for src in args.src}
    calls = {src: cases(load(src, f"weightlab_{k}"), *sizes) for k, src in enumerate(args.src)} if args.one_interpreter else {}
    for k in range(args.rounds):
        order = args.src if k % 2 == 0 else args.src[::-1]
        if args.one_interpreter:
            for src in order:
                times[src].append({})
            for case in calls[args.src[0]]:
                for src in order:
                    times[src][-1][case] = timed(calls[src][case])
            continue
        for src in order:
            cmd = [sys.executable, __file__, src, "--run", "--resolutions", args.resolutions, "--cpus", args.cpus,
                   "--p", args.p]
            times[src].append(json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout))
    base = args.src[0]
    where = "one interpreter" if args.one_interpreter else "a fresh interpreter per run"
    print(f"{args.rounds} rounds in {where}; median ms at the probe's reference speed; ratio [quartiles]")
    for case in times[base][0]:
        line = f"{case:<32}" + "".join(f" {1e3 * statistics.median(t[case] for t in times[src]):9.2f}" for src in args.src)
        for src in args.src[1:]:
            ratios = [new[case] / old[case] for old, new in zip(times[base], times[src])]
            q1, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")[::2] if len(ratios) > 1 else ratios * 2)
            line += (f"   x{statistics.median(ratios):.3f} [{q1:.3f}-{q3:.3f}]"
                     f" ({sum(q < 1.0 for q in ratios)}/{len(ratios)} faster)")
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
