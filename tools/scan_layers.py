"""Time the shared pair walk of rh1, A_inf, RH_p and A_p in one or more source trees.

    python tools/scan_layers.py SRC [SRC ...] [--rounds 5] [--resolutions 401,1201,2001] [--cpus 1,2]
        [--p 2,2.37]

Each round runs every tree once, in a fresh interpreter, in alternating
order (the first tree first in even rounds, last in odd ones).  A run times
``constants._scans`` with rh1, ainf, rhp and ap at each p on three fixed
weights (steps, a power, a spike glued to a constant) at each resolution and
usable-CPU count, taking the best of three calls per case, and divides it by
the median of a CPU probe (the one bench/worker.py scales latencies by)
timed just before and after.  The walk's chunks follow the CPU count, as
``_usable_cpus`` is patched to return it.  Printed:
per tree and case the median over rounds of the probe-normalised time, in
milliseconds at the probe's reference speed, and against the first tree the
median ratio and how many rounds the tree was faster.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time

# seconds the probe takes on a quiet reference machine; normalised times read at that speed
PROBE_REFERENCE_S = 0.6e-3


def cpu_probe() -> float:
    """Seconds a fixed slice of interpreter and in-cache numpy work takes now."""
    import numpy as np

    t0 = time.perf_counter()
    x = 0.0
    for i in range(1, 3000):
        x += math.log(i) / i
    np.log(np.cumsum(np.linspace(1.0, 2.0, 20_000))).sum()
    return time.perf_counter() - t0


def run(src: str, resolutions: list[int], cpus: list[int], ps: list[float]) -> dict[str, float]:
    """Case name -> probe-normalised seconds of one _scans call, for the weightlab under src."""
    sys.path.insert(0, src)
    from weightlab import constants, weights

    ws = {
        "step": weights.step_weight((0.0, 0.2, 0.45, 0.7, 1.0), (0.3, 4.0, 1.2, 7.5)),
        "power": weights.power_weight(1.3, -0.6),
        "glued": weights.Weight((weights.PowerPiece(weights.Interval(0.0, 0.4), 2.0 / 0.4**0.8, 0.8),
                                 weights.PowerPiece(weights.Interval(0.4, 1.0), 2.0, 0.0))),
    }
    constants._scans([("rh1", None), ("ainf", None), ("rhp", 2.0), ("ap", 2.0)], ws["glued"], 201)  # set-up
    out = {}
    for p in ps:
        specs = [("rh1", None), ("ainf", None), ("rhp", p), ("ap", p)]
        for k in cpus:
            constants._usable_cpus = lambda k=k: k
            for r in resolutions:
                for name, w in ws.items():
                    w = constants._centred(w)[0]
                    best = math.inf
                    for _ in range(3):
                        probes = [cpu_probe() for _ in range(5)]
                        t0 = time.perf_counter()
                        constants._scans(specs, w, r)
                        took = time.perf_counter() - t0
                        probes += [cpu_probe() for _ in range(5)]
                        best = min(best, took / (statistics.median(probes) / PROBE_REFERENCE_S))
                    out[f"p={p:g} R={r} cpus={k} {name}"] = best
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="+")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--resolutions", default="401,1201,2001")
    parser.add_argument("--cpus", default="1,2")
    parser.add_argument("--p", default="2,2.37", help="p of rhp and ap; 2 takes numpy's sqrt and identity paths")
    parser.add_argument("--run", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    resolutions = [int(v) for v in args.resolutions.split(",")]
    cpus = [int(v) for v in args.cpus.split(",")]
    if args.run:
        print(json.dumps(run(args.src[0], resolutions, cpus, [float(v) for v in args.p.split(",")])))
        return 0
    times: dict[str, list[dict[str, float]]] = {src: [] for src in args.src}
    for k in range(args.rounds):
        for src in args.src if k % 2 == 0 else args.src[::-1]:
            cmd = [sys.executable, __file__, src, "--run", "--resolutions", args.resolutions, "--cpus", args.cpus,
                   "--p", args.p]
            times[src].append(json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout))
    base = args.src[0]
    print(f"{args.rounds} rounds; median ms at the probe's reference speed")
    for case in times[base][0]:
        line = f"{case:<32}" + "".join(f" {1e3 * statistics.median(t[case] for t in times[src]):9.2f}" for src in args.src)
        for src in args.src[1:]:
            ratios = [new[case] / old[case] for old, new in zip(times[base], times[src])]
            line += f"   x{statistics.median(ratios):.3f} ({sum(q < 1.0 for q in ratios)}/{len(ratios)} faster)"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
