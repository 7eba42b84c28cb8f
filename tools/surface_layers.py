"""Time the surface layers (evaluate_many, the array Hessian, the tangent check, the sweep) in one or more source trees.

    python tools/surface_layers.py SRC [SRC ...] [--rounds 6] [--blocks 2] [--seed 5]

Each tree runs from a fresh copy laid out by tools/_ab.py, and each round
runs every tree once, in _ab's alternating order, each run in a fresh
interpreter that imports the copy's weightlab.  A run times every case as
the best of three calls, in wall time and in the thread's CPU time, after
one call that is not timed.  The cases:

- ``evaluate_many`` on each surface, in each of the benchmark's q bands
  (``bench/workloads.py``'s ``SURFACE_Q``, q at the band's geometric middle,
  GEHRING's eps halfway up its range), at 10,000 and 60,000 points drawn as
  the surface workload draws them: x in [0.3, 3], heights 1% to 99% of the
  domain;
- ``hessian`` at the points of a 100 x 100 ``interior_grid``, per surface at
  the lower band's middle q;
- ``tangent_linearity_excess`` at 300 tangent abscissae, 33 samples each;
- ``sharpness_sweep`` of 600 log-uniform q in [0.05, 700], and ``weightlab
  sweep`` of the same list through ``cli.main``, CSV as the benchmark asks.

Then the run takes the surface workload's block mix: ``--blocks`` blocks of
``bench/workloads.py``'s ``Surface`` at ``--seed``, each item called once
and timed, after the workload's warm-ups.  Its 90th percentile is the
benchmark's (inverted CDF over the run's items), unscaled.

Printed: per case the median over rounds of each tree's time, wall and CPU,
in milliseconds, and against the first tree the median ratio, its quartiles
over the rounds and how many rounds the tree was faster (_ab's reducer); then
the same for the block mix's p90, its median item and its items' total.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import tempfile
import time
from pathlib import Path

import _ab

REPO = Path(__file__).resolve().parent.parent
SIZES = (10_000, 60_000)


def clocks(call) -> tuple[float, float]:
    """(wall, thread CPU) seconds of one call."""
    w0, c0 = time.perf_counter(), time.thread_time()
    call()
    return time.perf_counter() - w0, time.thread_time() - c0


def cases(seed: int) -> dict:
    """Case name -> a call of the weightlab on sys.path."""
    import numpy as np

    from weightlab import bellman, extremals, solvers
    from workloads import SURFACE_Q, run_cli

    rng, out = np.random.default_rng(seed), {}
    kinds = {name: bellman.SurfaceKind[name.upper().replace("-", "_")] for name in SURFACE_Q}

    def surface(name, q):
        eps = 0.5 / (solvers.gamma_entropy_roots(q)[1].root - 1.0) if name == "gehring" else None
        return bellman.BellmanSurface(kinds[name], q, eps=eps)

    for name, bands in SURFACE_Q.items():
        for band, (lo, hi) in bands.items():
            s = surface(name, math.sqrt(lo * hi))
            for n in SIZES:
                x, f = rng.uniform(0.3, 3.0, n), rng.uniform(0.01, 0.99, n)
                y = x * np.log(x) + f * s.q * x if s.entropy_coordinates else np.log(x) - f * math.log(s.q)
                out[f"evaluate_many {name}{band} {n}"] = lambda s=s, x=x, y=y: bellman.evaluate_many(s, x, y)
        s = surface(name, math.sqrt(bands[""][0] * bands[""][1]))
        x, y = bellman.interior_grid(s, 100, 100)
        out[f"hessian {name} 10000"] = lambda s=s, x=x, y=y: bellman.hessian(s, x, y)
        v = np.exp(rng.uniform(-2.0, 2.0, 300))
        out[f"tangent {name} 300"] = lambda s=s, v=v: bellman.tangent_linearity_excess(s, v)
    qs = tuple(np.exp(rng.uniform(math.log(0.05), math.log(700.0), 600)).tolist())
    out["sharpness_sweep 600"] = lambda: extremals.sharpness_sweep(qs)
    argv = ["sweep", "--q-list", ",".join(map(repr, qs))]
    out["cli sweep 600"] = lambda: run_cli(argv)
    return out


def block_mix(seed: int, blocks: int) -> list[tuple[float, float]]:
    """(wall, CPU) seconds of each item of the surface workload's first `blocks` blocks."""
    from workloads import Surface

    with tempfile.TemporaryDirectory() as tmp:
        wl = Surface(seed, Path(tmp))
        wl.setup()
        for item in wl.warmups():
            item.call()
        return [clocks(item.call) for b in range(blocks) for item in wl.block(b)]


def run(src: str, seed: int, blocks: int) -> dict:
    sys.path[:0] = [src, str(REPO / "bench")]
    out = {}
    for case, call in cases(seed).items():
        call()
        best = [min(t) for t in zip(*(clocks(call) for _ in range(3)))]
        out[case] = best
    items = block_mix(seed, blocks)
    for k, label in enumerate(("wall", "cpu")):
        times = sorted(t[k] for t in items)
        out[f"block p90 {label}"] = times[math.ceil(0.9 * len(times)) - 1]
        out[f"block p50 {label}"] = times[math.ceil(0.5 * len(times)) - 1]
        out[f"block sum {label}"] = math.fsum(times)
    return out


def summary(times: list[list], key, case: str) -> str:
    line = "".join(f" {1e3 * statistics.median(key(t[case]) for t in runs):9.3f}" for runs in times)
    for runs in times[1:]:
        line += f"   {_ab.versus([key(t[case]) for t in times[0]], [key(t[case]) for t in runs])}"
    return line


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="+")
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--blocks", type=int, default=2)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    with _ab.laid_out(args.src) as roots:
        times = _ab.alternate(args.rounds, roots, lambda root: _ab.fresh(run, str(root), args.seed, args.blocks))
    print(f"{args.rounds} rounds, a fresh interpreter per run; median ms, then ratio [quartiles] against {args.src[0]}")
    for case in times[0][0]:
        if case.startswith("block"):
            print(f"{case:<34}" + summary(times, lambda t: t, case))
            continue
        for k, label in enumerate(("wall", "cpu")):
            print(f"{case + ' ' + label:<34}" + summary(times, lambda t, k=k: t[k], case))
    return 0


if __name__ == "__main__":
    sys.exit(main())
