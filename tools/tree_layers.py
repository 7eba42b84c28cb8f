"""Time the dyadic tree layers (build, chain_verify, print) in one or more source trees.

    python tools/tree_layers.py SRC [SRC ...] [--rounds 5] [--depths 0-14]

Each round runs every tree in alternating order (the first tree first in
even rounds, last in odd ones): depths below 12 in one fresh interpreter,
and each depth from 12 on in its own, so that the allocator state the
smaller trees leave does not set a deep tree's time.  A run times, per
case and depth, ``build_partition``, ``chain_verify`` on the
built tree and the printing of that tree as ``weightlab dyadic`` prints it
(``cli._tree_json``; in a tree without it, ``cli._json`` of
``cli._node_json``'s dict), taking the best of three timeit runs of each,
normalised by the CPU probe of tools/scan_layers.py.  The cases: flat,
step, power and glued weights at a q where every cut is 1/2 (group
``halves``), in both modes; w(t) = t at its log-mode constant q = e/2 and
at 1.02 times its grid entropy-mode constant, where cuts move off 1/2
(group ``moved``).
Printed: per layer, group and depth, the group's median time per tree in
milliseconds at the probe's reference speed, and against the first tree
the median over the group's cases of each case's median ratio over rounds,
its largest, and how many of the group's case-rounds were faster.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import timeit

from scan_layers import PROBE_REFERENCE_S, cpu_probe


# depths from here on run in a fresh interpreter each
FRESH_DEPTH = 12
# name -> weight, from the weights module of the tree under test
HALVES = {
    "flat": lambda wl: wl.power_weight(3.0, 0.0),
    "step": lambda wl: wl.step_weight((0.0, 0.2, 0.45, 0.7, 1.0), (0.3, 4.0, 1.2, 7.5)),
    "power": lambda wl: wl.power_weight(1.3, -0.6),
    "glued": lambda wl: wl.Weight((wl.PowerPiece(wl.Interval(0.0, 0.4), 2.0 / 0.4**0.8, 0.8),
                                   wl.PowerPiece(wl.Interval(0.4, 1.0), 2.0, 0.0))),
}
# (name, group, weight, mode, q, q1)
CASES = [(f"{name}-{mode}", "halves", w, mode, q, 1.3 * q)
         for name, w in HALVES.items() for mode, q in (("log", 40.0), ("entropy", 6.0))] + [
    ("linear-log", "moved", lambda wl: wl.power_weight(1.0, 1.0), "log", math.e / 2.0, 1.02 * math.e / 2.0),
    ("linear-entropy", "moved", lambda wl: wl.power_weight(1.0, 1.0), "entropy", 0.207, 1.03 * 0.207),
]


def run(src: str, depths: list[int]) -> dict[str, float]:
    """Case name -> probe-normalised seconds of one call, per layer, case and depth, for the weightlab under src."""
    sys.path.insert(0, src)
    from weightlab import bellman, cli, dyadic, solvers, weights

    def printer(tree):
        if hasattr(cli, "_tree_json"):
            return lambda: cli._tree_json(tree)
        return lambda: cli._json(cli._node_json(tree.root), "\n  ")

    out = {}
    for name, _, weight, mode, q, q1 in CASES:
        w = weight(weights)
        cfg, split_mode = dyadic.SplitConfig(q, q1), dyadic.SplitMode(mode)
        if mode == "log":
            surface = bellman.BellmanSurface(bellman.SurfaceKind.AINF_UPPER, q1)
        else:
            eps = 0.5 / (solvers.gamma_entropy_roots(q1)[1].root - 1.0)
            surface = bellman.BellmanSurface(bellman.SurfaceKind.GEHRING, q1, eps=eps)
        for depth in depths:
            tree = dyadic.build_partition(w, cfg, split_mode, depth)
            layers = {
                "build": lambda: dyadic.build_partition(w, cfg, split_mode, depth),
                "chain": lambda: dyadic.chain_verify(surface, w, tree),
                "print": printer(tree),
            }
            for layer, fn in layers.items():
                number = max(1, int(0.02 / min(timeit.repeat(fn, number=1, repeat=2))))
                probes = [cpu_probe() for _ in range(3)]
                took = min(timeit.repeat(fn, number=number, repeat=3)) / number
                probes += [cpu_probe() for _ in range(3)]
                out[f"{layer} {name} {depth}"] = took / (statistics.median(probes) / PROBE_REFERENCE_S)
    return out


def _depths(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="+")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--depths", default="0-14", help="a depth or a range, as 0-14")
    parser.add_argument("--run", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    depths = _depths(args.depths)
    if args.run:
        print(json.dumps(run(args.src[0], depths)))
        return 0
    small = [d for d in depths if d < FRESH_DEPTH]
    runs = ([f"{small[0]}-{small[-1]}"] if small else []) + [str(d) for d in depths if d >= FRESH_DEPTH]
    times: dict[str, list[dict[str, float]]] = {src: [] for src in args.src}
    for k in range(args.rounds):
        for src in args.src if k % 2 == 0 else args.src[::-1]:
            times[src].append({})
            for run_depths in runs:
                cmd = [sys.executable, __file__, src, "--run", "--depths", run_depths]
                times[src][-1].update(json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout))
    base = args.src[0]
    groups: dict[str, list[str]] = {}
    for name, group, *_ in CASES:
        groups.setdefault(group, []).append(name)
    print(f"{args.rounds} rounds; median ms per tree at the probe's reference speed; ratios against {base}")
    for layer in ("build", "chain", "print"):
        for group, names in groups.items():
            for depth in depths:
                keys = [f"{layer} {name} {depth}" for name in names]
                line = f"{layer:<6}{group:<7}{depth:>3}" + "".join(
                    f" {1e3 * statistics.median(t[key] for key in keys for t in times[src]):10.3f}" for src in args.src)
                for src in args.src[1:]:
                    ratios = [[new[key] / old[key] for old, new in zip(times[base], times[src])] for key in keys]
                    medians = [statistics.median(r) for r in ratios]
                    faster = sum(q < 1.0 for r in ratios for q in r)
                    line += (f"   x{statistics.median(medians):.3f} (max x{max(medians):.3f},"
                             f" {faster}/{sum(map(len, ratios))} faster)")
                print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
