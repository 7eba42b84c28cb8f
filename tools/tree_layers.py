"""Time the dyadic tree layers (build, chain_verify, print) in one or more source trees.

    python tools/tree_layers.py SRC [SRC ...] [--rounds 5] [--depths 0-14]

Each tree runs from a fresh copy laid out by tools/_ab.py, and each round
runs every tree in _ab's alternating order: depths below 12 in one fresh
interpreter, and each depth from 12 on in its own, so that the allocator
state the smaller trees leave does not set a deep tree's time.  A run times,
per case and depth, ``build_partition``, ``chain_verify`` on the built tree
and the printing of that tree as ``weightlab dyadic`` prints it
(``cli._tree_json``), taking the best of three timeit runs of each,
normalised by _ab's CPU probe.  The cases: flat,
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
import math
import statistics
import sys
import timeit

import _ab

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
                "print": lambda: cli._tree_json(tree),
            }
            for layer, fn in layers.items():
                number = max(1, int(0.02 / min(timeit.repeat(fn, number=1, repeat=2))))
                out[f"{layer} {name} {depth}"] = _ab.probed(
                    lambda: min(timeit.repeat(fn, number=number, repeat=3)) / number, 3)
    return out


def _depths(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="+")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--depths", default="0-14", help="a depth or a range, as 0-14")
    args = parser.parse_args()
    depths = _depths(args.depths)
    small = [d for d in depths if d < FRESH_DEPTH]
    runs = ([small] if small else []) + [[d] for d in depths if d >= FRESH_DEPTH]

    def every_run(root) -> dict[str, float]:
        return {case: t for run_depths in runs for case, t in _ab.fresh(run, str(root), run_depths).items()}

    with _ab.laid_out(args.src) as roots:
        times = _ab.alternate(args.rounds, roots, every_run)
    groups: dict[str, list[str]] = {}
    for name, group, *_ in CASES:
        groups.setdefault(group, []).append(name)
    print(f"{args.rounds} rounds; median ms per tree at the probe's reference speed; ratios against {args.src[0]}")
    for layer in ("build", "chain", "print"):
        for group, names in groups.items():
            for depth in depths:
                keys = [f"{layer} {name} {depth}" for name in names]
                line = f"{layer:<6}{group:<7}{depth:>3}" + "".join(
                    f" {1e3 * statistics.median(t[key] for key in keys for t in side):10.3f}" for side in times)
                for side in times[1:]:
                    cases = [_ab.versus([t[key] for t in times[0]], [t[key] for t in side]) for key in keys]
                    medians = [v.ratio for v in cases]
                    line += (f"   x{statistics.median(medians):.3f} (max x{max(medians):.3f},"
                             f" {sum(v.won for v in cases)}/{sum(v.rounds for v in cases)} faster)")
                print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
