"""Time the pair walk of rh1, A_inf, RH_p and A_p and the two nested scans in one or more source trees.

    python tools/scan_layers.py SRC [SRC ...] [--rounds 5] [--resolutions 401,1201,2001] [--p 2,2.37]
        [--one-interpreter]

Each tree runs from a fresh copy laid out by tools/_ab.py, and each round
runs every tree once, in _ab's alternating order.  By default each run is a
fresh interpreter that times every case; with --one-interpreter one
interpreter loads each copy's package under its own module name and, case by
case, calls the trees in the round's order, so that the trees share one
process.  A case is timed as the best of three calls, each divided by the
median of _ab's CPU probe (the one bench/worker.py scales latencies by)
timed just before and after.  The cases are:

- ``constants._scans`` with rh1, ainf, rhp and ap at each p on four fixed
  weights at each resolution: steps, a power, a power rising to a constant,
  and a singular spike at 0 glued to a constant (``spike``), whose maximum
  lies on the first rows, so that the running best skips the tail's blocks,
  whose pairs tie below it;
- ``rh1_prime_constant`` at resolutions 32, 48 and 64 and
  ``rh1_doubleprime_constant`` at 24, 36 and 48, on the steps, the power
  (singular at 0) and the rising power.

Printed: per tree and case the median over rounds of the probe-normalised
time, in milliseconds at the probe's reference speed, and against the first
tree the median ratio, its quartiles over the rounds and how many rounds the
tree was faster (_ab's reducer).
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import _ab

NESTED = {"rh1_prime": (32, 48, 64), "rh1_doubleprime": (24, 36, 48)}


def load(src: str, name: str):
    """The weightlab package in the directory src, imported as the module `name`."""
    pkg = Path(src) / "weightlab"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def cases(wl, resolutions: list[int], ps: list[float]) -> dict:
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

    out = {}
    for p in ps:
        specs = [("rh1", None), ("ainf", None), ("rhp", p), ("ap", p)]
        for r in resolutions:
            for name, w in ws.items():
                w = constants._centred(w)[0]
                out[f"p={p:g} R={r} {name}"] = lambda specs=specs, w=w, r=r: constants._scans(specs, w, r)
    for fn, sizes in NESTED.items():
        for r in sizes:
            for name in ("step", "power", "glued"):
                out[f"{fn} R={r} {name}"] = lambda f=getattr(constants, fn + "_constant"), w=ws[name], r=r: f(w, r)
    return out


def timed(call) -> float:
    """Probe-normalised seconds of the best of three calls."""

    def took() -> float:
        t0 = time.perf_counter()
        call()
        return time.perf_counter() - t0

    return min(_ab.probed(took, 5) for _ in range(3))


def run(src: str, resolutions: list[int], ps: list[float]) -> dict[str, float]:
    """Case name -> probe-normalised seconds, for the weightlab under src (one fresh interpreter's run)."""
    return {case: timed(call) for case, call in cases(load(src, "weightlab"), resolutions, ps).items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="+")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--resolutions", default="401,1201,2001")
    parser.add_argument("--p", default="2,2.37", help="p of rhp and ap; 2 takes numpy's sqrt and identity paths")
    parser.add_argument("--one-interpreter", action="store_true",
                        help="load every tree into this interpreter and alternate them case by case")
    args = parser.parse_args()
    sizes = ([int(v) for v in args.resolutions.split(",")], [float(v) for v in args.p.split(",")])
    with _ab.laid_out(args.src) as roots:
        if args.one_interpreter:
            calls = [cases(load(str(root), f"weightlab_{k}"), *sizes) for k, root in enumerate(roots)]
            times: list[list[dict[str, float]]] = [[] for _ in roots]
            for order in _ab.orders(args.rounds, len(roots)):
                for i in order:
                    times[i].append({})
                for case in calls[0]:
                    for i in order:
                        times[i][-1][case] = timed(calls[i][case])
        else:
            times = _ab.alternate(args.rounds, roots, lambda root: _ab.fresh(run, str(root), *sizes))
    where = "one interpreter" if args.one_interpreter else "a fresh interpreter per run"
    print(f"{args.rounds} rounds in {where}; median ms at the probe's reference speed; ratio [quartiles]")
    for case in times[0][0]:
        line = f"{case:<32}" + "".join(f" {1e3 * statistics.median(t[case] for t in runs):9.2f}" for runs in times)
        for runs in times[1:]:
            line += f"   {_ab.versus([t[case] for t in times[0]], [t[case] for t in runs])}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
