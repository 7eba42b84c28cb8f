"""Alternating benchmark runs of a parent commit and this checkout, recorded as one JSON file.

    python tools/bench_record.py --parent REV --out BENCH_<n>.json \\
        --seeds surface=2701-2710 --seeds certify=2711-2715 [--seconds 15]

The parent is REV and the change this checkout's tracked files as they
stand (``git stash create``, or HEAD when clean), each exported with ``git
archive`` and laid out by tools/_ab.py: sibling directories of one temporary
directory, named at random with one length of path, which on its own moved
certify's probe-scaled ``items_per_s`` by up to 9% for identical code.  Files
not yet added to git are left out.  For each workload and seed the two sides
run ``bench/run.py --workload W --seed S --seconds T`` one after the other,
each from its own root (the benchmark imports that root's ``src``), in _ab's
alternating order: the parent first on even pairs and the change first on
odd ones.  ``bench/`` is read, never changed.

The file holds the run length, the seeds, both shas (the change's marked
dirty when its tree differs from HEAD) and the machine: CPU count and model,
Python, numpy, and the SIMD targets numpy dispatches to.  Per workload it
holds every run (metrics, correct, failed of attempted, which side ran
first) and, per end-to-end metric, each side's median and quartiles and the
number of pairs the change won in the metric's direction (``BENCHMARK.json``),
ties counting for neither (_ab's reducer).  A record, not a gate: it exits 0
whatever the runs read, and 1 only when a run prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import _ab

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_seeds(spec: str) -> tuple[str, list[int]]:
    """'surface=2701-2710' or 'scan=5,9' -> (workload, seeds)."""
    workload, _, seeds = spec.partition("=")
    out = []
    for part in seeds.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return workload, out


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=REPO, capture_output=True, text=True, check=True).stdout.strip()


def machine() -> dict:
    import numpy as np
    from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

    model = "unknown"
    try:
        model = next(line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                     if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpus": len(os.sched_getaffinity(0)), "cpu_model": model, "python": platform.python_version(),
        "numpy": np.__version__, "simd_baseline": list(__cpu_baseline__),
        "simd_dispatch": [t for t in __cpu_dispatch__ if __cpu_features__.get(t)],
    }


def run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    t0 = time.monotonic()
    res = _ab.run_json([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                        "--seconds", repr(seconds)], cwd=root, timeout=900)
    return {"metrics": {k: m["value"] for k, m in res["metrics"].items()}, "correct": res["correct"],
            "failed": res["failed"], "attempted": res["attempted"], "wall_s": round(time.monotonic() - t0, 1)}


def summary(runs: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for name, direction in better.items():
        sides = {side: [r[side]["metrics"][name] for r in runs] for side in SIDES}
        quartiles = {side: _ab.quartiles(vals) for side, vals in sides.items()}
        out[name] = {side: {"median": m, "q1": q1, "q3": q3} for side, (q1, m, q3) in quartiles.items()}
        out[name]["change_won"] = f"{_ab.wins(sides['parent'], sides['change'], direction)} of {len(runs)}"
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--seeds", action="append", required=True, help="WORKLOAD=LO-HI or WORKLOAD=A,B,...")
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    better = {m["name"]: m["better"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]}
    record = {
        "seconds": args.seconds,
        "parent": {"rev": args.parent, "sha": git("rev-parse", args.parent)},
        "change": {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "machine": machine(),
        "workloads": {},
    }
    with _ab.laid_out([args.parent, git("stash", "create") or "HEAD"], repo=REPO) as roots:
        for workload, seeds in map(parse_seeds, args.seeds):
            runs = []
            for seed, order in zip(seeds, _ab.orders(len(seeds), len(SIDES))):
                pair = {"seed": seed, "first": SIDES[order[0]]}
                try:
                    for i in order:
                        pair[SIDES[i]] = run(roots[i], workload, seed, args.seconds)
                except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
                    print(exc, file=sys.stderr)
                    return 1
                runs.append(pair)
                print(f"{workload} seed {seed}: items_per_s parent {pair['parent']['metrics']['items_per_s']:.1f}"
                      f" change {pair['change']['metrics']['items_per_s']:.1f}", flush=True)
            record["workloads"][workload] = {"seeds": seeds, "summary": summary(runs, better), "runs": runs}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
