"""weightlab benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload scan|certify|surface --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
Every run starts fresh worker processes, one at a time, with BLAS/OpenMP
threads pinned to 1 and WEIGHTLAB_THREADS removed. The first SETUPS - 1
workers only set up (import, generate inputs, warm up each item kind); the
last one sets up the same way and then runs the seed's fixed item list,
sized from --seconds. setup_s is the median of the SETUPS set-up times.
Reported times are scaled to a reference machine speed measured by a probe
run between items (see worker.py); the unscaled ones are printed as well.

With --trace 0 the last line printed is the JSON result holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a traced
run (spans are written to bench/out/trace-<workload>.npz). The lines before
it repeat the metrics for people, with the environment and the failing item
kinds. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("scan", "certify", "surface")
SETUPS = 11
DEADLINE_S = 170.0
PINNED_THREADS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# name -> unit of the end-to-end metrics, in BENCHMARK.json order
END_TO_END = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ok_ratio": "ratio",
}


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "WEIGHTLAB_THREADS"}
    env.update({var: "1" for var in PINNED_THREADS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def machine() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu": platform_cpu()}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info[f"l{level}"] = size
    return info


def platform_cpu() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def start_worker(args, env, deadline: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - t0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "weightlab" / "__init__.py").is_file():
        print(f"no weightlab package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = worker_env()
    try:
        setups, raw_setups = [], []
        for _ in range(SETUPS - 1):
            one = start_worker(args, env, deadline, True)
            setups.append(one["setup_s"])
            raw_setups.append(one["setup_raw_s"])
        res = start_worker(args, env, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])
    raw_setups.append(res["setup_raw_s"])

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps({**res["env"], **machine()}))
    if args.trace:
        print(f"traced {res['blocks']} blocks, {res['attempted']} items, {res['spans']} spans")
        metrics = res["layers"]
    else:
        res["setup_s"] = statistics.median(setups)
        res["ok_ratio"] = 1.0 - res["failed"] / res["attempted"]
        print(f"timed {res['blocks']} blocks of 25 items, {res['attempted']} items in {res['wall_s']:.3f} s; "
              f"{res['beyond_p90']} items beyond the 90th percentile; median probe slowness {res['median_slowness']:.4f}")
        unscaled = {**res["unscaled"], "setup_s": statistics.median(raw_setups)}
        print("unscaled " + " ".join(f"{k} {v:.6g}" for k, v in unscaled.items()))
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"error_rate {res['failed'] / res['attempted']:.6g} ({res['failed']} of {res['attempted']} items failed)")
    for kind, count in res["failed_kinds"].items():
        reason, argv = res["examples"][kind]
        label = "UNEXPECTED" if kind in res["unexpected"] else "known defect"
        print(f"  failed {kind} x{count} ({label}): {reason}" + (f" [weightlab {' '.join(argv)}]" if argv else ""))
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
