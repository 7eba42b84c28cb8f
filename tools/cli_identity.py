"""Byte-identity of the CLI between two source trees.

    python tools/cli_identity.py OLD_SRC NEW_SRC

runs one fixed set of ``weightlab`` command lines in process against each
tree (one fresh interpreter per tree) and compares stdout, stderr and exit
code, run by run.  The set: ``bellman --verify bounds`` at 43 q from 1 + 1e-9
to 1e300, each at grids 2, 5 and 33, and its refusals; ``--verify tangent``
and ``--verify hessian`` at q spread over the benchmark's bands and past
them, at grids -1 to 24; ``dyadic --verify`` on 24 corpus weights in both
modes, JSON and CSV, with and without ``--eps``, and at a q the weight
exceeds; ``selftest``.

Each difference is put in one of the kinds a change may declare (see
``KINDS``) or in ``other``; the script prints the count per kind and every
``other`` run, and exits 1 if there is one.  ``--allow`` names the kinds the
change under test intends, default none.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path


def _log_space(lo: float, hi: float, n: int) -> list[float]:
    return [float(lo * (hi / lo) ** (k / (n - 1))) for k in range(n)]


# the benchmark's surface q bands (bench/workloads.py SURFACE_Q), and q past them
BANDS = {
    "ainf-upper": [(1.5, 100.0), (1e3, 1e6), (1e8, 1e300)],
    "gehring": [(0.05, 20.0), (50.0, 700.0)],
    "ainf-lower": [(0.05, 10.0), (80.0, 250.0), (300.0, 708.9)],
}


def cases(workdir: Path) -> list[list[str]]:
    """The command lines, with the corpus weight files written to workdir."""
    from weightlab import constants, solvers, weights

    runs = []
    bounds_q = [1.0 + 1e-9, 1.0 + 1e-6, 1.001, 1.01, *_log_space(1.05, 1.88, 8), 1.9, 2.0, math.e,
                *_log_space(3.0, 1e6, 20), 1e10, 1e30, 1e100, 1e150, 1e200, 1e250, 1e290, 1e300]
    for q in bounds_q:
        for grid in (2, 5, 33):
            runs.append(["bellman", "--surface", "ainf-upper", "--q", repr(q), "--verify", "bounds", "--grid", str(grid)])
    for grid in ("-1", "0", "1"):
        runs.append(["bellman", "--surface", "ainf-upper", "--q", "2.0", "--verify", "bounds", "--grid", grid])
    for other in (["gehring", "--q", "1.0", "--eps", "0.3"], ["ainf-lower", "--q", "2.0"]):
        for grid in ("1", "8"):
            runs.append(["bellman", "--surface", *other, "--verify", "bounds", "--grid", grid])

    for surface, bands in BANDS.items():
        for lo, hi in bands:
            for q in _log_space(lo, hi, 5):
                args = ["--surface", surface, "--q", repr(q)]
                if surface == "gehring":
                    args += ["--eps", repr(0.5 / (solvers.gamma_entropy_roots(q)[1].root - 1.0))]
                for what, grids in (("tangent", (-1, 0, 1, 2, 8, 24)), ("hessian", (-1, 1, 2, 8, 16))):
                    runs += [["bellman", *args, "--verify", what, "--grid", str(g)] for g in grids]

    for k, w in enumerate(weights.reference_corpus(24)):
        path = workdir / f"corpus{k}.json"
        weights.save_weight(w, str(path))
        rep = constants.compute_report(w, resolution=101)
        ainf, rh1 = rep.ainf[0], rep.rh1[0]
        for mode, q, exceeded in (
            ("log", max(1.05, 1.2 * ainf), 1.0 + 0.5 * (ainf - 1.0)),
            ("entropy", max(0.05, 1.2 * rh1 + 0.01), 0.5 * rh1 + 1e-3),
        ):
            for qq in (q, exceeded):
                base = ["dyadic", "--weight", str(path), "--mode", mode, "--q", repr(qq),
                        "--q1", repr(1.2 * qq), "--depth", "4", "--verify"]
                for fmt in ("json", "csv"):
                    runs.append(base + ["--format", fmt])
                    runs.append(base + ["--format", fmt, "--eps", "0.1"])
    runs.append(["selftest"])
    return runs


def run_all(src: str, workdir: str, out: str) -> None:
    """Run every case against the weightlab under src; write [argv, rc, stdout, stderr] rows."""
    sys.path.insert(0, src)
    from weightlab import cli

    rows = []
    for argv in cases(Path(workdir)):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), warnings.catch_warnings():
            warnings.simplefilter("always")  # each run's stderr its own, whatever ran before
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                rc = exc.code
        rows.append([argv, rc, stdout.getvalue(), stderr.getvalue()])
    Path(out).write_text(json.dumps(rows))


def _grid(argv: list[str]) -> int | None:
    return int(argv[argv.index("--grid") + 1]) if "--grid" in argv else None


def _payload(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def kind(argv: list[str], old: list, new: list) -> str:
    """Which declared kind a differing run belongs to, else "other"."""
    verify = argv[argv.index("--verify") + 1] if argv[0] == "bellman" else None
    if verify in ("tangent", "hessian") and _grid(argv) < 2:
        return "grid-refusal"
    a, b = _payload(old[2]), _payload(new[2])
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys() and old[3] == new[3] == "":
        changed = {k for k in a if a[k] != b[k]}
        if verify == "tangent" and changed == {"passed"}:
            return "tangent-passed"
        if verify == "bounds" and changed == {"ratio_bound"} and old[1] == new[1]:
            return "ratio-bound"
    return "other"


KINDS = ("grid-refusal", "tangent-passed", "ratio-bound")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--allow", default="", help=f"comma list from {','.join(KINDS)}")
    parser.add_argument("--run", nargs=2, metavar=("WORKDIR", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.run:
        run_all(args.new_src, *args.run)
        return 0
    allowed = {s for s in args.allow.split(",") if s}
    with tempfile.TemporaryDirectory() as tmp:
        results = []
        for src in (args.old_src, args.new_src):
            out = str(Path(tmp) / "rows.json")
            subprocess.run([sys.executable, __file__, src, src, "--run", tmp, out], check=True)
            results.append(json.loads(Path(out).read_text()))
    old, new = results
    counts: dict[str, int] = {}
    bad = 0
    for a, b in zip(old, new):
        if a == b:
            continue
        k = kind(a[0], a, b)
        counts[k] = counts.get(k, 0) + 1
        if k not in allowed:
            bad += 1
            print(f"{k}: weightlab {' '.join(a[0])}")
            for label, row in (("old", a), ("new", b)):
                print(f"  {label}: rc {row[1]}, stdout {row[2][:400]!r}, stderr {row[3][:200]!r}")
    same = sum(a == b for a, b in zip(old, new))
    print(f"{len(old)} runs: {same} identical; " + ", ".join(f"{k} {n}" for k, n in sorted(counts.items())))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
