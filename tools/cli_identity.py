"""Byte-identity of the CLI between two source trees.

    python tools/cli_identity.py OLD_SRC NEW_SRC

runs one fixed set of ``weightlab`` command lines in process against each
tree (one fresh interpreter per tree) and compares stdout, stderr and exit
code, run by run.  The set: ``bellman --verify bounds`` at 43 q from 1 + 1e-9
to 1e300, each at grids 2, 5 and 33, and its refusals; ``--verify tangent``
and ``--verify hessian`` at q spread over the benchmark's bands and past
them, at grids -1 to 24; ``dyadic --verify`` on 24 corpus weights in both
modes, JSON and CSV, with and without ``--eps``, and at a q the weight
exceeds; ``selftest``.  Then every subcommand that prints JSON:
``constants`` on 8 corpus weights (``rh_p``/``a_p`` keyed by p, the nested
scans, CSV, and the four pair scans at resolutions 401 and 1201, where the
pair walk splits its rows on 2 or more CPUs), ``solve`` for each equation
over q from tiny to past its range, ``extremal`` for all four families with
and without targets and their refusals, ``bellman --eval`` on the three
surfaces inside, on and outside their domains, ``dyadic`` trees without
``--verify`` at depths 0 to 6, and ``sweep --format json``.

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
    return runs + writer_cases(workdir)


# q past the double range once rounded to 15 digits (1.79769313486232e308)
MAX_DOUBLE = "1.7976931348623157e308"


def writer_cases(workdir: Path) -> list[list[str]]:
    """Command lines of every other subcommand whose payload the JSON writer prints."""
    from weightlab import solvers

    runs = []
    corpus = [str(workdir / f"corpus{k}.json") for k in range(24)]
    for path in corpus[:8]:
        base = ["constants", "--weight", path, "--resolution", "51"]
        runs.append(base + ["--which", "rh1,ainf,rhp,ap", "--p-values", "1.5,2,3"])
        runs.append(base + ["--which", "rhp,ap", "--p-values", "1.25,4", "--format", "csv"])
        runs.append(base + ["--which", "rh1_prime,rh1_doubleprime", "--maximal-resolution", "12"])
        for resolution in ("401", "1201"):
            runs.append(["constants", "--weight", path, "--resolution", resolution,
                         "--which", "rh1,ainf,rhp,ap", "--p-values", "1.5,3"])
    runs.append(["constants", "--weight", corpus[0], "--which", "ap", "--p-values", "1.0"])

    qs = ["1e-300", "1e-20", "1e-6", "0.05", "0.5", "1.0", "2.0", "3.0", "5.6", "10.0", "100.0",
          "700.0", "743.0", "800.0", "1e30", "1e300", MAX_DOUBLE, "0.0", "-1.0", "nan", "inf"]
    for eq in ("gamma-log", "gamma-entropy", "eps-minus", "funny"):
        runs += [["solve", "--equation", eq, "--q", q] for q in qs]
    for n in ("1", "3"):
        runs += [["solve", "--equation", "gehring-n", "--n", n, "--q", q] for q in qs]
    runs.append(["solve", "--equation", "gehring-n", "--n", "0", "--q", "1.0"])
    for p, k in (("2.0", "1.4142135623730951"), ("1.5", "1.01"), ("10.0", "4.0"), ("3.0", "0.7"),
                 ("1.0", "2.0"), (MAX_DOUBLE, "2.0"), ("2.0", "nan")):
        runs.append(["solve", "--equation", "gehring-sharp", "--p", p, "--k", k])

    for q in ("1.01", "2.0", "17.0", "1e6", "1e30", "1e31", "1.0", "0.5"):
        runs.append(["extremal", "--family", "ainf", "--q", q])
    runs += [["extremal", "--family", "ainf", "--q", "3.0", "--x", "2.0", "--y", y] for y in ("0.2", "-0.5", "0.9")]
    runs.append(["extremal", "--family", "ainf", "--q", "3.0", "--x", "2.0"])
    for q in ("0.01", "0.5", "1.0", "5.0", "100.0", "700.0", "800.0", "0.0"):
        runs.append(["extremal", "--family", "funny", "--q", q])
        for family in ("gehring-boundary", "gehring-interior"):
            runs.append(["extremal", "--family", family, "--q", q])
            if float(q) > 0.0 and float(q) <= 743.0:
                eps = 0.5 / (solvers.gamma_entropy_roots(float(q))[1].root - 1.0)
                runs.append(["extremal", "--family", family, "--q", q, "--eps", repr(eps)])
                runs.append(["extremal", "--family", family, "--q", q, "--eps", repr(3.0 * eps)])
    runs.append(["extremal", "--family", "gehring-interior", "--q", "1.0", "--eps", "0.3", "--x", "2.0", "--y", "1.6"])
    runs.append(["extremal", "--family", "funny", "--q", "1.0", "--x", "2.0", "--y", "1.5"])

    for surface, bands in BANDS.items():
        for lo, hi in bands:
            for q in _log_space(lo, hi, 3):
                args = ["bellman", "--surface", surface, "--q", repr(q)]
                if surface == "gehring":
                    args += ["--eps", repr(0.5 / (solvers.gamma_entropy_roots(q)[1].root - 1.0))]
                for x in (0.3, 1.0, 3.0):
                    for frac in (-0.5, 0.0, 0.02, 0.5, 1.0, 1.5):
                        if surface == "ainf-upper":
                            y = math.log(x) - frac * math.log(q)
                        else:
                            y = x * math.log(x) + frac * q * x
                        runs.append(args + [f"--eval={x!r},{y!r}"])
    runs.append(["bellman", "--surface", "ainf-upper", "--q", "2.0", "--eval", "1.0"])

    for path in corpus[:12]:
        for mode, q in (("log", "40.0"), ("entropy", "6.0"), ("log", "1.0001")):
            for depth in ("0", "2", "4", "6"):
                runs.append(["dyadic", "--weight", path, "--mode", mode, "--q", q, "--q1", repr(1.3 * float(q)),
                             "--depth", depth])

    for qs in ("", "2", "0.5,1,2,8,1e6", f"1e300,{MAX_DOUBLE}", "nan,-1"):
        runs.append(["sweep", "--q-list", qs, "--format", "json"])
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


def _inf_to_null(old, new) -> bool:
    """Whether new is old with every infinite float (printed as Infinity) null instead."""
    if isinstance(old, float) and math.isinf(old):
        return new is None
    if isinstance(old, dict) and isinstance(new, dict):
        return old.keys() == new.keys() and all(_inf_to_null(old[k], new[k]) for k in old)
    if isinstance(old, list) and isinstance(new, list):
        return len(old) == len(new) and all(map(_inf_to_null, old, new))
    return old == new


def kind(argv: list[str], old: list, new: list) -> str:
    """Which declared kind a differing run belongs to, else "other"."""
    verify = argv[argv.index("--verify") + 1] if "--verify" in argv and argv[0] == "bellman" else None
    if verify in ("tangent", "hessian") and _grid(argv) < 2:
        return "grid-refusal"
    a, b = _payload(old[2]), _payload(new[2])
    if "Infinity" in old[2] and old[1] == new[1] and old[3] == new[3] and _inf_to_null(a, b):
        return "overflow-null"
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys() and old[3] == new[3] == "":
        changed = {k for k in a if a[k] != b[k]}
        if verify == "tangent" and changed == {"passed"}:
            return "tangent-passed"
        if verify == "bounds" and changed == {"ratio_bound"} and old[1] == new[1]:
            return "ratio-bound"
        if argv[0] == "constants" and changed == {"rh1_doubleprime"} and old[1] == new[1]:
            (va, ia), (vb, ib) = ((x["rh1_doubleprime"]["value"], x["rh1_doubleprime"]["interval"]) for x in (a, b))
            # the value within 1e-14, or another [0, b] whose ratio ties to it (a pure power from 0)
            if abs(vb - va) <= 1e-14 * abs(va) and (ia == ib or ia[0] == ib[0] == 0.0):
                return "orlicz-rounding"
    return "other"


KINDS = ("grid-refusal", "tangent-passed", "ratio-bound", "overflow-null", "orlicz-rounding")


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
