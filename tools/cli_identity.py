"""Byte-identity of the CLI between two source trees.

    python tools/cli_identity.py OLD_SRC NEW_SRC

runs one fixed set of ``weightlab`` command lines in process against each
tree (one fresh interpreter per tree) and compares stdout, stderr and exit
code, run by run.  The set: ``bellman --verify bounds`` at 43 q from 1 + 1e-9
to 1e300, each at grids 2, 5 and 33, and its refusals; ``--verify tangent``
and ``--verify hessian`` at q spread over the benchmark's bands and past
them, at grids -1 to 24; ``dyadic --verify`` on 24 corpus weights in both
modes, JSON and CSV, with and without ``--eps``, and at a q the weight
exceeds; ``dyadic`` trees and chains at 1.02 x the grid constant (q1 = 1.03 q,
where cuts move off 1/2) on 8 of them at depths 6 and 10, trees at 0, 1 and 14,
and one at depth 12; trees of w(t) = t, whose cuts move, at q = e/2 (log) and
1.02 x its grid constant (entropy) at depths 0, 1, 6 and 14;
trees of 1/2 cuts at depths 12 and 14 and chains at 14 on two of them; ``dyadic``
at depths 0 to 14 on weights refused at the root of the tree and on weights whose
moments near the double range overflow, raise or are not finite on some intervals;
``selftest``.  Then every subcommand that prints JSON:
``constants`` on 8 corpus weights (``rh_p``/``a_p`` keyed by p, the nested
scans, CSV, the four pair scans at resolutions 401 and 1201, where the
pair walk takes dozens of row blocks, at 2001 with p = 2.37 and 1e3, where it
takes the pre-pass's windows, and at 2, 5 and 201, where most of
each block is its leading square of mirrored pairs, and two lists without
rh1 at 401), the four pair scans at 1201 on steps with a breakpoint 1e-11 off
the grid point 1/2, ``solve`` for each equation over q from tiny to past its range,
``extremal`` for all four families with and without targets and their refusals (``ainf``
from q = 6.6e15, where the default target's spike is t^-1), and (``ainf``,
``gehring-interior``) at targets a fraction 1e-13 to 1e-7 of the way up from the lower boundary curve,
``bellman --eval`` on the three surfaces inside, on and outside their domains, ``--eval`` and ``extremal``
(``ainf``, ``gehring-interior``) at targets on both boundary curves, ``dyadic``
trees without ``--verify`` at depths 0 to 6, and ``sweep --format json``
(decimal q among them), and GEHRING's value past the double range (``--eval``
and ``extremal --family gehring-interior`` at x = 1e200).
Last the parser group (``parser_cases``): per subcommand a plain argv in every
order of its options, and the argvs that ``cli._parse_plain`` leaves to argparse.

Both trees run the command lines that the old tree builds: some take their
q from its constants.  Each difference is put in one of the kinds a change
may declare (see ``KINDS``) or in ``other``; the script prints the count per
kind and every ``other`` run, and exits 1 if there is one.  ``--allow`` names
the kinds the change under test intends, default none.  Two kinds follow a
change to the root kernel's last bits: ``worst-rounding``, a ``--verify
tangent|hessian`` check whose verdict stays and whose worst value and point
move at rounding level (``_worst_rounded``), and ``root-rounding``, a bounds
check's ratios, an ``--eval``'s value and tangent or a ``solve`` root (either
root of ``gamma-entropy``, and ``funny``'s ``log_value``) within 1e-13, a
residual within 1e-13 of the point's size.  A run that ends in a traceback
is recorded with rc ``traceback`` and the exception's line on stderr; two
kinds follow a change to refusals, and each of their runs is printed even
when allowed: ``traceback-refused``, a traceback that now exits 2 with
``error: ...``, and ``refusal-reworded``, an exit 2 whose ``error: ...``
line changes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import itertools
import json
import math
import re
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
        if k < 8:  # near the grid constant, where cuts move off 1/2
            for mode, q in (("log", max(1.02 * ainf, 1.001)), ("entropy", 1.02 * max(rh1, 0.0) + 0.01)):
                base = ["dyadic", "--weight", str(path), "--mode", mode, "--q", repr(q), "--q1", repr(1.03 * q)]
                for depth in ("6", "10"):
                    runs += [base + ["--depth", depth], base + ["--depth", depth, "--verify"]]
                runs += [base + ["--depth", depth] for depth in ("0", "1", "14")]
                if k == 1 and mode == "log":
                    runs.append(base + ["--depth", "12"])
        if k in (2, 3):  # deep trees of 1/2 cuts, and a chain
            for mode, q in (("log", max(1.25 * ainf, 1.05)), ("entropy", 1.25 * max(rh1, 0.0) + 0.02)):
                base = ["dyadic", "--weight", str(path), "--mode", mode, "--q", repr(q), "--q1", repr(1.3 * q)]
                runs += [base + ["--depth", "12"], base + ["--depth", "14"], base + ["--depth", "14", "--verify"]]
    path = workdir / "linear.json"  # w(t) = t: on the log-mode boundary at q = e/2 on every [0, x]
    weights.save_weight(weights.power_weight(1.0, 1.0), str(path))
    rh1 = constants.compute_report(weights.power_weight(1.0, 1.0), resolution=101).rh1[0]
    for mode, q, q1 in (("log", math.e / 2.0, 1.02 * math.e / 2.0), ("entropy", 1.02 * rh1 + 0.01, 1.03 * (1.02 * rh1 + 0.01))):
        base = ["dyadic", "--weight", str(path), "--mode", mode, "--q", repr(q), "--q1", repr(q1)]
        runs += [base + ["--depth", depth] for depth in ("0", "1", "6", "14")]
    runs += dyadic_edge_cases(workdir)
    runs.append(["selftest"])
    return runs + writer_cases(workdir) + parser_cases(workdir)


def dyadic_edge_cases(workdir: Path) -> list[list[str]]:
    """dyadic on weights that fail at the root of a depth-14 tree, or whose moments near
    the double range overflow, raise or are not finite on some intervals."""
    from weightlab import weights

    Piece, Iv = weights.PowerPiece, weights.Interval
    edge = {
        "root": weights.step_weight([0.0, 0.57, 1.0], [1.0, 100.0]),
        # avg w over [0, h] is 1e306 h^-0.9: past the double range below h = 2^-8.3
        "spike": weights.power_weight(1e305, -0.9),
        "huge": weights.Weight((Piece(Iv(0.0, 0.5), 1e300, -0.9999999), Piece(Iv(0.5, 1.0), 1e300, 1e10))),
        "steep": weights.Weight((Piece(Iv(0.0, 0.5), 1.0, 0.0), Piece(Iv(0.5, 1.0), 1e-300, -1100.0))),
        "top": weights.Weight((Piece(Iv(0.0, 0.25), 1.0, 0.0), Piece(Iv(0.25, 1.0), 1.7e308, 0.0))),
    }
    runs = []
    for name, w in edge.items():
        path = workdir / f"edge_{name}.json"
        weights.save_weight(w, str(path))
        for mode in ("log", "entropy"):
            for q in ("1.2", "5.0", "1e300"):
                base = ["dyadic", "--weight", str(path), "--mode", mode, "--q", q, "--q1", repr(1.3 * float(q))]
                runs += [base + ["--depth", d] for d in ("0", "6", "12", "14")]
                runs.append(base + ["--depth", "14", "--verify"])
    return runs


# q past the double range once rounded to 15 digits (1.79769313486232e308)
MAX_DOUBLE = "1.7976931348623157e308"


def writer_cases(workdir: Path) -> list[list[str]]:
    """Command lines of every other subcommand whose payload the JSON writer prints."""
    from weightlab import solvers, weights

    runs = []
    corpus = [str(workdir / f"corpus{k}.json") for k in range(24)]
    for path in corpus[:8]:
        base = ["constants", "--weight", path, "--resolution", "51"]
        runs.append(base + ["--which", "rh1,ainf,rhp,ap", "--p-values", "1.5,2,3"])
        runs.append(base + ["--which", "rhp,ap", "--p-values", "1.25,4", "--format", "csv"])
        runs.append(base + ["--which", "rh1_prime,rh1_doubleprime", "--maximal-resolution", "12"])
        for resolution in ("2", "5", "201", "401", "1201"):
            runs.append(["constants", "--weight", path, "--resolution", resolution,
                         "--which", "rh1,ainf,rhp,ap", "--p-values", "1.5,3"])
        for which, p_values in (("rhp,ap", "1.5,2.37,3"), ("ainf,rhp", "2.37,10")):
            runs.append(["constants", "--weight", path, "--resolution", "401", "--which", which, "--p-values", p_values])
        for p_values in ("2.37", "1e3"):  # past the pre-pass's gate: the walk takes windows
            runs.append(["constants", "--weight", path, "--resolution", "2001", "--which", "rh1,ainf,rhp,ap",
                         "--p-values", p_values])
    runs.append(["constants", "--weight", corpus[0], "--which", "ap", "--p-values", "1.0"])
    # steps with a breakpoint 1e-11 off the grid point 1/2 (R = 1201), jumps of 1e6 and 1e-6
    for k, values in enumerate(([1.0, 1e6], [3.0, 3e-6], [0.5, 7.0, 0.2])):
        cuts = [0.0, 0.5 + 1e-11, 1.0] if len(values) == 2 else [0.0, 0.5 - 1e-11, 0.75, 1.0]
        path = workdir / f"near{k}.json"
        weights.save_weight(weights.step_weight(cuts, values), str(path))
        for p_values in ("2.37", "1e3"):
            runs.append(["constants", "--weight", str(path), "--resolution", "1201", "--which", "rh1,ainf,rhp,ap",
                         "--p-values", p_values])

    qs = ["1e-300", "1e-20", "1e-6", "0.05", "0.5", "1.0", "2.0", "3.0", "5.6", "10.0", "100.0",
          "700.0", "743.0", "745.5", "800.0", "1e3", "1e4", "1e5", "1e6", "1e30", "1e300", MAX_DOUBLE,
          "0.0", "-1.0", "nan", "inf"]
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
    # GEHRING's value v**eps past the double range, on --eval and in the attainment check
    gehring = ["--q", "0.01", "--eps", "3.374613350095237"]
    runs.append(["bellman", "--surface", "gehring", *gehring, "--eval=1e200,4.605220185988092e+202"])
    runs.append(["extremal", "--family", "gehring-interior", *gehring, "--x", "1e200", "--y", "4.605220185988092e+202"])
    runs += [["extremal", "--family", "ainf", "--q", q] for q in ("6.6e15", "6.7e15", "1e20", "1e300")]
    # targets at x = 1 a fraction u of the way up from the lower boundary curve: glue points under 1e-12
    for q, u in ((2.0, 1e-13), (100.0, 1e-11), (1e4, 1e-9), (1e6, 1e-7)):
        runs.append(["extremal", "--family", "ainf", "--q", repr(q), "--x", "1.0", f"--y={-u * math.log(q)!r}"])
    for q, u in ((5.0, 1e-11), (5.0, 1e-13), (0.5, 1e-12), (2.0, 1e-12)):
        runs.append(["extremal", "--family", "gehring-interior", "--q", repr(q), "--eps", "0.1", "--x", "1.0",
                     f"--y={u * q!r}"])

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

    # targets on both boundary curves, y exactly as these expressions round it; on the lower one
    # (y = log x, or y = x log x) the tangent solve takes its u = g branch, where v = x
    for surface, family, qs in (("ainf-upper", "ainf", (1.01, 3.0, 1e6)),
                                ("gehring", "gehring-interior", (0.05, 3.0, 500.0)),
                                ("ainf-lower", None, (0.05, 3.0, 500.0))):
        for q in qs:
            eps = []
            if surface == "gehring":
                eps = ["--eps", repr(0.5 / (solvers.gamma_entropy_roots(q)[1].root - 1.0))]
            for x in (0.25, 1.0, 7.5):
                if surface == "ainf-upper":
                    ends = (math.log(x), math.log(x) - math.log(q))
                else:
                    ends = (x * math.log(x), x * math.log(x) + q * x)
                for y in ends:
                    runs.append(["bellman", "--surface", surface, "--q", repr(q), *eps, f"--eval={x!r},{y!r}"])
                    if family is not None:
                        runs.append(["extremal", "--family", family, "--q", repr(q), *eps,
                                     "--x", repr(x), f"--y={y!r}"])

    for path in corpus[:12]:
        for mode, q in (("log", "40.0"), ("entropy", "6.0"), ("log", "1.0001")):
            for depth in ("0", "2", "4", "6"):
                runs.append(["dyadic", "--weight", path, "--mode", mode, "--q", q, "--q1", repr(1.3 * float(q)),
                             "--depth", depth])

    for qs in ("", "2", "0.5,1,2,8,1e6", "1e300,1.234e300,1e100,1e30", f"1e300,{MAX_DOUBLE}", "nan,-1"):
        runs.append(["sweep", "--q-list", qs, "--format", "json"])
    return runs


def parser_cases(workdir: Path) -> list[list[str]]:
    """The parser group: per subcommand, one plain argv in every order of its options, and
    the argv with one option abbreviated (to 3 characters and to all but its last), given as
    --opt=value, given a value with a leading '-' (-1 for a number, -1,2 otherwise), given
    twice, missing where it is required, given a bad choice, int or float; -h and an unknown
    option or token; for bellman both and neither of --eval and --verify; the empty argv."""
    from weightlab import cli

    weight = str(workdir / "corpus0.json")
    plain = {
        "constants": [["--weight", weight], ["--resolution", "51"], ["--which", "rh1,ainf"]],
        "solve": [["--equation", "gamma-log"], ["--q", "3.0"], ["--format", "json"]],
        "bellman": [["--surface", "ainf-upper"], ["--q", "3.0"], ["--eval", "2.0,0.5"], ["--grid", "8"]],
        "extremal": [["--family", "ainf"], ["--q", "3.0"], ["--x", "2.0"], ["--y", "0.2"]],
        "dyadic": [["--weight", weight], ["--q", "40.0"], ["--q1", "52.0"], ["--depth", "2"], ["--verify"]],
        "sweep": [["--q-list", "0.5,2"], ["--format", "json"]],
        "selftest": [["--only", "criterion_03"]],
    }
    subparsers = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    runs: list[list[str]] = [[]]
    for cmd, pairs in plain.items():
        options = subparsers[cmd]._option_string_actions
        runs += [[cmd, *itertools.chain(*order)] for order in itertools.permutations(pairs)]

        def changed(k: int, *new: list[str]) -> list[str]:
            return [cmd, *itertools.chain(*pairs[:k], *new, *pairs[k + 1:])]

        for k, (opt, *value) in enumerate(pairs):
            action = options[opt]
            runs += [changed(k, [opt[:n], *value]) for n in sorted({3, len(opt) - 1})
                     if 3 <= n < len(opt) and opt[:n] not in options]
            runs.append(changed(k, pairs[k], pairs[k]))
            if action.required:
                runs.append(changed(k))
            if value:
                number = action.type in (int, float)
                runs += [changed(k, [f"{opt}={value[0]}"]), changed(k, [opt, "-1" if number else "-1,2"])]
                if action.choices:
                    runs.append(changed(k, [opt, "nope"]))
                if number:
                    runs.append(changed(k, [opt, "1.5" if action.type is int else "x1"]))
        flat = [cmd, *itertools.chain(*pairs)]
        runs += [[cmd, "-h"], flat + ["-h"], flat + ["--nope"], flat + ["stray"], flat + ["--nope", "1"]]
    bellman = [["bellman", "--surface", "ainf-upper", "--q", "3.0"] + more for more in (
        [], ["--eval", "2.0,0.5", "--verify", "bounds"], ["--verify", "bounds", "--eval", "2.0,0.5"])]
    return runs + bellman + [["nope"], ["-h"]]


def run_all(src: str, workdir: str, out: str, argv_rows: str | None = None) -> None:
    """Run every case against the weightlab under src; write [argv, rc, stdout, stderr] rows.

    With argv_rows, the command lines are those of that earlier output.
    """
    sys.path.insert(0, src)
    from weightlab import cli

    rows = []
    argvs = [row[0] for row in json.loads(Path(argv_rows).read_text())] if argv_rows else cases(Path(workdir))
    for argv in argvs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), warnings.catch_warnings():
            warnings.simplefilter("always")  # each run's stderr its own, whatever ran before
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                rc = exc.code
            except Exception as exc:  # a traceback: recorded as rc "traceback" and its last line
                rc = "traceback"
                print(f"{type(exc).__name__}: {exc}", file=stderr)
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


# a decimal number as the JSON writer, CSV rows and selftest lines print it
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _close(old: float, new: float, scale: float | None = None) -> bool:
    """new within 1e-13 of old relative to scale, default |old| (an exact zero stays zero)."""
    return old == new or abs(new - old) <= 1e-13 * (abs(old) if scale is None else scale)


def _gap_scale(payload: dict, key: str) -> float | None:
    """The size of the moments a printed difference subtracts, which its rounding is relative to."""
    if key == "final_gap":  # dyadic chain_verify: sums[-1] - target
        return abs(payload["target"])
    if key == "gap" and "weight_value" in payload:  # extremal: (weight - surface) / max(1, |surface|)
        return abs(payload["weight_value"]) / max(1.0, abs(payload["surface_value"]))
    return None


def _rounded(old, new, scale: float | None = None, parts=None) -> bool:
    """Whether new is old but for _close numbers and argmax intervals that move among ties from 0.

    A pure power's scanned ratio is the same on every [0, b], so the
    "interval" beside a "value" may move to another [0, b] when the ratios'
    last bits move; the value itself must stay _close.  parts, given, maps a
    dyadic node's interval to the size of its point's y (_parts_scale).
    """
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            return False
        moved = old.get("interval") != new.get("interval")
        if moved and not ("value" in old and _ties_from_zero(old["interval"], new["interval"])):
            return False
        if parts and "point" in old and old["point"] != new["point"]:
            (xa, ya), (xb, yb) = old["point"], new["point"]
            if not (_close(xa, xb) and (_close(ya, yb) or _close(ya, yb, parts(old["interval"])))):
                return False
        return all(_rounded(old[k], new[k], _gap_scale(old, k), parts) for k in old
                   if not (moved and k == "interval" or parts and k == "point"))
    if isinstance(old, list) and isinstance(new, list):
        return len(old) == len(new) and all(_rounded(a, b, None, parts) for a, b in zip(old, new))
    if isinstance(old, float) and isinstance(new, float):
        return _close(old, new, scale)
    return old == new


def _parts_scale(weight_path: str, mode: str, interval: list[float]) -> float:
    """The average over the interval of a dyadic point's y integrand in two parts, each in absolute value.

    y is avg log w (mode log) or avg w log w (entropy), and on a piece c t^alpha
    log w = log c + alpha log t: two parts that may cancel, so y's rounding is
    relative to avg (|log c| + |alpha log t|), times w in entropy mode.
    """
    import mpmath

    (a, b), total = interval, 0.0
    for piece in json.loads(Path(weight_path).read_text())["pieces"]:
        s, e = max(a, piece["a"]), min(b, piece["b"])
        if e > s:
            c, alpha = piece["coeff"], piece["exponent"]
            f = lambda t: (abs(math.log(c)) + abs(alpha * mpmath.log(t))) * (1.0 if mode == "log" else c * t**alpha)
            total += float(mpmath.quad(f, [s, e]))
    return total / (b - a)


def _ties_from_zero(old, new) -> bool:
    return isinstance(old, list) and isinstance(new, list) and len(old) == len(new) == 2 and old[0] == new[0] == 0.0


def _csv(text: str) -> list | None:
    """CSV stdout as rows of floats and names, interval_a and interval_b as one "interval"."""
    lines = text.splitlines()
    if not lines or not re.fullmatch(r"[\w,]+", lines[0]):
        return None
    rows = []
    for row in csv.DictReader(lines):
        row = {k: float(v) if _NUMBER.fullmatch(v) else v for k, v in row.items()}
        if "interval_a" in row:
            row["interval"] = [row.pop("interval_a"), row.pop("interval_b")]
        rows.append(row)
    return rows


def _text_rounded(old: str, new: str, scale: float | None = None) -> bool:
    """Whether the text new is old but for _close numbers (CSV rows, selftest lines, refusals)."""
    if _NUMBER.sub("#", old) != _NUMBER.sub("#", new):
        return False
    return all(_close(float(a), float(b), scale) for a, b in zip(_NUMBER.findall(old), _NUMBER.findall(new)))


def kind(argv: list[str], old: list, new: list) -> str:
    """Which declared kind a differing run belongs to, else "other"."""
    if old[1] == "traceback" and new[1] == 2 and new[2] == "" and new[3].startswith("error: "):
        return "traceback-refused"
    if old[1] == new[1] == 2 and old[2] == new[2] == "" and old[3].startswith("error: ") \
            and new[3].startswith("error: "):
        return "refusal-reworded"
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
        if verify in ("tangent", "hessian") and old[1] == new[1] and changed <= WORST_KEYS and _worst_rounded(a, b):
            return "worst-rounding"
        if (verify == "bounds" or argv[0] == "solve" or any(s.startswith("--eval") for s in argv)) \
                and old[1] == new[1] and changed <= ROOT_KEYS:
            # a residual is rounding relative to the size of the point it is taken at
            size = max(1.0, abs(a.get("x") or 0.0), abs(a.get("y") or 0.0))
            if all(_close(a[k], b[k], size if "residual" in k else None) for k in changed):
                return "root-rounding"
        if verify == "bounds" and changed == {"ratio_bound"} and old[1] == new[1]:
            return "ratio-bound"
        if argv[0] == "constants" and changed == {"rh1_doubleprime"} and old[1] == new[1]:
            (va, ia), (vb, ib) = ((x["rh1_doubleprime"]["value"], x["rh1_doubleprime"]["interval"]) for x in (a, b))
            # the value within 1e-14, or another [0, b] whose ratio ties to it (a pure power from 0)
            if abs(vb - va) <= 1e-14 * abs(va) and (ia == ib or ia[0] == ib[0] == 0.0):
                return "orlicz-rounding"
        if argv[0] == "sweep" and changed == {"rows"} and old[1] == new[1] and len(a["rows"]) == len(b["rows"]):
            # e_ratio alone moves, within 1e-13 (its root solved at q, not at the rounded log q)
            if all(x.keys() == y.keys() and x["q"] == y["q"] and x["funny_ratio"] == y["funny_ratio"]
                   and _rounded(x["e_ratio"], y["e_ratio"]) for x, y in zip(a["rows"], b["rows"])):
                return "sweep-e-ratio"
        # the new root solves the equation to 1e-12, and is the old one where that did too
        solved = [isinstance(x.get("residual"), float) and abs(x["residual"]) <= 1e-12 for x in (a, b)]
        if argv[:3] == ["solve", "--equation", "gehring-sharp"] and changed <= {"root", "residual"} \
                and old[1] == new[1] and solved[1] and (not solved[0] or _rounded(a["root"], b["root"])):
            return "gehring-root"
    if argv[0] not in MOMENT_COMMANDS or old[1] != new[1]:
        return "other"
    # moment-rounding: stderr as before and every changed number of stdout within 1e-13 (_rounded);
    # refusal-rounding: stdout as before, and the moment a refusal prints on stderr within 1e-13
    if old[3] == new[3]:
        if a is None or b is None:
            a, b = _csv(old[2]), _csv(new[2])
        # selftest prints errors against values of size 1, so their rounding is absolute
        scale = 1.0 if argv[0] == "selftest" else None
        parts = None
        if argv[0] == "dyadic" and "--mode" in argv:
            parts = functools.partial(_parts_scale, *(argv[argv.index(flag) + 1] for flag in ("--weight", "--mode")))
        if _rounded(a, b, None, parts) if a is not None and b is not None else _text_rounded(old[2], new[2], scale):
            return "moment-rounding"
    elif old[2] == new[2] and _text_rounded(old[3], new[3]):
        return "refusal-rounding"
    return "other"


# the subcommands whose output reads piece moments
MOMENT_COMMANDS = ("constants", "dyadic", "extremal", "selftest")
KINDS = ("grid-refusal", "tangent-passed", "ratio-bound", "overflow-null", "orlicz-rounding", "moment-rounding",
         "refusal-rounding", "gehring-root", "sweep-e-ratio", "worst-rounding", "root-rounding", "traceback-refused",
         "refusal-reworded")
# what a grid check's worst point and value, and a root's last bits, may move
WORST_KEYS = {"max_deviation", "worst_v", "worst_value", "worst_point"}
ROOT_KEYS = {"ratio_max", "ratio_bound", "value", "tangent", "tangent_residual", "root", "residual",
             "root_minus", "root_plus", "residual_minus", "residual_plus", "log_value"}


def _worst_rounded(old: dict, new: dict) -> bool:
    """Whether a tangent or Hessian check's worst moved at rounding level (kind() keeps its verdict): a
    Hessian excess (scaled by the entries) at most 1e-14 on both sides, a tangent deviation (of values of
    any size) within a factor 2 of the old one or at most 1e-14 on both sides."""
    if "worst_value" in old:
        return max(abs(old["worst_value"]), abs(new["worst_value"])) <= 1e-14
    dev = sorted(abs(d["max_deviation"]) for d in (old, new))
    return dev[1] <= max(2.0 * dev[0], 1e-14)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--allow", default="", help=f"comma list from {','.join(KINDS)}")
    parser.add_argument("--run", nargs=2, metavar=("WORKDIR", "OUT"), help=argparse.SUPPRESS)
    parser.add_argument("--cases", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.run:
        run_all(args.new_src, *args.run, args.cases)
        return 0
    allowed = {s for s in args.allow.split(",") if s}
    with tempfile.TemporaryDirectory() as tmp:
        old_out, new_out = str(Path(tmp) / "old.json"), str(Path(tmp) / "new.json")
        subprocess.run([sys.executable, __file__, args.old_src, args.old_src, "--run", tmp, old_out], check=True)
        # the new tree runs the old one's command lines: some take q from the tree's own constants
        subprocess.run([sys.executable, __file__, args.new_src, args.new_src, "--run", tmp, new_out,
                        "--cases", old_out], check=True)
        old, new = (json.loads(Path(out).read_text()) for out in (old_out, new_out))
        # classified while the weight files the dyadic runs name still exist (_parts_scale)
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
            elif k in ("traceback-refused", "refusal-reworded"):  # a refusal's words: each run is listed
                print(f"{k} (allowed): weightlab {' '.join(a[0])}")
                print(f"  stderr {a[3].strip()!r} -> {b[3].strip()!r}")
    same = sum(a == b for a, b in zip(old, new))
    print(f"{len(old)} runs: {same} identical; " + ", ".join(f"{k} {n}" for k, n in sorted(counts.items())))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
