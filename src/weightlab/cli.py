"""Command-line entry point.

Subcommands: constants, solve, bellman, extremal, dyadic, sweep, selftest.
Each ``_cmd_*`` returns ``(ok, output)``, output a JSON payload dict, a
``(header, rows)`` CSV table or the text itself (selftest's lines, a dyadic
tree, printed from its arrays by ``_tree_json``); ``main`` alone writes it
and sets the exit code: 0 success, 1 a check ran and failed, 2 bad input.
A non-finite value prints as null in JSON and inf or nan in CSV, and nothing
but ``error: ...`` or argparse's usage reaches stderr.  All reals are printed
with 15 significant digits, in JSON by ``_float_json``'s one rule, the tree's
too; identical inputs give byte-identical output.

``main`` builds its argparse parser, and an option table read from it, once per
process.  An argv of the plain form ``CMD (--opt VALUE | --flag)*`` is parsed in
one pass over that table into the Namespace argparse would give; every other
argv (abbreviations, ``--opt=value``, a value starting with '-', repeats, ``-h``,
any usage error) goes to argparse, which parses it or prints its usage as before.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from . import bellman, constants, dyadic, extremals, selftest, solvers, weights
from .errors import WeightLabError

__all__ = ["main"]


def _fmt(x: float) -> float:
    """Round a float to 15 significant digits for stable output."""
    return float(f"{x:.15g}")


def _float_json(x: float) -> str:
    """json.dumps(_fmt(x)), null where that is not finite, which JSON cannot hold (nan, inf, past
    1.79769313486231e308): '%.15g', .0 on an integer, but for a subnormal, e+15 and e+308."""
    if 0.0 < abs(x) < sys.float_info.min or (text := "%.15g" % x).endswith(("e+15", "e+308")):
        return repr(r) if math.isfinite(r := _fmt(x)) else "null"
    return "null" if text[-1] in "fn" else text if "." in text or "e" in text else text + ".0"


def _json(obj, pad: str = "\n") -> str:
    """json.dumps(obj, indent=2) in one walk: each float by _float_json, None and a str as it writes them."""
    if isinstance(obj, float):
        return _float_json(obj)
    if obj is None:
        return "null"
    if type(obj) is str:
        return encode_basestring_ascii(obj)
    inner = pad + "  "
    if isinstance(obj, dict):  # a str key as json.dumps writes it (ensure_ascii); another from a one-key dict
        items = [(encode_basestring_ascii(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4])
                 + ": " + _json(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in obj]) + pad + "]" if obj else "[]"
    return json.dumps(obj)


def _fields(report) -> dict:
    """A report's fields by name, in field order; shallow, where dataclasses.asdict deep-copies."""
    return {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}


def _save(text: str, path: str) -> None:
    """Write text, newline-terminated, to a file; a failure is bad input (exit 2)."""
    try:
        with open(path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    except OSError as exc:
        raise WeightLabError(f"cannot write {path}: {exc}") from exc


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        _save(text, path)


def _csv(header: str, rows: list[tuple]) -> str:
    # floats at 15 digits, the rest as str: when each column holds floats only or none (the sweep's,
    # a weight's), the first row's template, once per row, prints the whole table in one %
    template = lambda row: ",".join(["%.15g" if isinstance(v, float) else "%s" for v in row])  # noqa: E731
    if rows and all(n in (0, len(rows)) for n in (sum(map(isinstance, col, repeat(float))) for col in zip(*rows))):
        return header + "\n" + "\n".join([template(rows[0])] * len(rows)) % tuple(chain.from_iterable(rows))
    return "\n".join([header, *(template(row) % row for row in rows)])


def _load_weight_arg(path: str) -> weights.Weight:
    try:
        return weights.load_weight(path)
    except OSError as exc:
        raise WeightLabError(f"cannot read weight file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands

def _cmd_constants(args) -> tuple[bool, object]:
    which = tuple(s.strip() for s in args.which.split(",") if s.strip())
    p_values = tuple(float(s) for s in args.p_values.split(",") if s.strip())
    scans = len({"rh1", "ainf"} & set(which)) + len(p_values) * len({"rhp", "ap"} & set(which))
    if scans * args.resolution**2 > _SCAN_CAP * _CAPS["resolution"] ** 2:
        raise WeightLabError(
            f"{scans} pair scans at --resolution {args.resolution} exceed the cap of "
            f"{_SCAN_CAP} scans at {_CAPS['resolution']}; give fewer --p-values"
        )
    w = _load_weight_arg(args.weight)
    report = constants.compute_report(
        w,
        resolution=args.resolution,
        which=which,
        p_values=p_values,
        maximal_resolution=args.maximal_resolution,
    )
    entries: dict = {"resolution": report.resolution}
    pairs = []
    for name in ("rh1", "ainf", "rh1_prime", "rh1_doubleprime"):
        got = getattr(report, name)
        if got is not None:
            entries[name] = {"value": got[0], "interval": [got[1].a, got[1].b]}
            pairs.append((name, got[0], got[1]))
    for label, table in (("rh_p", report.rh_p), ("a_p", report.a_p)):
        if table:
            entries[label] = {
                str(_fmt(p)): {"value": v, "interval": [iv.a, iv.b]}
                for p, (v, iv) in table.items()
            }
            pairs.extend((f"{label}[{_fmt(p)}]", v, iv) for p, (v, iv) in table.items())
    if args.format == "json":
        return True, entries
    return True, ("constant,value,interval_a,interval_b", [(n, v, iv.a, iv.b) for n, v, iv in pairs])


def _cmd_solve(args) -> tuple[bool, object]:
    eq = args.equation
    if eq in ("gamma-log", "eps-minus"):
        res = (solvers.gamma_log if eq == "gamma-log" else solvers.eps_minus)(args.q)
        payload = {"equation": eq, "q": args.q, "root": res.root, "residual": res.residual}
    elif eq == "gamma-entropy":
        minus, plus = solvers.gamma_entropy_roots(args.q)
        payload = {
            "equation": eq,
            "q": args.q,
            "root_minus": minus.root,
            "residual_minus": minus.residual,
            "root_plus": plus.root,
            "residual_plus": plus.residual,
        }
    elif eq == "gehring-sharp":
        res = solvers.gehring_sharp_eps(args.p, args.k)
        payload = {
            "equation": eq,
            "p": args.p,
            "k": args.k,
            "root": res.root,
            "residual": res.residual,
        }
    elif eq == "gehring-n":
        val = solvers.gehring_dim_n_eps(args.n, args.q)
        alpha, beta = solvers.good_lambda_params(args.q)
        payload = {
            "equation": eq,
            "n": args.n,
            "q": args.q,
            "eps": val,
            "good_lambda_alpha": alpha,
            "good_lambda_beta": beta,
            "log_product_gap": solvers.good_lambda_verify(args.n, args.q),
        }
    elif eq == "funny":
        payload = {
            "equation": eq,
            "q": args.q,
            "value": solvers.funny_bound(args.q),  # inf past q ~ 5.6, printed as null
            "log_value": solvers.funny_bound_log(args.q),
        }
    else:  # pragma: no cover - argparse restricts choices
        raise WeightLabError(f"unknown equation {eq}")
    return True, payload


_SURFACES = {
    "ainf-upper": bellman.SurfaceKind.AINF_UPPER,
    "gehring": bellman.SurfaceKind.GEHRING,
    "ainf-lower": bellman.SurfaceKind.AINF_LOWER,
}


def _cmd_bellman(args) -> tuple[bool, object]:
    kind = _SURFACES[args.surface]
    surface = bellman.BellmanSurface(kind, args.q, eps=args.eps)
    if args.eval is not None:
        try:
            sx, sy = args.eval.split(",")
            x, y = float(sx), float(sy)
        except ValueError:
            raise WeightLabError(f"--eval expects 'x,y', got {args.eval!r}") from None
        tp = bellman.tangent_point(surface, x, y)
        return True, {
            "surface": args.surface,
            "q": args.q,
            "eps": args.eps,
            "x": x,
            "y": y,
            "value": bellman._evaluate_at(surface, x, y, tp.root),
            "tangent": tp.root,
            "tangent_residual": tp.residual,
        }
    # at extreme q the array passes overflow to inf or nan, which the check flags (exit 1, null in JSON)
    ok, payload = _verify_surface(surface, args.verify, args.grid)
    return ok, {"surface": args.surface, "q": args.q, "eps": args.eps, **payload}


def _verify_surface(surface, what: str, grid: int):
    # each check's verdict is the library's: passed, or excess against its threshold
    if what == "bounds" and surface.kind is not bellman.SurfaceKind.AINF_UPPER:
        raise WeightLabError("--verify bounds applies to the ainf-upper surface")
    if grid < 2:
        raise WeightLabError("grid must be >= 2")
    if what == "bounds":
        rep = bellman.bounds_check_ainf(surface.q, grid=grid)
        return rep.passed, {"check": "bounds", **_fields(rep)}
    if what == "tangent":
        vs = np.linspace(0.5, 2.0, grid)
        excess, threshold, devs = bellman.tangent_linearity_excess(surface, vs)
        worst = int(np.argmax(devs))
        ok = bool(np.all(excess <= threshold))
        return ok, {
            "check": "tangent",
            "samples": len(devs),
            "max_deviation": float(devs[worst]),
            "worst_v": float(vs[worst]),
            "passed": ok,
        }
    if what == "hessian":
        xs, ys = bellman.interior_grid(surface, grid, grid)
        excess, threshold, _ = bellman.hessian_signature(surface, xs, ys)
        worst = int(np.argmax(excess))
        ok = bool(np.all(excess <= threshold))
        return ok, {
            "check": "hessian",
            "points": len(xs),
            "worst_value": float(excess[worst]),
            "threshold": threshold,
            "worst_point": [float(xs[worst]), float(ys[worst])],
            "passed": ok,
        }
    raise WeightLabError(f"unknown verification {what!r}")


_FAMILIES = {
    "ainf": extremals.Family.AINF_UPPER,
    "gehring-boundary": extremals.Family.GEHRING_BOUNDARY,
    "gehring-interior": extremals.Family.GEHRING_INTERIOR,
    "funny": extremals.Family.FUNNY,
}


def _cmd_extremal(args) -> tuple[bool, object]:
    family = _FAMILIES[args.family]
    target = None
    if (args.x is None) != (args.y is None):
        raise WeightLabError("--x and --y must be given together")
    if args.x is not None:
        target = (args.x, args.y)
    spec = extremals.ExtremalSpec(family, args.q, target=target, eps=args.eps)
    # the attainment check of a Gehring family needs eps: without it, no gap
    gap = args.eps is not None or family in (extremals.Family.AINF_UPPER, extremals.Family.FUNNY)
    rep, w = extremals._attain(spec) if gap else (None, extremals.build(spec))
    weight = weights.weight_to_dict(w)
    payload = {
        "family": args.family,
        "q": args.q,
        "eps": args.eps,
        "target": list(extremals.default_target(spec) if target is None else target),
        "pieces": weight["pieces"],
    }
    if gap:
        payload.update(surface_value=rep.surface_value, weight_value=rep.weight_value, gap=rep.gap)
    if args.emit is not None:
        if args.emit.endswith(".json"):
            text = json.dumps(weight, indent=2)
        elif args.emit.endswith(".csv"):
            ts = np.linspace(1.0 / 1024, 1.0, 1024)
            text = _csv("t,w", [(float(t), weights.evaluate(w, float(t))) for t in ts])
        else:
            raise WeightLabError("--emit path must end in .json or .csv")
        _save(text, args.emit)
        payload["emitted"] = args.emit
    return True, payload


@functools.lru_cache(maxsize=1)  # the last depth printed: 41 kB at depth 6, 22 MB at 14
def _tree_template(depth: int) -> tuple[str, np.ndarray]:
    """A tree of that depth as _json writes its node dicts ("interval", "point", then "children" if any) at pad
    "\n  ", '%s' for each interval end and point coordinate in preorder; and the level-order rows in preorder
    (by leftmost leaf, then depth)."""
    text = ""
    for pad in ("\n  " + "    " * k for k in reversed(range(depth + 1))):  # a node of each depth, from the leaves
        two = f"[{pad}    %s,{pad}    %s{pad}  ]"
        kids = f',{pad}  "children": [{pad}    {text},{pad}    {text}{pad}  ]' if text else ""
        text = f'{{{pad}  "interval": {two},{pad}  "point": {two}{kids}{pad}}}'
    level = np.repeat(np.arange(depth + 1), 2 ** np.arange(depth + 1))
    return text, np.lexsort((level, (np.arange(level.size) + 1 - 2**level) << (depth - level)))


def _tree_json(tree: dyadic.PartitionTree) -> str:
    """_json of the tree's nodes as dicts, at pad "\n  ", from its arrays and the depth's template; each
    float's '%.15g', which is _float_json's text where it is a plain decimal (a . and no e), else _float_json."""
    template, order = _tree_template(tree.depth)
    floats = np.hstack((tree.ends, tree.points))[order].ravel().tolist()
    texts = (("%.15g\n" * len(floats))[:-1] % tuple(floats)).split("\n")  # one format call for all
    for i in [i for i, text in enumerate(texts) if "." not in text or "e" in text]:
        texts[i] = _float_json(floats[i])
    return template % tuple(texts)


def _cmd_dyadic(args) -> tuple[bool, object]:
    w = _load_weight_arg(args.weight)
    cfg = dyadic.SplitConfig(q=args.q, q1=args.q1, delta0=args.delta0)
    mode = dyadic.SplitMode.LOG if args.mode == "log" else dyadic.SplitMode.ENTROPY
    tree = dyadic.build_partition(w, cfg, mode, max_depth=args.depth)
    echo = {"mode": args.mode, "q": args.q, "q1": args.q1, "depth": args.depth}
    if not args.verify:  # the echo, then the tree as its last key
        return True, _json(echo)[:-2] + ',\n  "tree": ' + _tree_json(tree) + "\n}"
    if mode is dyadic.SplitMode.LOG:
        surface = bellman.BellmanSurface(bellman.SurfaceKind.AINF_UPPER, args.q1)
    else:
        eps = args.eps
        if eps is None:
            eps = 0.5 / (solvers.gamma_entropy_roots(args.q1)[1].root - 1.0)
        surface = bellman.BellmanSurface(bellman.SurfaceKind.GEHRING, args.q1, eps=eps)
    rep = dyadic.chain_verify(surface, w, tree)
    if args.format == "csv":
        return rep.passed, ("generation,sum", list(enumerate(rep.sums)))
    return rep.passed, {**echo, "eps": getattr(surface, "eps", None), **_fields(rep)}


def _cmd_sweep(args) -> tuple[bool, object]:
    q_values = tuple(map(float, filter(str.strip, args.q_list.split(","))))
    rows = extremals.sharpness_sweep(q_values)
    if args.format == "json":
        # e_ratio is nan for q <= 1, printed as null
        return True, {"rows": [{"q": q, "e_ratio": a, "funny_ratio": b} for q, a, b in rows]}
    return True, ("Q,e_ratio,funny_ratio", rows)


def _cmd_selftest(args) -> tuple[bool, object]:
    only = None
    if args.only:
        only = tuple(s.strip() for s in args.only.split(",") if s.strip())
    results = selftest.run(only=only)
    if not results:
        raise WeightLabError(f"no checks match --only {args.only!r}")
    lines = [f"{'PASS' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in results]
    all_ok = all(ok for _, ok, _ in results)
    lines.append(f"{'OK' if all_ok else 'FAILED'} ({sum(ok for _, ok, _ in results)}/{len(results)})")
    return all_ok, "\n".join(lines)


# Largest accepted sizes: each keeps a run near 30 s or less on 2 CPUs and its
# traced memory peak under 256 MiB.  Pair scans take O(R^2) time, O(R) memory,
# and at most _SCAN_CAP of them run at R = 20001 (or more at a smaller R; four
# share one walk, about 2.8 s on 2 CPUs and 3.2 MiB); at R = 200 rh1_prime's row pass, O(R^2) a row, peaks at 1 MiB
# and rh1_doubleprime's row blocks at 2.9 MiB for three power pieces; a Hessian check
# ~150 B per grid point; a depth-14 tree, traced, 75 MiB to print (24 MB of text and a 22 MB
# template) and 10 MiB to verify.
_CAPS = {"resolution": 20001, "maximal_resolution": 200, "grid": 1024, "depth": 14}
_SCAN_CAP = 4


def _check_caps(args) -> None:
    for name, cap in _CAPS.items():
        value = getattr(args, name, None)
        if value is not None and value > cap:
            flag = "--" + name.replace("_", "-")
            raise WeightLabError(f"{flag} {value} exceeds its cap of {cap}")


# ---------------------------------------------------------------------------
# parser

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: the tree is fixed, and parse_args fills a fresh
    # Namespace on every call, so repeated main() calls share it
    parser = argparse.ArgumentParser(
        prog="weightlab",
        description="Weight constants, sharp-constant equations, Bellman surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="scan the weight constants of a weight file")
    p.add_argument("--weight", required=True, help="weight JSON file")
    p.add_argument("--resolution", type=int, default=constants.DEFAULT_RESOLUTION)
    p.add_argument(
        "--which",
        default="rh1,ainf",
        help="comma list from rh1,ainf,rhp,ap,rh1_prime,rh1_doubleprime",
    )
    p.add_argument("--p-values", default="2.0", help="comma list of exponents for rhp/ap")
    p.add_argument(
        "--maximal-resolution",
        type=int,
        default=constants.DEFAULT_MAXIMAL_RESOLUTION,
        help="resolution for the two nested-scan constants",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("solve", help="solve one of the constant equations")
    p.add_argument(
        "--equation",
        required=True,
        choices=("gamma-log", "gamma-entropy", "eps-minus", "gehring-sharp", "gehring-n", "funny"),
    )
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--k", type=float, default=2.0)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--format", choices=("json",), default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bellman", help="evaluate or verify a Bellman surface")
    p.add_argument("--surface", required=True, choices=tuple(_SURFACES))
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--eps", type=float, default=None)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--eval", default=None, metavar="X,Y")
    group.add_argument("--verify", choices=("hessian", "bounds", "tangent"), default=None)
    p.add_argument("--grid", type=int, default=32)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_bellman)

    p = sub.add_parser("extremal", help="build an extremal weight")
    p.add_argument("--family", required=True, choices=tuple(_FAMILIES))
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--y", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--emit", default=None, help="write the weight to a .json or .csv file")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("dyadic", help="build a splitting tree and verify the chain")
    p.add_argument("--weight", required=True)
    p.add_argument("--mode", choices=("log", "entropy"), default="log")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--q1", type=float, required=True)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--delta0", type=float, default=0.05)
    p.add_argument("--verify", action="store_true", help="run the telescoping chain check")
    p.add_argument("--eps", type=float, default=None, help="entropy-mode surface exponent")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_dyadic)

    p = sub.add_parser("sweep", help="sharpness ratio table over a list of q values")
    p.add_argument("--q-list", required=True, help="comma list of q values (may be empty)")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("selftest", help="run the acceptance and invariant suites")
    p.add_argument("--only", default=None, help="comma list of check-name substrings")
    p.set_defaults(func=_cmd_selftest)

    return parser


@functools.cache
def _option_table() -> dict:
    """Subcommand -> (option string -> (action, type function), defaults as argparse lays
    them out, actions with a str default to convert, required actions, mutually exclusive
    groups), read once from _build_parser's parser.  A subcommand with an action other than
    a one-value store or a store_const (help aside) is left out: _parse_plain declines it."""
    table = {}
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, p in sub.choices.items():
        actions = [a for a in p._actions if not isinstance(a, argparse._HelpAction)]
        if not all(a.option_strings and (isinstance(a, argparse._StoreConstAction)
                   or type(a) is argparse._StoreAction and a.nargs is None) for a in actions):
            continue
        options = {s: (a, p._registry_get("type", a.type, a.type)) for a in actions for s in a.option_strings}
        defaults = {a.dest: a.default for a in actions} | p._defaults  # func after the options
        convert = [(a, options[a.option_strings[0]][1]) for a in actions if isinstance(a.default, str)]
        groups = [(g._group_actions, g.required) for g in p._mutually_exclusive_groups]
        table[name] = options, defaults, convert, {a for a in actions if a.required}, groups
    return table


def _parse_plain(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace argparse gives for CMD (--opt VALUE | --flag)*, each option an exact
    option string given once, no value starting with '-', every value of its type and in
    its choices, the required options and groups present; None for any other argv, which
    main leaves to argparse and its own usage errors."""
    if not argv or (entry := _option_table().get(argv[0])) is None:
        return None
    options, defaults, convert, required, groups = entry
    values, seen, i, n = dict(defaults), set(), 1, len(argv)
    try:
        while i < n:
            action, typed = options.get(argv[i], (None, None))
            if action is None or action in seen:
                return None
            seen.add(action)
            if action.nargs == 0:
                values[action.dest], i = action.const, i + 1
                continue
            if i + 1 == n or argv[i + 1][:1] == "-":
                return None
            value = typed(argv[i + 1])
            if action.choices is not None and value not in action.choices:
                return None
            values[action.dest], i = value, i + 2
        for action, typed in convert:  # a str default not given runs through its type, as in argparse
            if action not in seen:
                values[action.dest] = typed(action.default)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        return None
    if not required <= seen:
        return None
    for members, group_required in groups:
        given = sum(a in seen for a in members)
        if given > 1 or group_required and not given:
            return None
    return argparse.Namespace(command=argv[0], **values)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if (args := _parse_plain(argv)) is None:
        args = _build_parser().parse_args(argv)
    try:
        _check_caps(args)
        ok, output = args.func(args)
        path = getattr(args, "output", None)  # selftest has no --output
        if isinstance(output, dict):
            _write(_json(output), path)
        elif isinstance(output, tuple):
            _write(_csv(*output), path)
        else:
            _write(output, path)
    except (WeightLabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
