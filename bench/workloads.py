"""Seeded workloads for the weightlab benchmark: items, warm-ups and checks.

A workload is a list of blocks. Every block holds the same mix of item kinds
and sizes; the seed draws the weights, exponents, q values, points and the
order of the items inside that mix. With a fixed mix, the median and the
90th percentile land on the same kinds of item whatever the seed and however
many blocks a run completes. Blocks hold 25 items: 0.5 * 25 and 0.9 * 25 both
end in .5, so the percentile ranks fall inside a group of like items rather
than on the edge between two groups.

Inputs that reach a known defect are drawn from a band where the defect always
shows (huge scales, large q, strongly singular exponents), so that the number
of failures per block does not depend on the seed.

Items call the program through module attributes at call time
(`constants.compute_report(...)`, `cli.main(argv)`), so the traced run sees
every call once its wrappers are installed.

Every check runs after the timed phase, on a path other than the one timed.
The tolerances are the module constants below.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from weightlab import bellman, cli, constants, weights

BLOCK_SIZE = 25
# 100 items, so that at least 10 lie beyond the 90th percentile
MIN_BLOCKS = 4

# pair-scan value against the same ratio rebuilt from scalar weights.moment
SCAN_RTOL = 1e-9
# rescaled copy against its unscaled parent (all six constants are scale-invariant)
SCALE_RTOL = 1e-8
# rh1_prime value against the discrete maximal average rebuilt from scalar moments
MAXIMAL_RTOL = 1e-9
# rh1_doubleprime value against the Luxemburg norm solved in mpmath
ORLICZ_RTOL = 1e-6
# |gap| of an extremal weight
GAP_TOL = 1e-6
# |I| m_I against the sum over the two children, for both moment coordinates
ADDITIVE_RTOL = 1e-10
# surface value and tangent abscissa against a 30-digit mpmath solve
ORACLE_RTOL = 1e-9
# sweep ratios against roots solved by the benchmark
SWEEP_RTOL = 1e-9

# Item kinds that fail at the commit that added this benchmark. They still
# count in `failed`; a failure of any other kind makes a run report
# correct = false.
KNOWN_DEFECT_KINDS = frozenset(
    {
        # ROADMAP item 4: coefficients near 1e+-300 overflow or underflow
        "report-rescaled-huge",
        # ROADMAP item 4: the attainment gap of the ainf family grows with q
        "extremal-ainf",
        # ROADMAP item 5: {"pieces": 5} lets a TypeError escape cli.main
        "refuse-pieces-scalar",
        # ROADMAP item 5: --eval 1,-1000 lets an OverflowError escape cli.main
        "refuse-eval-overflow",
        # found with this benchmark: the graded 16-point quadrature behind
        # rh1_doubleprime is 18% low at exponent -0.9 (1e-4 at -0.7)
        "rh1_doubleprime-singular",
        # found with this benchmark: --verify tangent uses an absolute 1e-9
        # bound, and the deviation grows like q^2 * 1e-16 on ainf-upper
        "verify-tangent-ainf-upper-large-q",
        # found with this benchmark: on ainf-lower the tangent and Hessian
        # verifications break down from q ~ 20
        "verify-tangent-ainf-lower-large-q",
        "verify-hessian-ainf-lower-large-q",
        # found with this benchmark: on ainf-lower from q ~ 60 the 110-step
        # tangent bisection over [x, x / gamma] (e^q wide) cannot resolve v
        # near the lower boundary; evaluate and evaluate_many go wrong there
        "eval-ainf-lower-large-q",
        "evaluate_many-ainf-lower-large-q",
    }
)

# q bands per surface. A "-large-q" band starts where the large-q defects
# above always show (for evaluation: at points near the lower boundary). On
# ainf-lower it stops at 250: above that, a degenerate surface can pass its
# own verification with deviation 0.0 (q ~ 283).
SURFACE_Q = {
    "ainf-upper": {"": (1.5, 100.0), "-large-q": (1e3, 1e6)},
    "gehring": {"": (0.05, 20.0), "-large-q": (50.0, 700.0)},
    "ainf-lower": {"": (0.05, 10.0), "-large-q": (80.0, 250.0)},
}


@dataclass
class Item:
    """One timed call plus what its check needs.

    `call` runs inside the timed region. `keep` reduces its output right after
    (outside the item's latency); `check` returns None or the failure reason.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[["Item"], str | None]
    keep: Callable[[object], object] = lambda out: out
    data: dict = field(default_factory=dict)
    result: object = None
    error: str | None = None
    start: float = 0.0
    latency: float = 0.0
    # share of the item's slowness taken from the memory probe (worker.Speed)
    memory_weight: float = 0.0


def rel_err(got: float, want: float, floor: float = 1.0) -> float:
    if got == want:
        return 0.0
    if not (math.isfinite(got) and math.isfinite(want)):
        return math.inf
    return abs(got - want) / max(floor, abs(want))


def log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))


# ---------------------------------------------------------------------------
# the CLI entry point


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main(argv) in-process; returns (exit code, stdout). Exceptions escape."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def cli_item(kind: str, argv: list[str], check: Callable[[Item], str | None]) -> Item:
    return Item(kind, lambda: run_cli(argv), check, data={"argv": argv})


def expect_rc(item: Item, want: int) -> str | None:
    rc = item.result[0]
    return None if rc == want else f"exit code {rc}, expected {want}"


def cli_json(item: Item) -> dict:
    return json.loads(item.result[1])


# ---------------------------------------------------------------------------
# independent float roots of t - log t = c (generation and sweep checks)


def root_t_minus_log_t(c: float, upper: bool) -> float:
    """Root of t - log t = c, c > 1: the one above 1 if `upper`, else below 1.

    Bisection (in log coordinates for the lower root, which reaches e^-744)
    and one Newton polish; written here so that checks share no code with the
    program's solvers.
    """
    if upper:
        lo, hi = 1.0, 2.0 * c + 2.0
        f = lambda t: t - math.log(t) - c
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if f(mid) > 0.0 else (mid, hi)
        t = 0.5 * (lo + hi)
        return t - f(t) / (1.0 - 1.0 / t)
    lo, hi = -c - 1.0, 0.0  # s = log t; e^s - s decreases for s < 0
    g = lambda s: math.exp(s) - s - c
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if g(mid) > 0.0 else (lo, mid)
    s = 0.5 * (lo + hi)
    return math.exp(s - g(s) / (math.exp(s) - 1.0))


def gehring_eps(q: float, frac: float) -> float:
    """An admissible GEHRING exponent: frac of the upper limit 1/(gamma_plus - 1)."""
    return frac / (root_t_minus_log_t(q + 1.0, upper=True) - 1.0)


def interior_point(surface: str, q: float, x: float, frac: float) -> tuple[float, float]:
    """Point at height `frac` between the lower (0) and upper (1) domain boundaries."""
    if surface == "ainf-upper":
        return x, math.log(x) - frac * math.log(q)
    return x, x * math.log(x) + frac * q * x


# ---------------------------------------------------------------------------
# mpmath oracles


def surface_oracle(surface: str, q: float, eps: float | None, x: float, y: float) -> tuple[float, float]:
    """(value, tangent abscissa) of a Bellman surface, solved with 30 digits.

    Both roots are solved in log coordinates: at q = 700 the tangent bracket
    of ainf-lower spans 300 decades.
    """
    import mpmath as mp

    def log_root(f, lo, hi):
        h = lambda s: f(mp.exp(s))
        a, b = mp.log(lo), mp.log(hi)
        if h(a) == 0 or h(b) == 0:
            return lo if h(a) == 0 else hi
        return mp.exp(mp.findroot(h, (a, b), solver="anderson"))

    with mp.workdps(30):
        q, x, y = mp.mpf(q), mp.mpf(x), mp.mpf(y)
        c = 1 + mp.log(q) if surface == "ainf-upper" else q + 1
        gf = lambda t: t - mp.log(t) - c
        g = log_root(gf, 1, 2 * c + 2) if surface == "gehring" else log_root(gf, mp.exp(-c - 1), 1)
        if surface == "ainf-upper":
            v = log_root(lambda v: g * x / v + mp.log(v) - g - y, g * x, x)
            value = x * mp.log(v) + (x - v) / g
        else:
            f = lambda v: (mp.log(v) + g) * x - g * v - y
            if surface == "gehring":
                v = log_root(f, x / g, x)
                e = mp.mpf(eps)
                value = v**e * (x * (1 + e) - e * g * v) / (1 + e - g * e)
            else:
                v = log_root(f, x, x / g)
                value = mp.log(v) + (x - v) / (g * v)
        return float(value), float(v)


def luxemburg_ratio_oracle(w: weights.Weight, a: float, b: float) -> float:
    """||w||_{LlogL} / ||w||_{L} on [a, b], with tanh-sinh quadrature in mpmath.

    A singular piece c t^e touching 0 is integrated in v = t^(1 + e), where
    t^e dt = dv / (1 + e): the integrand keeps only a log singularity.
    """
    import mpmath as mp

    with mp.workdps(15):
        segs = []
        for p in w.pieces:
            s, t1 = max(a, p.support.a), min(b, p.support.b)
            if t1 > s:
                segs.append((mp.mpf(s), mp.mpf(t1), mp.mpf(p.coeff), mp.mpf(p.exponent)))
        length = mp.mpf(b) - mp.mpf(a)

        def integral(phi, s, t1, c, e):
            if s == 0 and e < 0:
                a1 = 1 + e
                return mp.quad(lambda v: phi(c * v ** (e / a1)) * v ** (1 / a1 - 1) / a1, [0, t1**a1])
            return mp.quad(lambda t: phi(c * t**e), [s, t1])

        def avg(phi):
            return sum(integral(phi, *seg) for seg in segs) / length

        avg_w = avg(lambda v: v)
        # Phi(s) = s log(e + s) >= s, so avg Phi(w / avg_w) >= 1 brackets from below
        g = lambda lam: avg(lambda v: v / lam * mp.log(mp.e + v / lam)) - 1
        lo, hi = avg_w, 2 * avg_w
        while g(hi) > 0:
            lo, hi = hi, 2 * hi
        return float(mp.findroot(g, (lo, hi), solver="anderson") / avg_w)


# ---------------------------------------------------------------------------
# seeded weights


def random_weight(rng: np.random.Generator, family: str, alpha: tuple[float, float] = (-0.8, 1.5)) -> weights.Weight:
    """A step, a pure power or a power spike glued to a constant tail.

    `alpha` bounds the exponent of the power and glued families; exponents in
    (-1, 0) make the weight singular at 0.
    """
    if family == "step":
        cells = int(rng.integers(2, 6))
        cuts = np.sort(rng.uniform(0.05, 0.95, size=cells - 1))
        vals = 10.0 ** rng.uniform(-1.0, 1.0, size=cells)
        return weights.step_weight([0.0, *map(float, cuts), 1.0], [float(v) for v in vals])
    exponent = float(rng.uniform(*alpha))
    if family == "power":
        return weights.power_weight(float(10.0 ** rng.uniform(-0.7, 0.7)), exponent)
    a = float(rng.uniform(0.1, 0.8))
    v = float(rng.uniform(0.3, 3.0))
    return weights.Weight(
        (
            weights.PowerPiece(weights.Interval(0.0, a), v / a**exponent, exponent),
            weights.PowerPiece(weights.Interval(a, 1.0), v, 0.0),
        )
    )


FAMILIES = ("step", "power", "glued")


class Workload:
    name = ""
    # scaled seconds one block took at the commit that added the benchmark;
    # sizes the item list of a run from --seconds
    nominal_block_s = 1.0
    # whether the speed probes include the memory probe (see worker.Speed)
    memory_probe = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, sum(map(ord, self.name)), *stream])

    def setup(self) -> None:
        """Inputs shared by every block (weight files)."""

    def warmups(self) -> list[Item]:
        """One small item per item kind."""
        raise NotImplementedError

    def blocks(self, seconds: float) -> int:
        """Blocks in a timed run: the item list depends on the seed and --seconds only."""
        return max(MIN_BLOCKS, round(seconds / self.nominal_block_s))

    def block(self, b: int) -> list[Item]:
        """Block b: the same for a given seed, whatever blocks came before."""
        items = self.make_block(self.rng(b), b)
        if len(items) != BLOCK_SIZE:
            raise RuntimeError(f"{self.name} block has {len(items)} items, not {BLOCK_SIZE}")
        return [items[i] for i in self.rng(b, 1).permutation(len(items))]

    def make_block(self, rng: np.random.Generator, b: int) -> list[Item]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# scan: grid-scanned weight constants through the constants API

PAIR_SCANS = ("rh1", "ainf", "rhp", "ap")


def _scalar_pair_value(w, a: float, b: float, name: str, p: float) -> float:
    iv = weights.Interval(a, b)
    mk = weights.MomentKind
    avg_w = weights.moment(w, iv, mk.AVG_W)
    if name == "rh1":
        return (weights.moment(w, iv, mk.AVG_W_LOG_W) - avg_w * math.log(avg_w)) / avg_w
    if name == "ainf":
        return avg_w * math.exp(-weights.moment(w, iv, mk.AVG_LOG_W))
    if name == "rhp":
        return weights.moment(w, iv, mk.AVG_W_POW, p) ** (1.0 / p) / avg_w
    return avg_w * weights.moment(w, iv, mk.AVG_W_POW, -1.0 / (p - 1.0)) ** (p - 1.0)


def _grid(w, resolution: int) -> np.ndarray:
    """The scan grid: `resolution` uniform points plus breakpoints, merged within 1e-12."""
    pts = np.unique(np.concatenate([np.linspace(0.0, 1.0, resolution), weights.breakpoints(w)]))
    return pts[np.concatenate([[True], np.diff(pts) > 1e-12])]


def _maximal_ratio(w, resolution: int, a: float, b: float) -> float:
    """avg_I M(w 1_I) / avg_I w on the grid interval I = [a, b], from scalar moments.

    M on a grid cell is the larger of w at the cell midpoint and every grid
    average over [pts_i, pts_j] that contains the cell.
    """
    pts = _grid(w, resolution)
    pts = pts[(pts >= a) & (pts <= b)]
    n = len(pts)
    avg = np.full((n, n), -np.inf)
    for i in range(n - 1):
        for j in range(i + 1, n):
            iv = weights.Interval(float(pts[i]), float(pts[j]))
            avg[i, j] = weights.moment(w, iv, weights.MomentKind.AVG_W)
    total = 0.0
    for k in range(n - 1):
        mid = 0.5 * (pts[k] + pts[k + 1])
        m = max(weights.evaluate(w, float(mid)), float(avg[: k + 1, k + 1 :].max()))
        total += m * (pts[k + 1] - pts[k])
    return total / (b - a) / weights.moment(w, weights.Interval(a, b), weights.MomentKind.AVG_W)


def report_memory_weight(resolution: int) -> float:
    """Share of a pair-scan report's slowness taken from the memory probe.

    R x R float matrices fit in L2 at R = 201 (weight 0) and far outgrow it
    at R = 2001 (weight 0.7, the mix that best tracked those items' latency
    across the host's speed states); in between the weight grows with log R.
    """
    return 0.7 * min(1.0, max(0.0, math.log(resolution / 201.0) / math.log(2001.0 / 201.0)))


class Scan(Workload):
    """Grid-scanned constants of seeded weights, plus rescaled copies."""

    name = "scan"
    nominal_block_s = 1.5
    memory_probe = True
    # Sorted by time, a block runs: the R = 201 reports, the maximal scans
    # below R = 64 and their copies (ranks 1-7); the eight R = 401 reports
    # (ranks 8-15, the median at 12.5); the R = 64 maximal scan and the
    # Orlicz scans (ranks 16-21); R = 1201 and 1601 (ranks 22-23, the 90th
    # percentile at 22.5); two R = 2001 reports (ranks 24-25).
    REPORT_RES = (201, 201, 401, 401, 401, 401, 401, 401, 401, 1201, 1601, 2001, 2001)
    MAXIMAL_RES = (32, 40, 48, 64)

    def warmups(self):
        rng = self.rng(10**6)
        w = random_weight(rng, "glued")
        return [
            self._report(w, 201, 2.0),
            self._single("rh1_prime", w, 16),
            self._single("rh1_doubleprime", w, 12),
        ]

    def make_block(self, rng, b):
        fam = lambda k: FAMILIES[k % len(FAMILIES)]
        reports = [
            self._report(random_weight(rng, fam(k)), r, float(rng.uniform(1.5, 3.0)))
            for k, r in enumerate(self.REPORT_RES)
        ]
        maximal = [self._single("rh1_prime", random_weight(rng, fam(k)), r) for k, r in enumerate(self.MAXIMAL_RES)]
        # the quadrature behind rh1_doubleprime is accurate for exponents
        # above -0.45 and wrong below -0.6: one item of each
        mild = (-0.45, 1.5)
        orlicz = [
            self._single("rh1_doubleprime", random_weight(rng, "step"), 24),
            self._single("rh1_doubleprime", random_weight(rng, "glued", mild), 30),
            self._single("rh1_doubleprime", random_weight(rng, "power", mild), 36),
            self._single("rh1_doubleprime", random_weight(rng, "power", (-0.9, -0.6)), 48,
                         kind="rh1_doubleprime-singular"),
        ]
        # Copies rescaled by 10^k. |k| <= 100 stays far from the double range;
        # |k| >= 250 with p >= 1.5 puts c^p beyond it, where the scan breaks.
        moderate = lambda: 10.0 ** float(rng.uniform(-100.0, 100.0))
        huge = lambda: 10.0 ** float(rng.choice([-1.0, 1.0]) * rng.uniform(250.0, 300.0))
        copies = [
            self._rescaled(reports[2], moderate(), "report-rescaled"),
            self._rescaled(reports[0], huge(), "report-rescaled-huge"),
            self._rescaled(maximal[2], moderate(), "rh1_prime-rescaled"),
            self._rescaled(orlicz[0], huge(), "rh1_doubleprime-rescaled-huge"),
        ]
        return reports + maximal + orlicz + copies

    def _report(self, w, resolution: int, p: float, kind: str = "report") -> Item:
        def keep(rep):
            got = {"rh1": rep.rh1, "ainf": rep.ainf, "rhp": rep.rh_p[p], "ap": rep.a_p[p]}
            return {k: (v, iv.a, iv.b) for k, (v, iv) in got.items()}

        def check(item):
            for name, (value, a, b) in item.result.items():
                want = _scalar_pair_value(w, a, b, name, p)
                if not (value == want == math.inf) and rel_err(value, want) > SCAN_RTOL:
                    return f"{name} = {value!r} on [{a}, {b}], scalar moments give {want!r}"
            return None

        call = lambda: constants.compute_report(w, resolution=resolution, which=PAIR_SCANS, p_values=(p,))
        data = {"w": w, "args": (resolution, p)}
        return Item(kind, call, check, keep, data, memory_weight=report_memory_weight(resolution))

    def _single(self, name: str, w, resolution: int, kind: str | None = None) -> Item:
        def keep(res):
            value, iv = res
            return {"value": (value, iv.a, iv.b)}

        def check(item):
            value, a, b = item.result["value"]
            if name == "rh1_prime":
                want, tol = _maximal_ratio(w, resolution, a, b), MAXIMAL_RTOL
            else:
                want, tol = luxemburg_ratio_oracle(w, a, b), ORLICZ_RTOL
            err = rel_err(value, want)
            return None if err <= tol else f"{name} = {value!r} on [{a}, {b}], oracle {want!r}"

        call = lambda: getattr(constants, name + "_constant")(w, resolution=resolution)
        return Item(kind or name, call, check, keep, {"w": w, "args": (name, resolution)})

    def _rescaled(self, parent: Item, c: float, kind: str) -> Item:
        w = weights.rescale(parent.data["w"], c)
        if parent.kind == "report":
            item = self._report(w, *parent.data["args"], kind=kind)
        else:
            name, resolution = parent.data["args"]
            item = self._single(name, w, resolution, kind=kind)

        def check(it):
            if parent.error is not None:
                return "unscaled parent failed"
            for name, (got, _, _) in it.result.items():
                want = parent.result[name][0]
                if not (got == want == math.inf) and rel_err(got, want) > SCALE_RTOL:
                    return f"{name} = {got!r} at scale {c:.3g}, unscaled {want!r}"
            return None

        item.check = check
        return item


# ---------------------------------------------------------------------------
# certify: dyadic chains, extremals and surface evaluation through cli.main


MALFORMED_SCALAR = ('{"pieces": 5}', '{"pieces": 2.5}', '{"pieces": true}', '{"pieces": null}')
MALFORMED_OTHER = (
    '{"pieces": [',
    "[1, 2]",
    '{"pieces": []}',
    '{"pieces": [{"a": 0, "b": 1, "coeff": 1}]}',
    '{"pieces": [{"a": 0, "b": 0.4, "coeff": 1, "exponent": 0}, {"a": 0.5, "b": 1, "coeff": 1, "exponent": 0}]}',
    '{"pieces": [{"a": 0, "b": 1, "coeff": -2, "exponent": 0}]}',
    '{"pieces": [{"a": 0, "b": 1, "coeff": 1, "exponent": -1.5}]}',
)


def surface_args(rng, surface: str, band: str) -> tuple[float, float | None, list[str]]:
    """q (and eps for gehring) drawn from a band, with their CLI arguments."""
    q = log_uniform(rng, *SURFACE_Q[surface][band])
    eps = gehring_eps(q, float(rng.uniform(0.1, 0.9))) if surface == "gehring" else None
    argv = ["--surface", surface, "--q", repr(q)]
    return q, eps, argv + (["--eps", repr(eps)] if eps is not None else [])


class Certify(Workload):
    """CLI traffic on the scalar-call path: chains, trees, extremals, evaluations."""

    name = "certify"
    nominal_block_s = 0.8

    def setup(self):
        self.malformed = {}
        for label, texts in (("scalar", MALFORMED_SCALAR), ("other", MALFORMED_OTHER)):
            self.malformed[label] = []
            for k, text in enumerate(texts):
                path = self.workdir / f"bad_{label}{k}.json"
                path.write_text(text)
                self.malformed[label].append(str(path))

    def warmups(self):
        rng = self.rng(10**6 + 1)
        return [
            self._chain(rng, "warmup0", "log", 2, verify=True),
            self._chain(rng, "warmup1", "entropy", 2, verify=False),
            self._extremal(rng, "funny", 0.0, 1.0),
            self._eval(rng, "ainf-upper", ""),
            self._refuse_json(rng, "other"),
            self._refuse_eval(rng, overflow=False),
        ]

    def make_block(self, rng, b):
        chains = [(mode, d) for mode in ("log", "entropy") for d in (4, 5, 6, 6)]
        items = [self._chain(rng, f"b{b}_{k}", mode, d, verify=True) for k, (mode, d) in enumerate(chains)]
        items.append(self._chain(rng, f"b{b}_tree", str(rng.choice(["log", "entropy"])), 6, verify=False))
        # ainf accepts q up to 1e30: one q per ten decades
        items += [self._extremal(rng, "ainf", lo, lo + 10.0) for lo in (0.0, 10.0, 20.0)]
        # the entropy families accept q up to ~743
        items += [self._extremal(rng, f, -2.0, math.log10(700.0)) for f in ("funny", "gehring-boundary", "gehring-interior")]
        items += [self._eval(rng, s, band) for s in SURFACE_Q for band in SURFACE_Q[s]]
        items += [self._refuse_json(rng, "scalar"), self._refuse_json(rng, "other")]
        items += [self._refuse_eval(rng, overflow=False), self._refuse_eval(rng, overflow=True)]
        return items

    def _chain(self, rng, label: str, mode: str, depth: int, verify: bool) -> Item:
        """A dyadic chain or tree on a fresh weight file, at a q the weight fits."""
        w = random_weight(rng, FAMILIES[int(rng.integers(len(FAMILIES)))])
        path = str(self.workdir / f"weight_{label}.json")
        weights.save_weight(w, path)
        # the grid sup is a lower bound of the constant; the margin keeps
        # every dyadic node inside the q domain
        if mode == "log":
            q = max(1.25 * constants.ainf_constant(w, resolution=101)[0], 1.05)
            q1 = 1.3 * q
        else:
            q = 1.25 * max(constants.rh1_constant(w, resolution=101)[0], 0.0) + 0.02
            q1 = 1.3 * q + 0.05
        argv = ["dyadic", "--weight", path, "--mode", mode, "--q", repr(q), "--q1", repr(q1), "--depth", str(depth)]
        if verify:
            def check(item):
                bad = expect_rc(item, 0)
                if bad:
                    return bad
                rep = cli_json(item)
                if not (rep["monotone"] and rep["meets_target"]):
                    return f"monotone={rep['monotone']} meets_target={rep['meets_target']}"
                return None

            return cli_item(f"dyadic-verify-{mode}", argv + ["--verify"], check)

        def check(item):
            bad = expect_rc(item, 0)
            if bad:
                return bad
            stack = [cli_json(item)["tree"]]
            while stack:
                node = stack.pop()
                kids = node.get("children", [])
                if not kids:
                    continue
                (a, b), (la, lb), (ra, rb) = node["interval"], kids[0]["interval"], kids[1]["interval"]
                if not (la == a and lb == ra and rb == b):
                    return f"children of [{a}, {b}] do not tile it"
                for k in (0, 1):
                    whole = (b - a) * node["point"][k]
                    parts = (lb - la) * kids[0]["point"][k] + (rb - ra) * kids[1]["point"][k]
                    if abs(whole - parts) > ADDITIVE_RTOL * max(1.0, abs(whole)):
                        return f"moment {k} not additive on [{a}, {b}]: {whole!r} vs {parts!r}"
                stack.extend(kids)
            return None

        return cli_item(f"dyadic-tree-{mode}", argv, check)

    def _extremal(self, rng, family: str, lo: float, hi: float) -> Item:
        q = 10.0 ** float(rng.uniform(max(lo, 0.01) if family == "ainf" else lo, hi))
        argv = ["extremal", "--family", family, "--q", repr(q)]
        if family.startswith("gehring"):
            argv += ["--eps", repr(gehring_eps(q, float(rng.uniform(0.1, 0.9))))]

        def check(item):
            bad = expect_rc(item, 0)
            if bad:
                return bad
            gap = cli_json(item).get("gap")
            if gap is None or not abs(gap) <= GAP_TOL:
                return f"q = {q:.4g}: gap {gap}"
            return None

        return cli_item(f"extremal-{family}", argv, check)

    def _eval(self, rng, surface: str, band: str) -> Item:
        q, eps, args = surface_args(rng, surface, band)
        # large q: a point just above the lower boundary
        frac = float(rng.uniform(0.01, 0.05) if band else rng.uniform(0.05, 0.95))
        x, y = interior_point(surface, q, float(rng.uniform(0.3, 3.0)), frac)

        def check(item):
            bad = expect_rc(item, 0)
            if bad:
                return bad
            rep = cli_json(item)
            value, v = surface_oracle(surface, q, eps, x, y)
            if rel_err(rep["value"], value) > ORACLE_RTOL or rel_err(rep["tangent"], v) > ORACLE_RTOL:
                return f"({x}, {y}): value {rep['value']!r} tangent {rep['tangent']!r}, oracle {value!r} {v!r}"
            return None

        return cli_item(f"eval-{surface}{band}", ["bellman", *args, "--eval", f"{x!r},{y!r}"], check)

    def _refuse_json(self, rng, label: str) -> Item:
        path = str(rng.choice(self.malformed[label]))
        argv = ["dyadic", "--weight", path, "--q", "2.0", "--q1", "3.0", "--depth", "2"]
        return cli_item(f"refuse-pieces-{label}", argv, lambda item: expect_rc(item, 2))

    def _refuse_eval(self, rng, overflow: bool) -> Item:
        surface = "ainf-upper" if overflow else str(rng.choice(list(SURFACE_Q)))
        q, _, args = surface_args(rng, surface, "")
        x = float(rng.uniform(0.3, 3.0))
        if overflow:
            y = -float(rng.uniform(720.0, 1000.0))  # x e^-y overflows a double
        else:
            # below the lower or above the upper boundary
            frac = float(rng.uniform(0.1, 2.0))
            x, y = interior_point(surface, q, x, -frac if rng.random() < 0.5 else 1.0 + frac)
        kind = "refuse-eval-overflow" if overflow else "refuse-eval-domain"
        return cli_item(kind, ["bellman", *args, "--eval", f"{x!r},{y!r}"], lambda item: expect_rc(item, 2))


# ---------------------------------------------------------------------------
# surface: grid verification, sweeps and batched evaluation


class Surface(Workload):
    """Grid verifications, q sweeps and evaluate_many batches."""

    name = "surface"
    nominal_block_s = 2.1
    ORACLE_SAMPLES = 6

    def warmups(self):
        rng = self.rng(10**6)
        return [
            self._verify(rng, "gehring", "", "hessian", 2),
            self._verify(rng, "ainf-upper", "", "tangent", 2),
            self._verify(rng, "ainf-upper", "", "bounds", 4),
            self._sweep(rng, 4),
            self._many(rng, "ainf-lower", "", 100),
        ]

    def make_block(self, rng, b):
        # the scalar Hessian loop makes the slowest items, so the 90th
        # percentile lies among them
        items = [self._verify(rng, s, band, "hessian", 16) for s in SURFACE_Q for band in SURFACE_Q[s]]
        items += [self._verify(rng, s, band, "tangent", 24) for s in SURFACE_Q for band in SURFACE_Q[s]]
        items += [self._verify(rng, "ainf-upper", band, "bounds", 120) for band in SURFACE_Q["ainf-upper"]]
        items += [self._sweep(rng, n) for n in (200, 300, 400, 500, 600)]
        items += [self._many(rng, s, band, n) for s in SURFACE_Q for band, n in zip(SURFACE_Q[s], (10_000, 60_000))]
        return items

    def _verify(self, rng, surface: str, band: str, what: str, grid: int) -> Item:
        q, _, args = surface_args(rng, surface, band)

        def check(item):
            bad = expect_rc(item, 0)
            if bad:
                return bad
            rep = cli_json(item)
            return None if rep["passed"] is True else f"q = {q!r}: passed = {rep['passed']}"

        argv = ["bellman", *args, "--verify", what, "--grid", str(grid)]
        return cli_item(f"verify-{what}-{surface}{band}", argv, check)

    def _sweep(self, rng, n: int) -> Item:
        qs = np.exp(rng.uniform(math.log(0.05), math.log(700.0), size=n))

        def check(item):
            bad = expect_rc(item, 0)
            if bad:
                return bad
            rows = item.result[1].strip().splitlines()[1:]
            if len(rows) != n:
                return f"{len(rows)} rows for {n} q values"
            for row in rows:
                q, e_ratio, funny_ratio = map(float, row.split(","))
                if q > 1.0:
                    g = root_t_minus_log_t(1.0 + math.log(q), upper=False)
                    want = (math.log(g) + 1.0 / g - 1.0) / q
                    if rel_err(e_ratio, want, floor=0.0) > SWEEP_RTOL:
                        return f"q = {q}: e_ratio {e_ratio!r}, expected {want!r}"
                elif not math.isnan(e_ratio):
                    return f"q = {q}: e_ratio {e_ratio!r}, expected nan"
                if q + 1.0 > 690.0:
                    want = 1.0
                else:
                    gm = root_t_minus_log_t(q + 1.0, upper=False)
                    want = (math.log(gm) + (1.0 - gm) / gm) / (math.exp(q + 1.0) - q - 2.0)
                if rel_err(funny_ratio, want, floor=0.0) > SWEEP_RTOL:
                    return f"q = {q}: funny_ratio {funny_ratio!r}, expected {want!r}"
            return None

        return cli_item("sweep", ["sweep", "--q-list", ",".join(repr(float(q)) for q in qs)], check)

    def _many(self, rng, surface: str, band: str, n: int) -> Item:
        q, eps, _ = surface_args(rng, surface, band)
        xs = rng.uniform(0.3, 3.0, size=n)
        fr = rng.uniform(0.01, 0.99, size=n)
        ys = np.log(xs) - fr * math.log(q) if surface == "ainf-upper" else xs * np.log(xs) + fr * q * xs
        # the point nearest the lower boundary, where tangent solves are hardest
        picks = [int(np.argmin(fr)), *rng.choice(n, size=self.ORACLE_SAMPLES - 1, replace=False)]
        # the check keeps only the sampled points; the arrays go with `call`
        sample_pts = [(float(xs[i]), float(ys[i])) for i in picks]
        kind = bellman.SurfaceKind[surface.upper().replace("-", "_")]

        def call():
            return bellman.evaluate_many(bellman.BellmanSurface(kind, q, eps=eps), xs, ys)

        def keep(vals):
            return bool(np.all(np.isfinite(vals))), [float(vals[i]) for i in picks]

        def check(item):
            finite, sample = item.result
            if not finite:
                return "non-finite values"
            for (x, y), got in zip(sample_pts, sample):
                want = surface_oracle(surface, q, eps, x, y)[0]
                if rel_err(got, want) > ORACLE_RTOL:
                    return f"q = {q!r} at ({x!r}, {y!r}): {got!r}, oracle {want!r}"
            return None

        return Item(f"evaluate_many-{surface}{band}", call, check, keep)


WORKLOADS = {cls.name: cls for cls in (Scan, Certify, Surface)}
