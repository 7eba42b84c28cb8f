"""Self-contained verification suite behind `weightlab selftest`.

Twelve numbered acceptance checks cover the sharp-constant pipeline end to
end, followed by per-module invariant sweeps.  Every check returns a
(passed, detail) pair; nothing here writes files or reads the network.
The quadrature oracle in criterion 12 is an independent composite Simpson
rule in log coordinates, so it shares no code path with the closed-form
moment evaluation it is checking.
"""

from __future__ import annotations

import math

import numpy as np

from . import bellman, constants, dyadic, extremals, solvers, weights
from .weights import Interval, MomentKind

__all__ = ["run", "CHECKS"]

# frozen reference values, computed once with 40-digit arithmetic from the defining
# equations (bisection on t - log t = c, closed forms); the tests import them from here
GAMMA_MINUS_1 = 0.15859433956303936
GAMMA_PLUS_1 = 3.1461932206205826
EPS_MINUS_1 = 0.4659412723849929
FUNNY_BOUND_1 = 31.944167676853871
GEHRING_B_1_03 = 8.834096854361394
GEHRING_DIM_1_1 = 0.15946979066683606


# ---------------------------------------------------------------------------
# independent quadrature oracle (criterion 12 and a few attainment checks)

def _piece_at(w: weights.Weight, t: float) -> weights.PowerPiece:
    """The piece whose open support contains t."""
    for piece in w.pieces:
        if piece.support.a < t < piece.support.b:
            return piece
    raise ValueError(f"no piece strictly contains {t}")


def _oracle_moment(w, interval, kind, p=None):
    """Composite Simpson with t = e^u substitution; returns (moment, mean|g|).

    The change of variables turns power singularities at 0 into smooth
    exponential decay, so a uniform u-mesh resolves pieces touching 0.
    """
    lo = math.log(max(interval.a, 1e-300))
    hi = math.log(interval.b)
    per_unit = 400 if (hi - lo) < 40.0 else 200
    n = max(8, int((hi - lo) * per_unit))
    n += n % 2
    acc = 0.0
    acc_abs = 0.0
    # integrate piecewise so breakpoint kinks never sit inside a panel
    cuts = [interval.a] + [
        b for b in weights.breakpoints(w) if interval.a < b < interval.b
    ] + [interval.b]
    for a, b in zip(cuts[:-1], cuts[1:]):
        s = math.log(max(a, 1e-300))
        e = math.log(b)
        m = max(8, int((e - s) / (hi - lo) * n))
        m += m % 2
        u = np.linspace(s, e, m + 1)
        t = np.exp(u)
        # each panel lies inside one piece; evaluating that piece directly
        # sidesteps breakpoint ambiguity after the exp(log(.)) round trip
        piece = _piece_at(w, math.sqrt(a if a > 0.0 else b * 1e-30) * math.sqrt(b))
        wv = piece.coeff * t**piece.exponent
        if kind is MomentKind.AVG_W:
            g = wv
        elif kind is MomentKind.AVG_LOG_W:
            g = np.log(wv)
        elif kind is MomentKind.AVG_W_LOG_W:
            g = wv * np.log(wv)
        else:
            g = wv**p
        g = g * t  # jacobian of t = e^u
        h = (e - s) / m
        wts = np.ones(m + 1)
        wts[1:-1:2] = 4.0
        wts[2:-1:2] = 2.0
        acc += h / 3.0 * float(np.dot(wts, g))
        acc_abs += h / 3.0 * float(np.dot(wts, np.abs(g)))
    length = interval.b - interval.a
    return acc / length, acc_abs / length


# ---------------------------------------------------------------------------
# the twelve acceptance checks

def criterion_01_root_certification():
    """Certified roots match frozen 40-digit references with tiny residuals."""
    checks = []
    r = solvers.gamma_log(math.e)
    checks.append(("gamma_log(e)", abs(r.root - GAMMA_MINUS_1), abs(r.residual)))
    minus, plus = solvers.gamma_entropy_roots(1.0)
    checks.append(("gamma_minus(1)", abs(minus.root - GAMMA_MINUS_1), abs(minus.residual)))
    checks.append(("gamma_plus(1)", abs(plus.root - GAMMA_PLUS_1), abs(plus.residual)))
    r = solvers.eps_minus(1.0)
    checks.append(("eps_minus(1)", abs(r.root - EPS_MINUS_1), abs(r.residual)))
    worst_err = max(c[1] for c in checks)
    worst_res = max(c[2] for c in checks)
    ok = worst_err <= 1e-12 and worst_res <= 1e-12
    return ok, f"max root error {worst_err:.2e}, max residual {worst_res:.2e}"


def _bisect_eps_minus(q: float) -> float:
    """eps_minus(q) by bisection of u - log(1 + u) = q, u = 1/eps, on [q, 2q + 1]."""
    lo, hi = q, 2.0 * q + 1.0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if mid - math.log1p(mid) - q > 0.0 else (mid, hi)
    return 2.0 / (lo + hi)


def criterion_02_eps_gamma_identity():
    """eps * (gamma_plus(q) - 1) = 1 and eps_minus(q) = eps, eps by bisection, for 20 q.

    eps_minus and gamma_plus share the root kernel; the bisection does not.
    """
    worst_id, worst_eps = 0.0, 0.0
    for q in np.geomspace(0.05, 50.0, 20):
        eps = _bisect_eps_minus(float(q))
        gp = solvers.gamma_entropy_roots(float(q))[1].root
        worst_id = max(worst_id, abs(eps * (gp - 1.0) - 1.0))
        worst_eps = max(worst_eps, abs(solvers.eps_minus(float(q)).root / eps - 1.0))
    ok = worst_id <= 1e-10 and worst_eps <= 1e-12
    return ok, (
        f"max |eps*(gamma_plus-1) - 1| = {worst_id:.2e}, eps_minus off bisection by "
        f"{worst_eps:.2e}, over 20 q in [0.05, 50]"
    )


def criterion_03_gehring_closed_forms():
    """The p = 2 self-improvement equation matches its two radical solutions."""
    e1 = abs(solvers.gehring_sharp_eps(2.0, math.sqrt(2.0)).root - (math.sqrt(2.0) - 1.0))
    e2 = abs(solvers.gehring_sharp_eps(2.0, 2.0).root - (2.0 * math.sqrt(3.0) - 3.0) / 3.0)
    worst = max(e1, e2)
    ok = worst <= 1e-10
    return ok, f"max closed-form error {worst:.2e} at (p,k)=(2,sqrt2),(2,2)"


def criterion_04_ainf_bound_and_e_ratio():
    """Surface envelope bounds hold on grids and the large-q ratio approaches e."""
    reps = [bellman.bounds_check_ainf(q, grid=100) for q in (1.5, 2.0, 10.0)]
    worst = max(max(rep.max_lower_violation, rep.max_upper_violation) for rep in reps)
    ratio = bellman.bounds_check_ainf(1e6, grid=2).ratio_bound / 1e6
    gap = abs(ratio / math.e - 1.0)
    ok = all(rep.passed for rep in reps) and gap <= 0.02
    return ok, (
        f"max envelope violation {worst:.2e}; "
        f"ratio bound at q = 1e6 is {ratio:.9f} ({gap:.2e} from e)"
    )


def criterion_05_funny_bound_attainment():
    """The entropy-to-flatness bound value, its attaining weight, and asymptotics."""
    err_val = abs(solvers.funny_bound(1.0) - FUNNY_BOUND_1)
    spec = extremals.ExtremalSpec(extremals.Family.FUNNY, 1.0)
    w = extremals.build(spec)
    rep = constants.compute_report(w, resolution=300)
    gap_rh1 = abs(rep.rh1[0] - 1.0)
    gap_ainf = abs(rep.ainf[0] - FUNNY_BOUND_1)
    ratio8 = solvers.funny_bound_log(8.0) / (math.exp(9.0) - 10.0)
    gap8 = abs(ratio8 - 1.0)
    ok = err_val <= 1e-9 and gap_rh1 <= 1e-6 and gap_ainf <= 1e-3 and gap8 <= 1e-3
    return ok, (
        f"bound error {err_val:.2e}; attaining weight rh1-1 = {gap_rh1:.2e}, "
        f"ainf gap {gap_ainf:.2e}; q=8 log-ratio gap {gap8:.2e}"
    )


def criterion_06_gehring_attainment_divergence():
    """Boundary extremal: unit entropy ratio, sharp p-average, critical blow-up."""
    spec = extremals.ExtremalSpec(extremals.Family.GEHRING_BOUNDARY, 1.0)
    rep, w = extremals._attain(spec, eps=0.3)  # the weight does not depend on eps
    rh1, _ = constants.rh1_constant(w, resolution=300)
    gap_rh1 = abs(rh1 - 1.0)
    gap_b = abs(rep.weight_value / GEHRING_B_1_03 - 1.0)
    p_crit = 1.0 + solvers.eps_minus(1.0).root
    deltas = tuple(10.0**-k for k in range(3, 13))
    vals = extremals.divergence_probe(w, p_crit, deltas)
    gap_log = max(abs(v - math.log(1.0 / d)) for v, d in zip(vals, deltas))
    ok = gap_rh1 <= 1e-6 and gap_b <= 1e-4 and gap_log <= 1e-6
    return ok, (
        f"rh1-1 = {gap_rh1:.2e}; p-average vs surface {gap_b:.2e}; "
        f"critical integral vs log(1/delta) {gap_log:.2e}"
    )


def criterion_07_hessian_signatures():
    """Closed-form Hessians carry the required signature at 1000 interior points."""
    details = []
    ok = True
    for q in (1.5, 5.0):
        eps = 0.5 / (solvers.gamma_entropy_roots(q)[1].root - 1.0)
        for kind in bellman.SurfaceKind:
            surface = bellman.BellmanSurface(kind, q, eps=eps if kind.value == "gehring" else None)
            excess, threshold, res = bellman.hessian_signature(
                surface, *bellman.interior_grid(surface, 25, 40)
            )
            worst = float(np.max(excess))
            ok = ok and worst <= threshold
            details.append(f"{kind.value} q={q}: signature excess {worst:.1e}")
            if kind is bellman.SurfaceKind.AINF_UPPER:
                # B_yy must stay <= 0 far tighter than the shared rule asks
                worst_byy = float(np.max(res.matrix[..., 1, 1]))
                ok = ok and worst_byy <= 1e-12
                details[-1] += f", max Byy {worst_byy:.1e}"
    return ok, "; ".join(details)


def criterion_08_limit_identity():
    """The p -> 1 ratio limit recovers the entropy gap of w(t) = t."""
    w = weights.power_weight(1.0, 1.0)
    iv = Interval(0.0, 1.0)
    target = math.log(2.0) - 0.5
    gaps = []
    for p in (1.1, 1.01, 1.001):
        lhs, rhs = constants.rh1_limit_check(w, iv, p)
        gaps.append(abs(lhs - target))
        err_rhs = abs(rhs - target)
    decreasing = gaps[0] > gaps[1] > gaps[2]
    ok = decreasing and gaps[-1] <= 2e-4 and err_rhs <= 1e-12
    return ok, (
        f"|lhs - (log2 - 1/2)| = {gaps[0]:.2e}, {gaps[1]:.2e}, {gaps[2]:.2e} "
        f"for p = 1.1, 1.01, 1.001 (decreasing: {decreasing})"
    )


def criterion_09_truncation_monotonicity():
    """Two-sided truncation never increases the flatness functionals."""
    worst = -math.inf
    count = 0
    for w in weights.reference_corpus():
        base = constants.compute_report(w, resolution=101)
        for n in (2.0, 10.0, 100.0):
            cut = constants.compute_report(weights.truncate(w, n), resolution=101)
            worst = max(worst, cut.rh1[0] - base.rh1[0], cut.ainf[0] - base.ainf[0])
            count += 1
    ok = worst <= 1e-6
    return ok, f"max truncated-minus-original constant gap {worst:.2e} over {count} pairs"


def criterion_10_dyadic_chain():
    """Splitting tree for w(t) = t stays admissible and telescopes to -1/4."""
    q = 1.1 * math.e / 2.0
    cfg = dyadic.SplitConfig(q=q, q1=1.2 * q)
    w = weights.power_weight(1.0, 1.0)
    tree = dyadic.build_partition(w, cfg, dyadic.SplitMode.LOG, max_depth=8)

    lengths = tree.ends[:, 1] - tree.ends[:, 0]  # each left child's share of its parent: rows 2i + 1 over rows i
    a_lo, a_hi = min(alphas := (lengths[1::2] / lengths[:lengths.size // 2]).tolist()), max(alphas)
    surface = bellman.BellmanSurface(bellman.SurfaceKind.AINF_UPPER, cfg.q1)
    rep = dyadic.chain_verify(surface, w, tree)
    ok = 0.05 - 1e-12 <= a_lo and a_hi <= 0.95 + 1e-12 and rep.passed
    return ok, (
        f"alphas in [{a_lo:.3f}, {a_hi:.3f}]; sums monotone: {rep.monotone}; "
        f"S_8 = {rep.sums[-1]:.9f} >= -1/4 (target {rep.target:.9f})"
    )


def criterion_11_dimensional_pipeline():
    """Dimensional exponent value, good-lambda closure, and the p -> 1 route."""
    err_val = abs(solvers.gehring_dim_n_eps(1, 1.0) - GEHRING_DIM_1_1)
    worst_log = -math.inf
    for n in (1, 2, 3):
        for q in (0.5, 1.0, 5.0):
            worst_log = max(worst_log, solvers.good_lambda_verify(n, q))
    k, _ = constants.rhp_constant(weights.power_weight(1.0, 0.25), 2.0, resolution=300)
    bound, delta = solvers.p_gehring_via_one(1, 2.0, k)
    rh1_half, _ = constants.rh1_constant(weights.power_weight(1.0, 0.5), resolution=300)
    ok = err_val <= 1e-9 and worst_log < 0.0 and delta > 0.0 and bound >= rh1_half
    return ok, (
        f"exponent error {err_val:.2e}; max good-lambda log {worst_log:.2e}; "
        f"routed bound {bound:.6g} >= measured {rh1_half:.6g}, delta = {delta:.3e}"
    )


def criterion_12_moment_quadrature():
    """Closed-form and cumulative moments agree with an independent log-mesh Simpson rule."""
    rng = np.random.default_rng(2026)
    kinds = (MomentKind.AVG_W, MomentKind.AVG_LOG_W,
             MomentKind.AVG_W_LOG_W, MomentKind.AVG_W_POW)
    worst_far, worst_near = 0.0, 0.0
    for i in range(200):
        singular = i % 4 == 0
        cuts = np.sort(rng.uniform(0.1, 0.9, size=rng.integers(0, 3)))
        edges = [0.0, *[float(c) for c in cuts], 1.0]
        pieces = []
        for j, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            if singular and j == 0:
                alpha = float(rng.uniform(-0.9, -0.1))
            else:
                alpha = float(rng.uniform(-0.6, 1.5))
            pieces.append(weights.PowerPiece(Interval(a, b),
                                             float(rng.uniform(0.3, 5.0)), alpha))
        w = weights.Weight(tuple(pieces))
        kind = kinds[i % 4]
        p = None
        if kind is MomentKind.AVG_W_POW:
            # keep p * alpha > -1 on the piece at 0 so the moment converges
            p_hi = 2.0
            if singular:
                p_hi = min(2.0, 0.9 / abs(w.pieces[0].exponent))
            p = float(rng.uniform(min(1.05, 0.9 * p_hi), p_hi))
        if singular:
            iv = Interval(0.0, float(rng.uniform(0.4, 1.0)))
        else:
            iv = Interval(float(rng.uniform(0.05, 0.4)), float(rng.uniform(0.5, 1.0)))
        ref, mean_abs = _oracle_moment(w, iv, kind, p)
        scale = max(1.0, abs(ref), mean_abs)
        # the scalar closed form, and the array path through a cumulative difference
        cum = weights.cumulative_moment(w, np.array([iv.a, iv.b]), kind, p)
        got = (weights.moment(w, iv, kind, p), (cum[1] - cum[0]) / iv.length)
        rel = max(abs(g - ref) for g in got) / scale
        if iv.a > 0.0:
            worst_far = max(worst_far, rel)
        else:
            worst_near = max(worst_near, rel)
    ok = worst_far <= 1e-9 and worst_near <= 1e-6
    return ok, (
        f"max relative gap {worst_far:.2e} away from 0 (tol 1e-9), "
        f"{worst_near:.2e} touching 0 (tol 1e-6), 200 triples"
    )


# ---------------------------------------------------------------------------
# module invariant sweeps (superset checks; the same properties the unit
# tests exercise, compressed into one named entry per module)

def invariants_weights():
    """Moment additivity, Jensen ordering, truncation pointwise pinching."""
    rng = np.random.default_rng(11)
    worst_add, worst_jensen = 0.0, 0.0
    corpus = weights.reference_corpus()
    for _ in range(300):
        w = corpus[int(rng.integers(0, len(corpus)))]
        a, m, b = np.sort(rng.uniform(0.0, 1.0, size=3))
        if b - a < 1e-3 or m - a < 1e-6 or b - m < 1e-6:
            continue
        whole = weights.moment(w, Interval(a, b), MomentKind.AVG_W) * (b - a)
        parts = (weights.moment(w, Interval(a, m), MomentKind.AVG_W) * (m - a)
                 + weights.moment(w, Interval(m, b), MomentKind.AVG_W) * (b - m))
        worst_add = max(worst_add, abs(whole - parts) / max(1.0, abs(whole)))
        iv = Interval(a, b)
        avg_w = weights.moment(w, iv, MomentKind.AVG_W)
        avg_log = weights.moment(w, iv, MomentKind.AVG_LOG_W)
        if math.isfinite(avg_log):
            worst_jensen = max(worst_jensen, avg_log - math.log(avg_w))
    wn = weights.truncate(corpus[2], 10.0)
    ts = np.linspace(1e-6, 1.0, 500)
    pinch = max(
        max(weights.evaluate(wn, float(t)) - 10.0 for t in ts),
        max(0.1 - weights.evaluate(wn, float(t)) for t in ts),
    )
    ok = worst_add <= 1e-12 and worst_jensen <= 1e-12 and pinch <= 0.0
    return ok, (
        f"additivity {worst_add:.1e}, Jensen excess {worst_jensen:.1e}, "
        f"truncation range excess {pinch:.1e}"
    )


def invariants_solvers():
    """Residuals at roots, bracket membership, monotonicity in the ratio bound."""
    worst_res = 0.0
    rng = np.random.default_rng(5)
    held = lambda r: r.bracket[0] <= r.root <= r.bracket[1]
    for q in rng.uniform(1.05, 50.0, size=25):
        r = solvers.gamma_log(float(q))
        worst_res = max(worst_res, abs(r.residual))
        if not (0.0 < r.root < 1.0 and held(r)):
            return False, f"gamma_log({q}) root {r.root} outside (0, 1) or its bracket {r.bracket}"
    for q in rng.uniform(0.05, 20.0, size=25):
        minus, plus = solvers.gamma_entropy_roots(float(q))
        worst_res = max(worst_res, abs(minus.residual), abs(plus.residual))
        if not (0.0 < minus.root < 1.0 < plus.root and held(minus) and held(plus)):
            return False, f"entropy roots misordered or outside their brackets at q={q}"
    eps_seq = [solvers.gehring_sharp_eps(2.0, k).root for k in (1.2, 1.5, 2.0, 4.0)]
    decreasing = all(a > b for a, b in zip(eps_seq, eps_seq[1:]))
    ok = worst_res <= 1e-12 and decreasing
    return ok, f"max residual {worst_res:.1e}; sharp eps decreasing in k: {decreasing}"


def invariants_constants():
    """Scaling invariance and exponent monotonicity of the scanned constants."""
    w = weights.power_weight(1.0, 0.5)
    base = constants.compute_report(w, resolution=101)
    worst = 0.0
    for c in (0.1, 7.0, 1000.0):
        rep = constants.compute_report(weights.rescale(w, c), resolution=101)
        worst = max(worst, abs(rep.rh1[0] - base.rh1[0]), abs(rep.ainf[0] - base.ainf[0]))
    rh_p = constants.compute_report(w, resolution=51, which=("rhp",), p_values=(1.5, 2.0, 3.0)).rh_p
    rh_seq = [v for v, _ in rh_p.values()]
    increasing = rh_seq[0] <= rh_seq[1] <= rh_seq[2]
    ok = worst <= 1e-10 and increasing
    return ok, f"scaling drift {worst:.1e}; rh_p nondecreasing in p: {increasing}"


def invariants_bellman():
    """Boundary values and chord linearity."""
    xs, vs = np.array([0.5, 1.0, 2.0]), np.array([0.6, 1.0, 1.7])
    worst_val, worst_lin, lin_ok = 0.0, 0.0, True
    for q in (1.3, 2.0, 6.0):
        gp = solvers.gamma_entropy_roots(q)[1].root
        up = bellman.BellmanSurface(bellman.SurfaceKind.AINF_UPPER, q)
        geh = bellman.BellmanSurface(bellman.SurfaceKind.GEHRING, q, eps=0.4 / (gp - 1.0))
        # the lower boundary: y = log x (value x log x), y = x log x (value x^{1+eps})
        for surface, ys, want in ((up, np.log(xs), xs * np.log(xs)),
                                  (geh, xs * np.log(xs), xs ** (1.0 + geh.eps))):
            worst_val = max(worst_val, *np.abs(bellman.evaluate_many(surface, xs, ys) - want))
            excess, threshold, dev = bellman.tangent_linearity_excess(surface, vs)
            worst_lin = max(worst_lin, *dev)
            lin_ok = lin_ok and bool(np.all(excess <= threshold))
    ok = worst_val <= 1e-10 and lin_ok
    return ok, f"boundary value error {worst_val:.1e}; tangent linearity {worst_lin:.1e}"


def invariants_extremals():
    """Random-target attainment within 1e-6 relative for every family."""
    rng = np.random.default_rng(17)
    worst = 0.0
    for q in (0.7, 1.0, 2.5):
        gp = solvers.gamma_entropy_roots(q)[1].root
        for _ in range(12):
            x = float(rng.uniform(0.4, 2.5))
            fam_targets = [
                (extremals.Family.AINF_UPPER,
                 (x, math.log(x) - float(rng.uniform(0.05, 0.95)) * math.log(max(q, 1.05))),
                 None),
                (extremals.Family.GEHRING_INTERIOR,
                 (x, x * math.log(x) + float(rng.uniform(0.05, 0.6)) * q * x),
                 0.5 / (gp - 1.0)),
            ]
            for family, target, eps in fam_targets:
                if family is extremals.Family.AINF_UPPER and q <= 1.0:
                    continue
                spec = extremals.ExtremalSpec(family, q, target=target, eps=eps)
                try:
                    rep = extremals.attainment_check(spec)
                except extremals.InfeasibleTargetError:
                    continue
                worst = max(worst, abs(rep.gap))
    ok = worst <= 1e-6
    return ok, f"max attainment gap {worst:.1e} over random targets"


def invariants_dyadic():
    """Martingale averages and chain monotonicity across the corpus."""
    worst_mart = 0.0
    cfg = dyadic.SplitConfig(q=2.0, q1=2.4)
    checked = 0
    monotone_all = True
    for w in weights.reference_corpus()[:8]:
        # pinching to [1/2, 2] caps avg/geometric-mean below 1.26 < q on every
        # subinterval, so the partition never leaves the domain
        wt = weights.truncate(w, 2.0)
        try:
            tree = dyadic.build_partition(wt, cfg, dyadic.SplitMode.LOG, max_depth=5)
        except dyadic.SplitError:
            continue
        mass = tree.points[:, 0] * (tree.ends[:, 1] - tree.ends[:, 0])  # |I| avg_I w of each node
        whole, parts = mass[:mass.size // 2], mass[1::2] + mass[2::2]  # a parent's, and its children's (2i + 1, 2i + 2)
        worst_mart = max(worst_mart, float((abs(whole - parts) / np.maximum(1.0, abs(whole))).max()))
        surface = bellman.BellmanSurface(bellman.SurfaceKind.AINF_UPPER, cfg.q1)
        rep = dyadic.chain_verify(surface, wt, tree)
        monotone_all = monotone_all and rep.monotone
        checked += 1
    ok = worst_mart <= 1e-12 and monotone_all and checked >= 4
    return ok, (
        f"martingale defect {worst_mart:.1e}; chains monotone: {monotone_all} "
        f"({checked} weights)"
    )


CHECKS = (
    ("criterion_01_root_certification", criterion_01_root_certification),
    ("criterion_02_eps_gamma_identity", criterion_02_eps_gamma_identity),
    ("criterion_03_gehring_closed_forms", criterion_03_gehring_closed_forms),
    ("criterion_04_ainf_bound_and_e_ratio", criterion_04_ainf_bound_and_e_ratio),
    ("criterion_05_funny_bound_attainment", criterion_05_funny_bound_attainment),
    ("criterion_06_gehring_attainment_divergence", criterion_06_gehring_attainment_divergence),
    ("criterion_07_hessian_signatures", criterion_07_hessian_signatures),
    ("criterion_08_limit_identity", criterion_08_limit_identity),
    ("criterion_09_truncation_monotonicity", criterion_09_truncation_monotonicity),
    ("criterion_10_dyadic_chain", criterion_10_dyadic_chain),
    ("criterion_11_dimensional_pipeline", criterion_11_dimensional_pipeline),
    ("criterion_12_moment_quadrature", criterion_12_moment_quadrature),
    ("invariants_weights", invariants_weights),
    ("invariants_solvers", invariants_solvers),
    ("invariants_constants", invariants_constants),
    ("invariants_bellman", invariants_bellman),
    ("invariants_extremals", invariants_extremals),
    ("invariants_dyadic", invariants_dyadic),
)


def run(only: tuple[str, ...] | None = None) -> list[tuple[str, bool, str]]:
    """Run the named checks (all by default); returns (name, passed, detail)."""
    results = []
    for name, fn in CHECKS:
        if only is not None and not any(frag in name for frag in only):
            continue
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
