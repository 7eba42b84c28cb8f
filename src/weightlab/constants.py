"""Grid-scan estimates of the six weight constants.

Every constant is a supremum over subintervals; here the supremum is scanned
over all pairs of grid points (uniform resolution plus every piece
breakpoint).  Closed-form cumulative antiderivatives make one scan
O(resolution^2) with numpy pair matrices.  The maximal-function constant is
the documented expensive one: O(resolution^3) via an incremental recurrence.

Estimates are lower bounds of the true suprema, monotone under grid
refinement (for nested grids), and exact on the step/power families whose
suprema sit on breakpoint-anchored intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DomainError, ParameterError
from .weights import (
    Interval,
    MomentKind,
    PowerPiece,
    Weight,
    breakpoints,
    cumulative_moment,
    evaluate,
    moment,
)

__all__ = [
    "OrliczKind",
    "ConstantsReport",
    "rh1_constant",
    "ainf_constant",
    "rhp_constant",
    "ap_constant",
    "maximal_function",
    "rh1_prime_constant",
    "luxemburg_norm",
    "rh1_doubleprime_constant",
    "rh1_limit_check",
    "compute_report",
]

DEFAULT_RESOLUTION = 201
# the two nested-scan constants default coarser; they cost res^3 / res^2*quad
DEFAULT_MAXIMAL_RESOLUTION = 64


class OrliczKind(Enum):
    L = "L"
    LLOGL = "LlogL"
    EXP_MINUS_ONE = "expL-1"


def _grid_points(w: Weight, resolution: int, interval: Interval | None = None) -> np.ndarray:
    """Sorted unique grid: `resolution` uniform points plus breakpoints.

    Points closer than 1e-12 are merged to avoid degenerate cells.
    """
    if resolution < 2:
        raise ParameterError(f"resolution must be >= 2, got {resolution}")
    a, b = (interval.a, interval.b) if interval is not None else (0.0, 1.0)
    pts = np.linspace(a, b, resolution)
    bps = [t for t in breakpoints(w) if a < t < b]
    pts = np.unique(np.concatenate([pts, np.asarray(bps, dtype=float)]))
    keep = np.concatenate([[True], np.diff(pts) > 1e-12])
    return pts[keep]


def _centred(w: Weight) -> Weight:
    """w times the power of two centring its coefficients' binary exponents on 0.

    The constants are scale-invariant; this keeps c log c, c**p and
    exp(-avg log w) at the ends of the double range finite and normal.
    """
    exps = [math.frexp(piece.coeff)[1] - 1 for piece in w.pieces]  # c = m 2^exp, 1 <= m < 2
    # capped so the largest stays finite when subnormal coefficients widen the span
    shift = min(-((min(exps) + max(exps)) // 2), 1023 - max(exps))
    return Weight(tuple(PowerPiece(pc.support, math.ldexp(pc.coeff, shift), pc.exponent) for pc in w.pieces))


# name -> the cumulative moment paired with AVG_W (its kind and exponent as a
# function of p) and the combining expression of the two pair averages
_SCANS = {
    "rh1": (MomentKind.AVG_W_LOG_W, None, lambda aw, awlw, p: (awlw - aw * np.log(aw)) / aw),
    "ainf": (MomentKind.AVG_LOG_W, None, lambda aw, alw, p: aw * np.exp(-alw)),
    "rhp": (MomentKind.AVG_W_POW, lambda p: p, lambda aw, awp, p: awp ** (1.0 / p) / aw),
    "ap": (MomentKind.AVG_W_POW, lambda p: -1.0 / (p - 1.0), lambda aw, adual, p: aw * adual ** (p - 1.0)),
}
# entries per block array: a scan holds about ten arrays of this size at once
_SCAN_BLOCK_ENTRIES = 1 << 15


def _scan(name: str, w: Weight, resolution: int, p: float | None = None) -> tuple[float, Interval]:
    """Max of a _SCANS ratio over all grid pairs i < j, in blocks of rows.

    Each block covers rows i0..i1-1 and columns i0+1..n-1 (j <= i is masked
    out), so memory stays O(resolution).  Ties keep the first pair in
    lexicographic order.  Raises DomainError when no pair gives a finite value.
    """
    if p is not None and not (p > 1.0 and math.isfinite(p)):
        raise ParameterError(f"{name}_constant needs p > 1, got {p}")
    kind, exponent, combine = _SCANS[name]
    pts = _grid_points(w, resolution)
    n = len(pts)
    cum_w = cumulative_moment(w, pts, MomentKind.AVG_W)
    cum = cumulative_moment(w, pts, kind, None if exponent is None else exponent(p))
    best, best_ij, finite = -math.inf, (0, 0), False
    i0 = 0
    while i0 < n - 1:
        i1 = min(n - 1, i0 + max(1, _SCAN_BLOCK_ENTRIES // (n - 1 - i0)))
        rows, cols = slice(i0, i1), slice(i0 + 1, n)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            dl = pts[cols] - pts[rows, None]
            ratio = combine((cum_w[cols] - cum_w[rows, None]) / dl, (cum[cols] - cum[rows, None]) / dl, p)
        ratio[np.isnan(ratio) | (np.arange(i0 + 1, n) <= np.arange(i0, i1)[:, None])] = -np.inf
        i, j = divmod(int(np.argmax(ratio)), n - 1 - i0)
        if ratio[i, j] > best:
            best, best_ij = float(ratio[i, j]), (i0 + i, i0 + 1 + j)
        finite = finite or bool(np.isfinite(ratio).any())
        i0 = i1
    if not finite:
        label = name if p is None else f"{name} (p = {p})"
        raise DomainError(f"{label}: no finite value on any scanned interval")
    return best, Interval(float(pts[best_ij[0]]), float(pts[best_ij[1]]))


def rh1_constant(w: Weight, resolution: int = DEFAULT_RESOLUTION) -> tuple[float, Interval]:
    """Normalized entropy sup: max of [avg(w log w) - avg(w) log avg(w)] / avg(w)."""
    return _scan("rh1", _centred(w), resolution)


def ainf_constant(w: Weight, resolution: int = DEFAULT_RESOLUTION) -> tuple[float, Interval]:
    """Jensen-gap sup: max of avg(w) * exp(-avg(log w))."""
    return _scan("ainf", _centred(w), resolution)


def rhp_constant(w: Weight, p: float, resolution: int = DEFAULT_RESOLUTION) -> tuple[float, Interval]:
    """Reverse Holder sup: max of avg(w^p)^(1/p) / avg(w); +inf when a scanned
    interval touching 0 has a divergent p-th moment."""
    return _scan("rhp", _centred(w), resolution, p)


def ap_constant(w: Weight, p: float, resolution: int = DEFAULT_RESOLUTION) -> tuple[float, Interval]:
    """Muckenhoupt sup: max of avg(w) * avg(w^(-1/(p-1)))^(p-1)."""
    return _scan("ap", _centred(w), resolution, p)


def maximal_function(
    w: Weight, interval: Interval, t: float, resolution: int = DEFAULT_RESOLUTION
) -> float:
    """Uncentered maximal average of w restricted to `interval`, at t.

    Max over grid subintervals containing t, plus the pointwise value w(t)
    (the limit of shrinking intervals at a Lebesgue point).
    """
    if not (interval.a <= t <= interval.b):
        raise DomainError(f"t = {t} outside [{interval.a}, {interval.b}]")
    pts = _grid_points(w, resolution, interval)
    if not np.any(np.abs(pts - t) <= 1e-15):
        pts = np.sort(np.append(pts, t))
    cum = cumulative_moment(w, pts, MomentKind.AVG_W)
    left = pts <= t
    right = pts >= t
    with np.errstate(invalid="ignore", divide="ignore"):
        avg = (cum[None, right] - cum[left, None]) / (pts[None, right] - pts[left, None])
    best = float(np.nanmax(avg)) if avg.size else -math.inf
    if t > 0.0:
        best = max(best, evaluate(w, t))
    return best


def rh1_prime_constant(
    w: Weight, resolution: int = DEFAULT_MAXIMAL_RESOLUTION
) -> tuple[float, Interval]:
    """Maximal-function variant: sup over I of avg_I(M(w 1_I)) / avg_I(w).

    For each interval [pts[p], pts[q]] the maximal function is evaluated on
    the grid cells via an incremental recurrence in q: extending the interval
    by one cell adds one column of candidate averages, whose running prefix
    maxima update every cell in O(cells).  Total cost O(resolution^3).
    """
    w = _centred(w)
    pts = _grid_points(w, resolution)
    n = len(pts)
    cum = cumulative_moment(w, pts, MomentKind.AVG_W)
    cell_len = np.diff(pts)
    mids = 0.5 * (pts[:-1] + pts[1:])
    wmid = np.array([evaluate(w, float(t)) for t in mids])
    best = -math.inf
    best_iv = (0, 1)
    for p in range(n - 1):
        m_vec = np.empty(0)
        for q in range(p + 1, n):
            col = (cum[q] - cum[p:q]) / (pts[q] - pts[p:q])
            prefix = np.maximum.accumulate(col)
            m_vec = np.maximum(np.append(m_vec, wmid[q - 1]), prefix)
            length = pts[q] - pts[p]
            avg_m = float(np.dot(m_vec, cell_len[p:q])) / length
            avg_w = float(cum[q] - cum[p]) / length
            ratio = avg_m / avg_w
            if ratio > best:
                best = ratio
                best_iv = (p, q)
    return best, Interval(float(pts[best_iv[0]]), float(pts[best_iv[1]]))


# ---------------------------------------------------------------------------
# Orlicz (Luxemburg) norms

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_GRADING_POWER = 4.0  # substitution t = e*u^m for segments touching 0


def _segments(w: Weight, interval: Interval) -> list[tuple[float, float, float, float]]:
    """(start, end, coeff, exponent) for each piece overlap with the interval."""
    segs = []
    for piece in w.pieces:
        s = max(interval.a, piece.support.a)
        e = min(interval.b, piece.support.b)
        if e > s:
            segs.append((s, e, piece.coeff, piece.exponent))
    return segs


def _quad_nodes(w: Weight, interval: Interval, panels: int = 6) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre quadrature weights and w values at the nodes on the interval.

    A segment starting at t = 0 is graded with t = e*u^m to absorb the
    integrable singularity of a negative-exponent piece.
    """
    qs, vs = [], []
    for s, e, c, alpha in _segments(w, interval):
        if s == 0.0 and alpha != 0.0:
            m = _GRADING_POWER
            for k in range(panels):
                u0, u1 = k / panels, (k + 1) / panels
                u = 0.5 * (u1 - u0) * _GL_X + 0.5 * (u0 + u1)
                du = 0.5 * (u1 - u0) * _GL_W
                t = e * u**m
                qs.append(du * e * m * u ** (m - 1.0))
                vs.append(c * t**alpha)
        else:
            for k in range(panels):
                t0 = s + (e - s) * k / panels
                t1 = s + (e - s) * (k + 1) / panels
                t = 0.5 * (t1 - t0) * _GL_X + 0.5 * (t0 + t1)
                dt = 0.5 * (t1 - t0) * _GL_W
                qs.append(dt)
                vs.append(c * t**alpha)
    return np.concatenate(qs), np.concatenate(vs)


def _phi_values(kind: OrliczKind, s: np.ndarray) -> np.ndarray:
    if kind is OrliczKind.L:
        return s
    if kind is OrliczKind.LLOGL:
        return s * np.log(math.e + s)
    if kind is OrliczKind.EXP_MINUS_ONE:
        with np.errstate(over="ignore"):
            return np.expm1(s)
    raise ParameterError(f"unknown Orlicz kind {kind}")


def _luxemburg_bisect(gvals, lam: np.ndarray) -> np.ndarray:
    """Least lam with gvals(lam) <= 1, entrywise; gvals falls in lam.

    Starts from lam = avg(w), a lower bracket because Phi(s) >= s: halved
    where quadrature error puts it above the root, then e * lam doubled to an
    upper bracket, then bisected until no entry's midpoint differs from its
    endpoints.  Returns the upper endpoints.
    """
    lo = lam.copy()
    for _ in range(60):
        low = gvals(lo) < 1.0
        if not low.any():
            break
        lo[low] *= 0.5
    hi = lo * math.e
    for _ in range(200):
        high = gvals(hi) > 1.0
        if not high.any():
            break
        hi[high] *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if not np.any((lo < mid) & (mid < hi)):
            return hi
        over = gvals(mid) > 1.0
        lo = np.where(over, mid, lo)
        hi = np.where(over, hi, mid)


def luxemburg_norm(w: Weight, interval: Interval, kind: OrliczKind) -> float:
    """Luxemburg norm inf{lam > 0 : avg_I Phi(w/lam) <= 1}.

    The L norm is exactly avg(w).  The exponential norm of a weight
    unbounded on the interval is +inf.  Otherwise: _luxemburg_bisect on a
    16-point Gauss-Legendre quadrature of avg_I Phi(w/lam).
    """
    if kind is OrliczKind.L:
        return moment(w, interval, MomentKind.AVG_W)
    if kind is OrliczKind.EXP_MINUS_ONE and interval.a == 0.0 and w.pieces[0].exponent < 0.0:
        return math.inf  # unbounded on the interval
    qw, wv = _quad_nodes(w, interval)
    length = interval.length

    def gvals(lam: np.ndarray) -> np.ndarray:
        return np.array([float(np.dot(qw, _phi_values(kind, wv / lam[0]))) / length])

    return float(_luxemburg_bisect(gvals, np.array([moment(w, interval, MomentKind.AVG_W)]))[0])


def rh1_doubleprime_constant(
    w: Weight, resolution: int = DEFAULT_MAXIMAL_RESOLUTION
) -> tuple[float, Interval]:
    """Orlicz-ratio sup: max over I of ||w||_{LlogL, I} / ||w||_{L, I}.

    All grid intervals are bisected simultaneously on flat node arrays.
    """
    w = _centred(w)
    pts = _grid_points(w, resolution)
    cum = cumulative_moment(w, pts, MomentKind.AVG_W)
    ii, jj = np.triu_indices(len(pts), 1)  # pairs i < j in lexicographic order
    lengths = pts[jj] - pts[ii]
    avg_w = (cum[jj] - cum[ii]) / lengths
    quad = [_quad_nodes(w, Interval(float(pts[i]), float(pts[j])), panels=4) for i, j in zip(ii, jj)]
    sizes = np.array([len(qw) for qw, _ in quad])
    starts = np.cumsum(sizes) - sizes
    qw_flat = np.concatenate([qw for qw, _ in quad])
    wv_flat = np.concatenate([wv for _, wv in quad])

    def gvals(lam: np.ndarray) -> np.ndarray:
        lam_rep = np.repeat(lam, sizes)
        s = wv_flat / lam_rep
        vals = qw_flat * s * np.log(math.e + s)
        return np.add.reduceat(vals, starts) / lengths

    ratio = _luxemburg_bisect(gvals, avg_w) / avg_w
    k = int(np.argmax(ratio))
    return float(ratio[k]), Interval(float(pts[ii[k]]), float(pts[jj[k]]))


def rh1_limit_check(w: Weight, interval: Interval, p: float) -> tuple[float, float]:
    """(lhs, rhs) of the p -> 1 limit identity on one interval.

    lhs = (p/(p-1)) log( avg(w^p)^{1/p} / avg(w) ), rhs = the normalized
    entropy of w on the interval; lhs decreases to rhs as p -> 1+.
    """
    if not (1.0 < p < 2.0):
        raise ParameterError(f"rh1_limit_check needs p in (1, 2), got {p}")
    avg_w = moment(w, interval, MomentKind.AVG_W)
    avg_wp = moment(w, interval, MomentKind.AVG_W_POW, p)
    if avg_wp == math.inf:
        raise DomainError(f"avg of w^{p} diverges on [{interval.a}, {interval.b}]")
    lhs = (p / (p - 1.0)) * (math.log(avg_wp) / p - math.log(avg_w))
    avg_wlw = moment(w, interval, MomentKind.AVG_W_LOG_W)
    rhs = (avg_wlw - avg_w * math.log(avg_w)) / avg_w
    return lhs, rhs


# ---------------------------------------------------------------------------
# report plumbing for the CLI

KNOWN_CONSTANTS = ("rh1", "ainf", "rhp", "ap", "rh1_prime", "rh1_doubleprime")


@dataclass
class ConstantsReport:
    resolution: int
    rh1: tuple[float, Interval] | None = None
    ainf: tuple[float, Interval] | None = None
    rh_p: dict[float, tuple[float, Interval]] = field(default_factory=dict)
    a_p: dict[float, tuple[float, Interval]] = field(default_factory=dict)
    rh1_prime: tuple[float, Interval] | None = None
    rh1_doubleprime: tuple[float, Interval] | None = None


def compute_report(
    w: Weight,
    resolution: int = DEFAULT_RESOLUTION,
    which: tuple[str, ...] = ("rh1", "ainf"),
    p_values: tuple[float, ...] = (2.0,),
    maximal_resolution: int = DEFAULT_MAXIMAL_RESOLUTION,
) -> ConstantsReport:
    for name in which:
        if name not in KNOWN_CONSTANTS:
            raise ParameterError(f"unknown constant {name!r}; choose from {KNOWN_CONSTANTS}")
    report = ConstantsReport(resolution=resolution)
    if "rh1" in which:
        report.rh1 = rh1_constant(w, resolution)
    if "ainf" in which:
        report.ainf = ainf_constant(w, resolution)
    if "rhp" in which:
        report.rh_p = {p: rhp_constant(w, p, resolution) for p in p_values}
    if "ap" in which:
        report.a_p = {p: ap_constant(w, p, resolution) for p in p_values}
    if "rh1_prime" in which:
        report.rh1_prime = rh1_prime_constant(w, maximal_resolution)
    if "rh1_doubleprime" in which:
        report.rh1_doubleprime = rh1_doubleprime_constant(w, maximal_resolution)
    return report
