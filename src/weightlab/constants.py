"""Grid-scan estimates of the six weight constants.

Every constant is a supremum over subintervals; here the supremum is scanned
over all pairs of grid points (uniform resolution plus every piece
breakpoint).  Closed-form cumulative moments make a pair scan O(resolution^2)
in time and, walked in blocks of grid rows, O(resolution) in memory.  rh1,
A_inf, RH_p and A_p share one walk per report: the grid, the avg(w)
cumulative moment and each block's pair lengths and averages are computed
once, and each constant adds its second cumulative moment and its combining
expression; its outer differences cum[j] - cum[i] skip numpy's buffered copy
(4x the cost, same bits) on a 16-entry ufunc buffer.  A block ranks its
pairs and combines only the band near its top: two log ranks or more read
products with one 1/dl, two roundings off the quotients (3 ulp, under
3.4e-13 on a rank), and rh1 ranks by its ratio from two sums; a constant at
+inf leaves the walk.  The walk masks only the pairs j = i: a block's j < i
entries are their mirrored pairs' values (the differences x[j] - x[i] flip
sign exactly), which an earlier row holds first.  The Orlicz constant solves
each block's Luxemburg norms together, on one Gauss-Legendre layout in mass
coordinates for every power piece; the maximal-function constant is the
documented expensive one, O(resolution^3) in block-wide passes over the left
ends, O(resolution^2) memory.

Estimates are lower bounds of the true suprema, monotone under grid
refinement (for nested grids), and exact on the step/power families whose
suprema sit on breakpoint-anchored intervals.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DomainError, ParameterError
from .solvers import _rise
from .weights import (
    Interval,
    MomentKind,
    PowerPiece,
    Weight,
    _cumulative_moment,
    _log_span,
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


def _centred(w: Weight, interval: Interval | None = None) -> tuple[Weight, int]:
    """(w 2^shift, shift), the power of two centring the coefficients' binary exponents on 0.

    The constants are scale-invariant and the norms homogeneous; this keeps
    c log c, c**p and exp(-avg log w) at the ends of the double range finite
    and normal.  With an interval, only the pieces meeting it are centred and
    scaled; the others, which carry no mass there, are kept as they are.
    """
    meets = [interval is None or (pc.support.a < interval.b and interval.a < pc.support.b) for pc in w.pieces]
    exps = [math.frexp(pc.coeff)[1] - 1 for pc, m in zip(w.pieces, meets) if m]  # c = m 2^exp, 1 <= m < 2
    # capped so the largest stays finite when subnormal coefficients widen the span
    shift = min(-((min(exps) + max(exps)) // 2), 1023 - max(exps))
    pieces = (PowerPiece(pc.support, math.ldexp(pc.coeff, shift) if m else pc.coeff, pc.exponent)
              for pc, m in zip(w.pieces, meets))
    return Weight(tuple(pieces)), shift


# name -> the cumulative moment paired with AVG_W (its kind and exponent as a
# function of p) and the combining expression of the two pair averages aw and
# r, written into r by the plain expression's operations in order (law is
# log(aw), which only rh1 reads, and overwrites: its block runs it last)
_SCANS = {
    "rh1": (MomentKind.AVG_W_LOG_W, None,  # (r - aw log aw) / aw
            lambda aw, r, law, p: np.divide(np.subtract(r, np.multiply(aw, law, out=law), out=r), aw, out=r)),
    "ainf": (MomentKind.AVG_LOG_W, None,
             lambda aw, r, law, p: np.multiply(aw, np.exp(np.negative(r, out=r), out=r), out=r)),
    # r **= e, as r ** e, takes sqrt or square where e is 1/2 or 2
    "rhp": (MomentKind.AVG_W_POW, lambda p: p, lambda aw, r, law, p: np.divide(operator.ipow(r, 1.0 / p), aw, out=r)),
    "ap": (MomentKind.AVG_W_POW, lambda p: -1.0 / (p - 1.0),
           lambda aw, r, law, p: np.multiply(aw, operator.ipow(r, p - 1.0), out=r)),
}
# name -> the power its combine raises r to (None: it takes exp) and its rank, written into r from law (log avg(w),
# to rounding) with no generic pow or exp: the combine's log from r = avg of its moment, taken unless that power is
# one of r **= e's fast paths or past 1e3 (it scales r's rounding); rh1's is its ratio, from the sums in r and aw
_RANKS = {
    "rh1": (lambda p: None, lambda law, r, aw, p: np.subtract(np.divide(r, aw, out=r), law, out=r)),
    "ainf": (lambda p: None, lambda law, r, aw, p: np.subtract(law, r, out=r)),
    "rhp": (lambda p: 1.0 / p,
            lambda law, r, aw, p: np.subtract(np.multiply(np.log(r, out=r), 1.0 / p, out=r), law, out=r)),
    "ap": (lambda p: p - 1.0, lambda law, r, aw, p: np.add(law, np.multiply(p - 1.0, np.log(r, out=r), out=r), out=r)),
}
# ranks are walked where the combine's intermediates and the top ratio lie in e^+-_RANK_LIMIT (normal doubles)
_RANK_LIMIT, _BAND = 700.0, 1e-11
# entries per block array: a scan holds about ten arrays of this size at once
_SCAN_BLOCK_ENTRIES = 1 << 14


@np.errstate(all="ignore")
def _pair_walk(labels: tuple[str, ...], pts: np.ndarray, per_pair: int, block,
               linear: frozenset[int] = frozenset()) -> list[tuple[float, Interval]]:
    """First max of each of a stack of ratios over all grid pairs i < j, walked in blocks of rows.

    block(i0, i1, dead), on arrays of max(_SCAN_BLOCK_ENTRIES, n - 1)
    entries, gives rows i0..i1-1 by columns i0+1..n-1 as (label index,
    array, exact) triples, one per label in any order, in an iterable that
    may make each as it is taken and may leave out the labels in dead, the
    set of those whose best is +inf with a finite value (no later pair
    replaces it).  j <= i only in an array's leading rows x rows square: the
    walk writes -inf at j = i, and at j < i an array (and exact's) must hold
    -inf or the value of the mirrored pair (j, i), which an earlier row of
    the block holds, so that argmax, the band's order and the strict tests
    keep the pair itself, ties and nan too.  The array holds the ratios
    where exact is None, else ranks: their logs, or for the labels in linear
    the ratios, to within eta (1 + |M|), eta = 3e-12 (_scans: a log of a
    double is under 746, so 4 ulp of it is 4.6e-13, and a log rank sums two
    logs and two roundings; the block's 1/dl puts two more, 3 ulp, on its
    averages: 3.4e-16 on a log, and at most 3.4e-13 on ainf's |r| <= 700 or
    on a log times p - 1 <= 1e3; rh1's rank and its combine each round a few
    terms under |M| + 1400, as |log avg(w)| <= 700).  A pair with the
    block's largest ratio then ranks within 2 eta (1 + |M|) of the top rank
    M, and every ratio is under exp(M + delta), or M + delta for linear,
    delta = _BAND (1 + |M|): the block is skipped when that is under the
    best ratio so far, else exact(band) gives the ratios at the flat indices
    band of the ranks >= M - delta, or over the block for None: where M is
    nan (argmax takes a nan) or past +-_RANK_LIMIT, or the band holds over
    1/8 of the block.  A block covers about _SCAN_BLOCK_ENTRIES / per_pair
    pairs, so memory stays bounded in resolution.  For each label on its
    own, nan ratios are masked (only when the argmax lands on one), ties
    keep the first pair in lexicographic order (the skip test is strict, so
    a block holding a first max, or a tie of it, is walked), and DomainError
    is raised, for the first label in order, when no pair gives a finite
    value.
    """
    n = len(pts)
    best, finite, dead = [(-math.inf, 0, 0)] * len(labels), [False] * len(labels), set()
    i0 = 0
    while i0 < n - 1:
        i1 = min(n - 1, i0 + max(1, _SCAN_BLOCK_ENTRIES // (per_pair * (n - 1 - i0))))
        same = slice(n - 1 - i0, None, n - i0)  # the flat indices r (n - i0) - 1, r >= 1: the pairs (i, i)
        for s, ratio, exact in block(i0, i1, dead):
            ratio.flat[same] = -np.inf
            k, band = int(np.argmax(ratio)), None
            if exact is not None:  # ranks
                m = float(ratio.flat[k])
                if abs(m) <= _RANK_LIMIT:  # so the top pair's ratio is finite
                    finite[s], delta = True, _BAND * (1.0 + abs(m))
                    if (m + delta if s in linear else math.exp(m + delta)) < best[s][0]:
                        continue
                    band = np.flatnonzero(ratio >= m - delta)
                    band = band if 8 * band.size <= ratio.size else None
                ratio = exact(band)
                if band is None:
                    ratio.flat[same] = -np.inf
                k = int(np.argmax(ratio))
            if np.isnan(ratio.flat[k]):  # argmax takes the first nan as the max
                ratio[np.isnan(ratio)] = -np.inf
                k = int(np.argmax(ratio))
            top = float(ratio.flat[k])
            if top > best[s][0]:
                i, j = divmod(k if band is None else int(band[k]), n - 1 - i0)
                best[s] = (top, i0 + i, i0 + 1 + j)
            finite[s] = finite[s] or math.isfinite(top) or bool(np.isfinite(ratio).any())
            if finite[s] and best[s][0] == math.inf:
                dead.add(s)
        i0 = i1
    for label, ok in zip(labels, finite):
        if not ok:
            raise DomainError(f"{label}: no finite value on any scanned interval")
    return [(value, Interval(float(pts[i]), float(pts[j]))) for value, i, j in best]


@np.errstate(all="ignore")
def _scans(specs: list[tuple[str, float | None]], w: Weight, resolution: int) -> list[tuple[float, Interval]]:
    """Max of each (name, p) spec's _SCANS ratio over all grid pairs i < j, in one walk.

    The grid, the avg(w) cumulative moment and each block's pair lengths,
    avg(w) and its log are shared; each spec adds its second cumulative
    moment and its combine, or its _RANKS rank and the combine where
    _pair_walk asks, made and walked one spec at a time on four block
    arrays, so memory stays O(resolution).  A log rank is taken where it
    spares exp or a pow off the fast paths, a second spec reads the log, and
    the rank at law = 0 (the log of exp(-r) or r ** e, monotone in r) and,
    for a power, log r lie within +-_RANK_LIMIT at the grid cells' least and
    greatest r, between which every pair's r lies: a length-weighted mean of
    the cells', to three roundings each.  With two or more, and the cells'
    avg(w) within e^+-_RANK_LIMIT too (so every average a rank reads is a
    normal double), a block divides once, for 1/dl: the log ranks multiply
    by it, rh1 ranks from its two sums, with no dl, and avg(w) and r are
    formed only for an unranked spec or where _pair_walk asks.  A spec at
    +inf with a finite value is no longer made.  A p <= 1 is refused before
    any work; otherwise the first spec in order that fails raises, as if
    each were scanned on its own.
    """
    for name, p in specs:
        if p is not None and not (p > 1.0 and math.isfinite(p)):
            raise ParameterError(f"{name}_constant needs p > 1, got {p}")
    pts = _grid_points(w, resolution)  # sorted, in [0, 1]: its moments skip cumulative_moment's check
    n, cell_len = len(pts), np.diff(pts)
    cum_w = _cumulative_moment(w, pts, MomentKind.AVG_W)

    def fits(cum, rank=None, p=None, log=True):  # log r (if log) and the rank at law = 0 at the cells' extreme r
        cells = np.diff(cum) / cell_len
        r = np.array([cells.min(), cells.max()])
        ok = not log or (abs(np.log(r)) <= _RANK_LIMIT).all()
        return ok and (rank is None or (abs(rank(np.zeros(2), r, None, p)) <= _RANK_LIMIT).all())

    terms, failed = [], None
    try:  # a second moment that overflows fails its spec, after every spec before it
        for name, p in specs:
            (kind, exponent, combine), (power, rank) = _SCANS[name], _RANKS[name]
            cum = _cumulative_moment(w, pts, kind, None if exponent is None else exponent(p))
            e = power(p)  # a power's rank reads log r too
            fast = e is not None and (e in (0.5, 1.0, 2.0) or e > 1e3)
            if name != "rh1" and (fast or not fits(cum, rank, p, e is not None)):
                rank = None
            terms.append((name, cum, combine, rank, p))
    except DomainError as exc:
        failed = exc

    logs = sum(rank is not None for name, _, _, rank, _ in terms if name != "rh1")
    rh1 = any(name == "rh1" for name, *_ in terms)
    inv = logs >= 2 and fits(cum_w)
    keep = inv or logs + rh1 >= 2  # a lone log rank saves less than law's log costs
    terms = [(name, cum, combine, rank if (inv if name == "rh1" else keep) else None, p)
             for name, cum, combine, rank, p in terms]
    # ranked specs first, rh1 last of them (it reads the sum of w, which an unranked spec turns into avg(w)), and an
    # unranked rh1 last of all (its combine overwrites law)
    order = sorted(range(len(terms)), key=lambda k: (terms[k][3] is None, terms[k][0] == "rh1"))

    bufs = [np.empty(max(_SCAN_BLOCK_ENTRIES, n - 1)) for _ in range(4)]  # dl (or 1/dl), aw, ratio and log(aw)

    def block(i0, i1, dead):
        rows, cols, m = slice(i0, i1), slice(i0 + 1, n), n - 1 - i0
        dl, aw, r, law = (buf[: (i1 - i0) * m].reshape(i1 - i0, m) for buf in bufs)
        np.subtract(pts[cols], pts[rows, None], out=dl)
        np.subtract(cum_w[cols], cum_w[rows, None], out=aw)
        if inv:  # aw keeps the sum of w until an unranked spec takes avg(w)
            np.log(np.multiply(aw, np.divide(1.0, dl, out=dl), out=law), out=law)
        else:
            np.divide(aw, dl, out=aw)
            if keep or rh1:
                np.log(aw, out=law)
        sums = inv
        for k in order:
            name, cum, combine, rank, p = terms[k]
            if k in dead:
                continue
            np.subtract(cum[cols], cum[rows, None], out=r)
            if rank is None:
                if sums:
                    np.divide(aw, np.subtract(pts[cols], pts[rows, None], out=dl), out=aw)
                    sums = False
                combine(aw, np.divide(r, dl, out=r), law, p)
                yield k, r, None
                continue
            if name != "rh1":
                (np.multiply if inv else np.divide)(r, dl, out=r)
            def exact(band, cum=cum, combine=combine, p=p):  # the combine on band's pairs (or all), re-formed
                i, j = np.ogrid[rows, cols] if band is None else (i0 + band // m, i0 + 1 + band % m)
                d = pts[j] - pts[i]
                combine(a := (cum_w[j] - cum_w[i]) / d, ratio := (cum[j] - cum[i]) / d, np.log(a), p)
                return ratio
            yield k, rank(law, r, aw, p), exact

    labels = tuple(name if p is None else f"{name} (p = {p})" for name, p in specs[: len(terms)])
    linear = frozenset(k for k, (name, _, _, rank, _) in enumerate(terms) if name == "rh1" and rank is not None)
    size = np.setbufsize(16)  # for the outer differences; restored here, as numpy 1.x's errstate keeps it
    try:
        found = _pair_walk(labels, pts, 1, block, linear) if terms else []
    finally:
        np.setbufsize(size)
    if failed is not None:
        raise failed
    return found


def _scan(name: str, w: Weight, resolution: int, p: float | None = None) -> tuple[float, Interval]:
    """Max of a _SCANS ratio over all grid pairs i < j: _scans with one spec."""
    return _scans([(name, p)], w, resolution)[0]


def rh1_constant(w: Weight, resolution: int = DEFAULT_RESOLUTION) -> tuple[float, Interval]:
    """Normalized entropy sup: max of [avg(w log w) - avg(w) log avg(w)] / avg(w)."""
    return _scan("rh1", _centred(w)[0], resolution)


def ainf_constant(w: Weight, resolution: int = DEFAULT_RESOLUTION) -> tuple[float, Interval]:
    """Jensen-gap sup: max of avg(w) * exp(-avg(log w))."""
    return _scan("ainf", _centred(w)[0], resolution)


def rhp_constant(w: Weight, p: float, resolution: int = DEFAULT_RESOLUTION) -> tuple[float, Interval]:
    """Reverse Holder sup: max of avg(w^p)^(1/p) / avg(w); +inf when a scanned
    interval touching 0 has a divergent p-th moment."""
    return _scan("rhp", _centred(w)[0], resolution, p)


def ap_constant(w: Weight, p: float, resolution: int = DEFAULT_RESOLUTION) -> tuple[float, Interval]:
    """Muckenhoupt sup: max of avg(w) * avg(w^(-1/(p-1)))^(p-1); +inf when a
    scanned interval touching 0 has a divergent moment."""
    return _scan("ap", _centred(w)[0], resolution, p)


@np.errstate(all="ignore")
def maximal_function(
    w: Weight, interval: Interval, t: float, resolution: int = DEFAULT_RESOLUTION
) -> float:
    """Uncentered maximal average of w restricted to `interval`, at t.

    Max over grid subintervals containing t, plus the pointwise value w(t)
    (the limit of shrinking intervals at a Lebesgue point).  Averages that
    are nan (over a subnormal span) are skipped; -inf where none is left and t = 0.
    """
    if not (interval.a <= t <= interval.b):
        raise DomainError(f"t = {t} outside [{interval.a}, {interval.b}]")
    pts = _grid_points(w, resolution, interval)
    if not np.any(np.abs(pts - t) <= 1e-15):
        pts = np.sort(np.append(pts, t))
    cum = cumulative_moment(w, pts, MomentKind.AVG_W)
    left = pts <= t
    right = pts >= t
    avg = (cum[None, right] - cum[left, None]) / (pts[None, right] - pts[left, None])
    best = float(np.max(avg, initial=-math.inf, where=~np.isnan(avg)))
    if t > 0.0:
        best = max(best, evaluate(w, t))
    return best


def rh1_prime_constant(
    w: Weight, resolution: int = DEFAULT_MAXIMAL_RESOLUTION
) -> tuple[float, Interval]:
    """Maximal-function variant: sup over I of avg_I(M(w 1_I)) / avg_I(w).

    The pair averages A[i, q] are formed once.  A block of left ends p then
    gives M(w 1_[p, q]) on every cell k for every right end q at once, in
    (left end, cell, right end) array passes: the running max of A[i, q]
    down the left ends p..k, masked to q > k, its running max along q, and
    the max with w at the cell's midpoint.  Each average over the cells is
    summed in cell order, after zeros for the cells left of p.  _pair_walk
    walks blocks of about _SCAN_BLOCK_ENTRIES such entries, or one left
    end's O(resolution^2) where that is more: O(resolution^3) in time.
    """
    w, _ = _centred(w)
    pts = _grid_points(w, resolution)
    n = len(pts)
    cum = cumulative_moment(w, pts, MomentKind.AVG_W)
    cell_len = np.diff(pts)
    wmid = np.array([evaluate(w, t) for t in (0.5 * (pts[:-1] + pts[1:])).tolist()])
    with np.errstate(all="ignore"):  # A[i, q] at [i, q - 1], unused where q <= i; 0 on a subnormal piece
        avg = (cum[1:] - cum[:-1, None]) / (pts[1:] - pts[:-1, None])

    def block(i0, i1, dead):
        cell = np.arange(i0, n - 1)[:, None]
        left = cell < np.arange(i0, i1)[:, None, None]  # (left end p, cell k, 1): k < p
        later = cell >= np.arange(i0 + 1, n)  # (cell k, right end q): k at or right of q
        m = np.maximum.accumulate(np.where(left, -np.inf, avg[i0:, i0:]), axis=1)
        np.copyto(m, -np.inf, where=later)
        np.maximum.accumulate(m, axis=2, out=m)
        np.maximum(m, wmid[i0:, None], out=m)
        np.copyto(m, 0.0, where=left | later)
        length = pts[i0 + 1 :] - pts[i0:i1, None]
        avg_m = np.multiply(m, cell_len[i0:, None], out=m).sum(axis=1) / length
        ratio = avg_m / ((cum[i0 + 1 :] - cum[i0:i1, None]) / length)
        ratio[np.tri(i1 - i0, n - 1 - i0, k=-2, dtype=bool)] = -np.inf  # q < p: no mirror of the pair (q, p)
        return [(0, ratio, None)]

    return _pair_walk(("rh1_prime",), pts, n - 1, block)[0]  # a pair spans up to n - 1 cells


# ---------------------------------------------------------------------------
# Orlicz (Luxemburg) norms


# 16-point Gauss-Legendre nodes and weights on [0, 1], shared by every panel
_GL_X, _GL_W = (0.5 * v for v in np.polynomial.legendre.leggauss(16))
_GL_X += 0.5
_GL_X.flags.writeable = _GL_W.flags.writeable = False
# A power piece's nodes stop where its mass density e^(-x / beta) has fallen by e^-_CUT, unless its
# integrand still grows there (expL-1, toward larger w).  A knee past _KNEE_CUT beta carries under
# e^-30 of the mass, and a side graded toward it would put a panel wider than 20 beta at x = 0,
# where 16 points lose digits on e^(-x / beta): the split moves to 0.  Past w = 2^64 lam, log(e + s)
# is log s to 2^-62 relative for any lam the solve probes, and L log L takes it in closed form.
_CUT, _KNEE_CUT, _TAIL = 40.0, 30.0, 64.0 * math.log(2.0)
_EPS = float(np.finfo(float).eps)


def _psi_chi(kind: OrliczKind, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phi(s) / s and Phi'(s), for s >= 0."""
    if kind is OrliczKind.LLOGL:
        psi = np.log(math.e + s)
        return psi, psi + s / (math.e + s)
    if kind is OrliczKind.EXP_MINUS_ONE:
        return np.where(s > 0.0, np.expm1(s) / s, 1.0), np.exp(s)
    raise ParameterError(f"unknown Orlicz kind {kind}")


def _panel_count(kind: OrliczKind, w: Weight) -> int:
    """Panels per power piece: 4 while beta <= 3, one more per factor 3 of beta up to 7 (nodes span at
    most 40 beta, or 745 in x), from w's largest beta; expL-1 takes 8 more for its steep e^s."""
    inv_betas = [abs(pc.exponent + 1.0) / abs(pc.exponent) for pc in w.pieces if pc.exponent != 0.0]
    extra = sum(min(inv_betas, default=1.0) < 3.0**-k for k in (1, 2, 3))
    return 4 + extra + (8 if kind is OrliczKind.EXP_MINUS_ONE else 0)


@np.errstate(all="ignore")
def _orlicz_nodes(kind: OrliczKind, w: Weight, lo: np.ndarray, hi: np.ndarray, lam: np.ndarray) -> tuple:
    """Quadrature of avg_I Phi(w / lam) on the intervals I = [lo, hi], placed at each row's lam.

    Every piece contributes its overlap [s, e] with I, an empty one zero mass:
    a constant piece one node.  On a power piece c t^alpha, x = |alpha|
    |log(t / A)|, from the end A where w t is larger (e for alpha > -1, else
    s), gives w = w(A) e^(+-x) and w dt = w(A) A / |alpha| e^(-x / beta) dx,
    beta = |alpha| / |alpha + 1|, on [0, X], X = |alpha| log1p((e - s) / s).
    Its panels are split at the knee w = e lam; their widths grow by 3 away
    from it (expL-1: from each side's end where the integrand at lam is
    larger), and the two sides share them so that their smallest widths
    match.  Nodes carry w, so they serve every lam.  Returns (mass, wv,
    length, tail_w, tail_wlogw): node masses (quadrature weight times w) and
    w values, one row per interval; the interval lengths; and per row the
    mass and the w log w integral of the L log L tail past w = 2^64 lam.
    """
    starts, ends, coeff, expo = (np.array(v) for v in zip(*(
        (pc.support.a, pc.support.b, pc.coeff, pc.exponent) for pc in w.pieces)))
    s, e = np.maximum(lo[:, None], starts), np.minimum(hi[:, None], ends)
    span, flat, n = np.maximum(e - s, 0.0), expo == 0.0, _panel_count(kind, w)
    mass, wv = span[:, flat] * coeff[flat], np.where(span[:, flat] > 0.0, coeff[flat], 0.0)
    tail_w = tail_wlogw = np.zeros(len(lo))
    if flat.all():
        return mass, wv, hi - lo, tail_w, tail_wlogw
    s, e, c, alpha = s[:, ~flat], e[:, ~flat], coeff[~flat], expo[~flat]
    live, up = e > s, (alpha > -1.0) & (alpha < 0.0)  # up: w grows with x
    sign, inv_beta = np.where(up, 1.0, -1.0), np.abs(alpha + 1.0) / np.abs(alpha)
    beta, A = 1.0 / inv_beta, np.where(alpha > -1.0, e, s)
    w_a = np.where(live, c * A**alpha, 0.0)
    log_wa, log_lam = np.log(w_a), np.log(lam)[:, None]
    big_x = np.where(live, np.abs(alpha) * _log_span(s, e), 0.0)
    end = np.where(up & (kind is OrliczKind.EXP_MINUS_ONE), big_x, np.minimum(big_x, _CUT * beta))
    tail_x = np.where(up, np.maximum(log_lam + _TAIL - log_wa, 0.0), np.inf)
    tail = live & (tail_x < end) & (kind is OrliczKind.LLOGL)
    end = np.where(tail, tail_x, end)
    knee = sign * (1.0 + log_lam - log_wa)
    split = np.where(knee > _KNEE_CUT * beta, 0.0, np.clip(knee, 0.0, end))
    # k_lo - (n - k_lo) = log_3 of the sides' length ratio matches their smallest widths
    k_lo = np.clip(np.rint(0.5 * n + np.log(split / (end - split)) / (2.0 * math.log(3.0))), 0, n)
    k_lo = np.where(end > 0.0, k_lo, 0.0)
    split = np.where(k_lo == 0, 0.0, np.where(k_lo == n, end, split))
    near_lo = near_hi = split
    if kind is OrliczKind.EXP_MINUS_ONE:
        def log_f(x):  # log of the integrand at lam, up to a constant
            z = np.minimum(log_wa + sign * x - log_lam, 700.0)
            return -x * inv_beta + np.log(_psi_chi(kind, np.exp(z))[0])
        near_lo = np.where(log_f(0.0) >= log_f(split), 0.0, split)
        near_hi = np.where(log_f(end) > log_f(split), end, split)
    on_lo = np.arange(n) < k_lo[..., None]  # (rows, pieces, panels)
    i = np.where(on_lo, np.arange(n), np.arange(n) - k_lo[..., None])
    near = np.where(on_lo, near_lo[..., None], near_hi[..., None])
    far = np.where(on_lo, (split - near_lo)[..., None], (split + end - near_hi)[..., None])  # the other end
    grade = (far - near) / (3.0 ** np.where(on_lo, k_lo[..., None], n - k_lo[..., None]) - 1.0)
    width = grade * 2.0 * 3.0**i
    x = (near + grade * (3.0**i - 1.0))[..., None] + width[..., None] * _GL_X
    scale = w_a * A / np.abs(alpha)
    wv_pow = w_a[..., None, None] * np.exp(sign[:, None, None] * x)
    mass_pow = (scale[..., None, None] * np.abs(width)[..., None]) * _GL_W * np.exp(-x * inv_beta[:, None, None])
    mass = np.concatenate([mass, mass_pow.reshape(len(lo), -1)], axis=1)
    wv = np.concatenate([wv, wv_pow.reshape(len(lo), -1)], axis=1)
    if tail.any():  # int over [tail_x, X] of e^(-x / beta) (1 and x - tail_x), u = (X - tail_x) / beta
        u = (big_x - tail_x) * inv_beta  # X is inf from 0
        head = scale * beta * np.exp(-tail_x * inv_beta)
        rise_head = -np.expm1(-u)
        part = head * rise_head
        tail_w = np.sum(np.where(tail, part, 0.0), axis=1)
        tail_wlogw = np.sum(np.where(tail, part * (log_wa + tail_x) + head * beta * _rise(u, rise_head), 0.0), axis=1)
    return mass, wv, hi - lo, tail_w, tail_wlogw


@np.errstate(all="ignore")
def _orlicz_terms(kind: OrliczKind, nodes: tuple, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g = avg_I Phi(s) and d = avg_I s Phi'(s), s = w / lam, on each interval of `nodes`."""
    mass, wv, length, tail_w, tail_wlogw = nodes
    psi, chi = _psi_chi(kind, wv / lam[:, None])
    tail = tail_wlogw - tail_w * np.log(lam)  # log(e + s) = log s, s Phi'(s) = s (log s + 1) there
    g, d = np.einsum("ij,ij->i", mass, psi) + tail, np.einsum("ij,ij->i", mass, chi) + tail + tail_w
    scale = 1.0 / (lam * length)
    return g * scale, d * scale


@np.errstate(all="ignore")
def _luxemburg_solve(terms, lam: np.ndarray) -> np.ndarray:
    """Least lam with g(lam) <= 1, entrywise, from start values lam = avg(w).

    terms(lam) gives g = avg Phi(w / lam) and d = avg s Phi'(s).  The map
    lam -> lam (g - 1) is convex and falling, and its Newton step
    lam d / (1 + d - g) from a point with g > 1 stays left of the root, so it
    raises the lower bracket lo; a step under 4 ulp is widened to 4 ulp, so
    the first probe past the root sets the upper bracket hi.  A step past hi
    comes from rounding and is pulled back under it.  A step that covers
    under half the way to the fallback while g > 2 (expm1 far from its root),
    or that overflows (lam d past the double range, lam near 1e308), is
    replaced by the fallback: 2 lo while hi is unknown, else the midpoint;
    an avg(w) above the root is halved.  Stops when lo and hi are adjacent
    doubles and returns hi; nan where lam is not positive and finite or g is
    nan.
    """
    bad = ~(np.isfinite(lam) & (lam > 0.0))
    lo, hi = np.zeros_like(lam), np.full_like(lam, np.inf)
    probe, step, done = np.where(bad, 1.0, lam), np.full_like(lam, np.nan), bad
    while not done.all():
        g, d = terms(probe)
        bad |= ~done & np.isnan(g)
        live = ~(done | bad)
        over, under = live & (g > 1.0), live & ~(g > 1.0)
        lo, hi = np.where(over, probe, lo), np.where(under, probe, hi)
        mid = lo + 0.5 * (hi - lo)
        fallback = np.where(np.isinf(hi), 2.0 * lo, mid)
        newton = np.maximum(probe * d / (1.0 + d - g), probe * (1.0 + 4.0 * _EPS))
        slow = ((g > 2.0) & ~(newton >= 0.5 * (lo + fallback))) | (newton == np.inf)
        step = np.where(over, np.where(slow, np.nan, newton), step)
        near = np.minimum(step, hi * (1.0 - 4.0 * _EPS))
        probe = np.where(lo == 0.0, 0.5 * hi, np.where(lo < near, near, fallback))
        bad |= live & ~np.isfinite(probe)
        done = bad | ((lo > 0.0) & (hi < np.inf) & ~((lo < mid) & (mid < hi)))
        probe = np.where(done, 1.0, probe)
    return np.where(bad, np.nan, hi)


@np.errstate(all="ignore")
def luxemburg_norm(w: Weight, interval: Interval, kind: OrliczKind) -> float:
    """Luxemburg norm inf{lam > 0 : avg_I Phi(w/lam) <= 1}.

    The L norm is exactly avg(w).  The exponential norm of a weight
    unbounded on the interval is +inf.  Otherwise _luxemburg_solve on the
    _orlicz_nodes quadrature of avg_I Phi(w/lam), placed at avg(w), for w
    centred on the pieces meeting the interval, and the norm scaled back.
    The expL-1 root can sit many decades above avg(w), which moves the
    steep e^s part of its integrand: that norm is solved again on nodes
    placed at the first root.
    """
    if kind is OrliczKind.L:
        return moment(w, interval, MomentKind.AVG_W)
    if kind is OrliczKind.EXP_MINUS_ONE and interval.a == 0.0 and w.pieces[0].exponent < 0.0:
        return math.inf  # unbounded on the interval
    w, shift = _centred(w, interval)
    lo, hi = np.array([interval.a]), np.array([interval.b])
    lam = np.array([moment(w, interval, MomentKind.AVG_W)])
    nodes = _orlicz_nodes(kind, w, lo, hi, lam)
    root = _luxemburg_solve(lambda x: _orlicz_terms(kind, nodes, x), lam)
    if kind is OrliczKind.EXP_MINUS_ONE and np.isfinite(root[0]):
        nodes = _orlicz_nodes(kind, w, lo, hi, root)
        root = _luxemburg_solve(lambda x: _orlicz_terms(kind, nodes, x), root)
    norm = float(root[0])
    if math.isnan(norm):
        avg = float(np.ldexp(lam[0], -shift))
        raise DomainError(f"{kind.value} norm on [{interval.a}, {interval.b}]: avg(w) is {avg}")
    try:
        return math.ldexp(norm, -shift)
    except OverflowError:
        raise DomainError(f"{kind.value} norm on [{interval.a}, {interval.b}] overflows a double") from None


def rh1_doubleprime_constant(
    w: Weight, resolution: int = DEFAULT_MAXIMAL_RESOLUTION
) -> tuple[float, Interval]:
    """Orlicz-ratio sup: max over I of ||w||_{LlogL, I} / ||w||_{L, I}.

    The grid intervals are solved in blocks of rows, each block's norms
    together on one set of _orlicz_nodes arrays, each row's placed at its
    avg(w), the solve's start value.  A block's nodes and its solve's
    per-pair arrays hold about 8 _SCAN_BLOCK_ENTRIES entries, or one row's
    where that is more: under 4 MiB traced at resolution 48, 5-6.2 MiB at
    200.
    """
    w, _ = _centred(w)
    pts = _grid_points(w, resolution)
    n = len(pts)
    cum = cumulative_moment(w, pts, MomentKind.AVG_W)

    def block(i0, i1, dead):
        ratio = np.full((i1 - i0, n - 1 - i0), -np.inf)
        r, c = np.nonzero(~np.tri(i1 - i0, n - 1 - i0, k=-1, dtype=bool))
        ii, jj = i0 + r, i0 + 1 + c
        avg_w = (cum[jj] - cum[ii]) / (pts[jj] - pts[ii])
        nodes = _orlicz_nodes(OrliczKind.LLOGL, w, pts[ii], pts[jj], avg_w)
        lam = _luxemburg_solve(lambda lam: _orlicz_terms(OrliczKind.LLOGL, nodes, lam), avg_w)
        ratio[r, c] = lam / avg_w
        return [(0, ratio, None)]

    # a pair holds its nodes and about two dozen per-pair arrays of the solve, some 8 nodes' worth;
    # blocks of 8 _SCAN_BLOCK_ENTRIES such entries: the time saved levels off there
    panels = _panel_count(OrliczKind.LLOGL, w)
    per_pair = (8 + sum(1 if pc.exponent == 0.0 else 16 * panels for pc in w.pieces)) // 8
    return _pair_walk(("rh1_doubleprime",), pts, per_pair, block)[0]


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
    if not (avg_w > 0.0 and avg_wp > 0.0):  # their logs are taken
        raise DomainError(f"avg of w or w^{p} underflows to 0 on [{interval.a}, {interval.b}]")
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
    specs = [(name, None) for name in ("rh1", "ainf") if name in which]
    specs += [(name, p) for name in ("rhp", "ap") if name in which for p in p_values]
    if specs:
        found = dict(zip(specs, _scans(specs, _centred(w)[0], resolution)))
        report.rh1, report.ainf = found.get(("rh1", None)), found.get(("ainf", None))
        report.rh_p = {p: v for (name, p), v in found.items() if name == "rhp"}
        report.a_p = {p: v for (name, p), v in found.items() if name == "ap"}
    if "rh1_prime" in which:
        report.rh1_prime = rh1_prime_constant(w, maximal_resolution)
    if "rh1_doubleprime" in which:
        report.rh1_doubleprime = rh1_doubleprime_constant(w, maximal_resolution)
    return report
