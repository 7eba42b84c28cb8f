"""Interval splitting with moment points confined to a domain.

A weight with sup-type constant at most q keeps every interval's moment
point inside the corresponding domain; splitting an interval subdivides its
point along a chord.  The splitter picks a cut ratio so the whole chord
stays inside the slightly enlarged domain (constant q1 > q), which is what
makes telescoping sums against a concave surface built at q1 monotone.

A PartitionTree is level-order arrays, the only tree the library reads or writes: node i's interval and
moment point in row i of ends and of points, its children in rows 2i + 1 and 2i + 2, each interval checked
once, by the constructor.  build_partition fills the arrays in one array pass where every cut is 1/2, else
by rounds of candidate ratios, one array pass each, where _cuts writes each cut node's children into their
rows; chain_verify sums generations, which are row ranges.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bellman import (CHORD_TOL, POINT_TOL, BellmanSurface, SurfaceKind, _chord_excess, _excess, _require_eps,
                      evaluate_many, in_domain)
from .errors import DomainError, ParameterError, SplitError
from .weights import Interval, MomentKind, Weight, _moment_pair, _moment_pairs, moment

__all__ = [
    "SplitMode",
    "SplitConfig",
    "PartitionTree",
    "ChainReport",
    "split",
    "build_partition",
    "chain_verify",
]

class SplitMode(Enum):
    LOG = "log"
    ENTROPY = "entropy"


@dataclass(frozen=True)
class SplitConfig:
    q: float
    q1: float
    delta0: float = 0.05

    def __post_init__(self):
        if not (self.q > 0.0 and math.isfinite(self.q)):
            raise ParameterError(f"q must be positive, got {self.q}")
        if not (self.q1 > self.q):
            raise ParameterError(f"q1 must exceed q, got q1 = {self.q1} <= q = {self.q}")
        if not math.isfinite(self.q1):
            raise ParameterError(f"q1 must be finite, got {self.q1}")
        if not (0.0 < self.delta0 <= 0.45):
            raise ParameterError(f"delta0 must lie in (0, 0.45], got {self.delta0}")


@dataclass(frozen=True, eq=False)
class PartitionTree:
    """A full binary tree of intervals in level order: row i of ends is node i's interval (a, b) and
    row i of points its moment point (x, y), its children rows 2i + 1 and 2i + 2, so generation k is
    rows 2^k - 1 to 2^(k+1) - 2.  Both are read-only (2^(depth+1) - 1, 2) float copies of the arrays
    given, and a row of ends outside 0 <= a < b <= 1 is refused here, with its Interval's DomainError."""

    ends: np.ndarray
    points: np.ndarray
    mode: SplitMode
    config: SplitConfig

    def __post_init__(self):
        ends, points = np.array(self.ends, dtype=float), np.array(self.points, dtype=float)
        ends.flags.writeable = points.flags.writeable = False
        object.__setattr__(self, "ends", ends)
        object.__setattr__(self, "points", points)
        if not (ends.ndim == 2 and ends.shape == points.shape and ends.shape[1] == 2
                and 0 < (n := ends.shape[0]) and not n & (n + 1)):
            raise ParameterError(
                f"ends and points must both have shape (2^(depth+1) - 1, 2), got {ends.shape} and {points.shape}"
            )
        if not (inside := (0.0 <= ends[:, 0]) & (ends[:, 0] < ends[:, 1]) & (ends[:, 1] <= 1.0)).all():
            Interval(*ends[np.argmin(inside)].tolist())  # raises, naming the first row outside

    @property
    def depth(self) -> int:
        return self.ends.shape[0].bit_length() - 1


_Y_KIND = {SplitMode.LOG: MomentKind.AVG_LOG_W, SplitMode.ENTROPY: MomentKind.AVG_W_LOG_W}


def _alpha_candidates(delta0: float) -> list[float]:
    """Cut ratios tried in order: 1/2, then outward in steps of 0.01."""
    out = [0.5]
    k = 1
    while True:
        lo, hi = 0.5 - 0.01 * k, 0.5 + 0.01 * k
        added = False
        if lo >= delta0 - 1e-12:
            out.append(lo)
            added = True
        if hi <= 1.0 - delta0 + 1e-12:
            out.append(hi)
            added = True
        if not added:
            return out
        k += 1


def _cuts(w: Weight, cfg: SplitConfig, mode: SplitMode, ends: np.ndarray, xy: np.ndarray, nodes: np.ndarray):
    """Per row i of nodes, the first candidate ratio whose chord stays in the q1 domain.

    Rounds of 1, 2, 4, ... ratios, in order, over the nodes still uncut (fewer where a round would take
    more candidates than one node has left): one _moment_pairs call takes the round's child points and one
    _chord_excess pass checks its chords, and each node takes the first of its ratios that decides it, its
    children's intervals and points then written into rows 2i + 1 and 2i + 2 of ends and xy.  Returns, by
    position in nodes, each cut node's ratio, and the exception that cutting each other one alone meets
    first: its moments' (the left child's first), or a SplitError carrying the least-violating ratio.
    """
    bounds = ends[nodes].tolist()
    won, fails, best = {}, {}, [(math.nan, math.inf)] * len(bounds)
    todo, alphas, size = range(len(bounds)), _alpha_candidates(cfg.delta0), 1
    while todo and alphas:
        batch, alphas = alphas[:size], alphas[size:]
        if cut := [(k, alpha, a, mid, b) for k in todo for a, b in [bounds[k]] for alpha in batch
                   if a < (mid := a + alpha * (b - a)) < b]:
            halves = np.array([(a, mid) for _, _, a, mid, _ in cut] + [(mid, b) for *_, mid, b in cut])
            pts, errors = _moment_pairs(w, halves[:, 0], halves[:, 1], _Y_KIND[mode])
            viols = _chord_excess(mode is SplitMode.ENTROPY, cfg.q1, pts[:len(cut)], pts[len(cut):]).tolist()
            kept = []  # (k, r) of each cut this round decides for its node
            for r, (k, alpha, *_) in enumerate(cut):
                if k in won or k in fails:
                    continue
                if (exc := errors.get(r, errors.get(len(cut) + r))) is not None:
                    fails[k] = exc
                elif viols[r] <= CHORD_TOL:
                    won[k] = alpha
                    kept.append((k, r))
                elif viols[r] < best[k][1]:
                    best[k] = (alpha, viols[r])
            if kept:
                k, r = np.array(kept).T
                left, right = 2 * nodes[k] + 1, r + len(cut)
                ends[left], ends[left + 1], xy[left], xy[left + 1] = halves[r], halves[right], pts[r], pts[right]
        todo = [k for k in todo if k not in won and k not in fails]
        size = min(2 * size, max(1, len(alphas) // max(1, len(todo))))
    for k in todo:
        (a, b), (alpha, viol) = bounds[k], best[k]
        fails[k] = SplitError(f"no cut ratio in [{cfg.delta0}, {1.0 - cfg.delta0}] keeps the chord inside the q1 = "
                              f"{cfg.q1} domain on [{a}, {b}] (best alpha = {alpha} with violation {viol:.3e})",
                              best_alpha=alpha, best_violation=viol)
    return won, fails


def split(
    w: Weight, interval: Interval, cfg: SplitConfig, mode: SplitMode = SplitMode.LOG
) -> tuple[Interval, Interval, float]:
    """Cut the interval so the chord between child points stays in the q1 domain.

    Returns (left, right, alpha) with |left| = alpha * |interval|.  Raises
    SplitError carrying the best candidate when no admissible ratio exists.
    """
    ends, xy = np.array([(interval.a, interval.b), (0.0, 0.0), (0.0, 0.0)]), np.empty((3, 2))  # the node, its children
    won, fails = _cuts(w, cfg, mode, ends, xy, np.zeros(1, np.intp))
    if fails:
        raise fails[0]
    return Interval(*ends[1].tolist()), Interval(*ends[2].tolist()), won[0]


def _halving(w: Weight, cfg: SplitConfig, mode: SplitMode, max_depth: int, ends: np.ndarray, xy: np.ndarray) -> bool:
    """Lay out the tree that cuts at 1/2 (as _cuts forms midpoints) in the level-order rows of ends and xy,
    the root's given, its points from one _moment_pairs pass; whether none raises or leaves q and no
    chord leaves q1 (by _cuts' rule), from one _excess and one _chord_excess pass."""
    for lo in (2**k - 1 for k in range(max_depth)):  # generation k is rows [lo, 2 lo + 1), its children the next
        (a, b), halves = ends[lo:2 * lo + 1].T, ends[2 * lo + 1:4 * lo + 3].reshape(-1, 2, 2)  # [node, side, end]
        halves[:, 0, 0], halves[:, 1, 1] = a, b
        halves[:, 0, 1] = halves[:, 1, 0] = a + 0.5 * (b - a)
    xy[1:], errors = _moment_pairs(w, ends[1:, 0], ends[1:, 1], _Y_KIND[mode])
    entropy = mode is SplitMode.ENTROPY
    return not errors and bool((_excess(entropy, cfg.q, xy[:, 0], xy[:, 1]) <= POINT_TOL).all()
                               and (_chord_excess(entropy, cfg.q1, xy[1::2], xy[2::2]) <= CHORD_TOL).all())


def build_partition(
    w: Weight,
    cfg: SplitConfig,
    mode: SplitMode = SplitMode.LOG,
    max_depth: int = 4,
) -> PartitionTree:
    """Full binary tree of admissible splits down to max_depth.

    Every node's own moment point must lie in the q domain; a violation
    means the weight's constant exceeds q and the construction is vacuous.
    Where the root's point lies inside q, the tree of 1/2 cuts is checked
    whole (_halving); otherwise, or where that fails, a generation's points
    are checked in one array pass, then cut together (_cuts).  Of several
    failures the one raised is the first in preorder (a node's point, then
    its cut, then its left subtree), so only nodes before the first failure
    are walked on.
    """
    if not isinstance(max_depth, int) or max_depth < 0:
        raise ParameterError(f"max_depth must be a nonnegative integer, got {max_depth}")
    root = _moment_pair(w, Interval(0.0, 1.0), _Y_KIND[mode])  # what it raises is the first failure
    try:  # a root point outside q: the generation rounds decide and raise
        inside = _excess(mode is SplitMode.ENTROPY, cfg.q, *root) <= POINT_TOL
    except (ArithmeticError, ValueError):
        inside = False
    ends, xy = np.empty((2 ** (max_depth + 1) - 1, 2)), np.empty((2 ** (max_depth + 1) - 1, 2))
    ends[0], xy[0] = (0.0, 1.0), root
    if inside and (not max_depth or _halving(w, cfg, mode, max_depth, ends, xy)):
        return PartitionTree(ends, xy, mode, cfg)
    # the rounds rewrite each generation's rows before reading them, walking only its nodes before the first
    # failure in preorder: a failure found in a generation comes before every one found earlier (those lie to
    # its right), so it drops the nodes after it
    first, nodes = None, np.zeros(1, np.intp)
    for depth in range(max_depth + 1):
        if (out := (~(_excess(mode is SplitMode.ENTROPY, cfg.q, *xy[nodes].T) <= POINT_TOL)).nonzero()[0]).size:
            (a, b), pt = ends[nodes[out[0]]].tolist(), tuple(xy[nodes[out[0]]].tolist())
            first, nodes = DomainError(
                f"moment point {pt} of [{a}, {b}] leaves the q = {cfg.q} domain; the weight's constant exceeds q"
            ), nodes[:out[0]]
        if depth == max_depth or not nodes.size:
            break
        _, fails = _cuts(w, cfg, mode, ends, xy, nodes)
        if fails:
            first, nodes = fails[min(fails)], nodes[:min(fails)]
        nodes = (2 * nodes[:, None] + (1, 2)).ravel()
    if first is not None:
        raise first
    return PartitionTree(ends, xy, mode, cfg)


@dataclass(frozen=True)
class ChainReport:
    sums: tuple[float, ...]
    target: float
    monotone: bool
    meets_target: bool
    final_gap: float

    @property
    def passed(self) -> bool:
        return self.monotone and self.meets_target


def chain_verify(surface: BellmanSurface, w: Weight, tree: PartitionTree) -> ChainReport:
    """Telescoping check: per-generation surface sums decrease toward the moment.

    S_k = sum over generation-k nodes of |I| * B(point_I); concavity of the
    surface along admissible chords forces S_0 >= S_1 >= ... >= target, where
    the target is the avg of w log w (log coordinates) or of w^{1+eps}
    (entropy coordinates) over the root interval.
    """
    if surface.kind is SurfaceKind.AINF_UPPER:
        if tree.mode is not SplitMode.LOG:
            raise ParameterError("AINF_UPPER chains need a LOG-mode partition")
    elif surface.kind is SurfaceKind.GEHRING:
        if tree.mode is not SplitMode.ENTROPY:
            raise ParameterError("GEHRING chains need an ENTROPY-mode partition")
    else:
        raise ParameterError("chain_verify bounds from above; use AINF_UPPER or GEHRING")
    if surface.q < tree.config.q1 - 1e-12:
        raise ParameterError(
            f"surface built at q = {surface.q} but the partition guarantees chords "
            f"only in the q1 = {tree.config.q1} domain"
        )

    ends, (x, y), lengths = tree.ends, tree.points.T, tree.ends[:, 1] - tree.ends[:, 0]
    if surface.kind is SurfaceKind.GEHRING:
        _require_eps(surface)
    inside = in_domain(surface, x, y, tol=POINT_TOL)
    if not inside.all():
        (a, b), (px, py) = ends[k := int(np.argmin(inside))].tolist(), tree.points[k].tolist()
        raise DomainError(f"node [{a}, {b}]: point ({px}, {py}) outside the {surface.kind.value} domain")
    values = evaluate_many(surface, x, y)
    finite = np.isfinite(values)
    if not finite.all():
        (a, b), (px, py) = ends[k := int(np.argmin(finite))].tolist(), tree.points[k].tolist()
        raise DomainError(f"node [{a}, {b}]: the surface value at ({px}, {py}) overflows a double")
    root_iv = Interval(*ends[0].tolist())
    with np.errstate(all="ignore"):  # a term past the double range is inf or nan, as in float arithmetic
        terms = (lengths / root_iv.length * values).tolist()
    sums = tuple(functools.reduce(operator.add, terms[2**k - 1:2 ** (k + 1) - 1], 0.0) for k in range(tree.depth + 1))

    if surface.kind is SurfaceKind.AINF_UPPER:
        target = moment(w, root_iv, MomentKind.AVG_W_LOG_W)
    else:
        target = moment(w, root_iv, MomentKind.AVG_W_POW, p=1.0 + surface.eps)
    if not math.isfinite(target):
        raise DomainError(f"the target moment over [{root_iv.a}, {root_iv.b}] is {target}, not a finite number")

    slack = 1e-9
    monotone = all(
        sums[k + 1] <= sums[k] + slack * max(1.0, abs(sums[k]))
        for k in range(len(sums) - 1)
    )
    gap = sums[-1] - target
    meets = gap >= -slack * max(1.0, abs(target))
    return ChainReport(sums, target, monotone, meets, gap)
