"""Interval splitting with moment points confined to a domain.

A weight with sup-type constant at most q keeps every interval's moment
point inside the corresponding domain; splitting an interval subdivides its
point along a chord.  The splitter picks a cut ratio so the whole chord
stays inside the slightly enlarged domain (constant q1 > q), which is what
makes telescoping sums against a concave surface built at q1 monotone.

build_partition lays out the tree of 1/2 cuts as level-order arrays, takes its points from one
array pass per weight piece and checks them against q and its chords against q1 in one array pass
each; where one fails, it walks the tree generation by generation: one array pass checks a
generation's points, then the candidate ratios are tried in order, each round checking every uncut
node's chord exactly, by bellman's domain rule, in one array pass.  Each point is computed once.
chain_verify checks and evaluates every node's point in one in_domain and one evaluate_many call,
then sums each generation in order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bellman import BellmanSurface, SurfaceKind, _chord_excess, _excess, _require_eps, evaluate_many, in_domain
from .errors import DomainError, ParameterError, SplitError
from .weights import Interval, MomentKind, Weight, _moment_pair, _moment_pairs, moment

__all__ = [
    "SplitMode",
    "SplitConfig",
    "PartitionNode",
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


@dataclass(frozen=True)
class PartitionNode:
    interval: Interval
    point: tuple[float, float]
    children: tuple["PartitionNode", ...] = ()


@dataclass(frozen=True)
class PartitionTree:
    root: PartitionNode
    mode: SplitMode
    config: SplitConfig
    depth: int


_Y_KIND = {SplitMode.LOG: MomentKind.AVG_LOG_W, SplitMode.ENTROPY: MomentKind.AVG_W_LOG_W}


def _point(w: Weight, interval: Interval, mode: SplitMode) -> tuple[float, float]:
    return _moment_pair(w, interval, _Y_KIND[mode])


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


def _cuts(point, intervals: list[Interval], cfg: SplitConfig, mode: SplitMode, alphas: list[float]) -> list:
    """Per interval, the first candidate cut whose chord stays in the q1 domain.

    One round per candidate ratio, in order, over the intervals still uncut;
    each round checks all its chords in one array pass.  An entry is
    (alpha, left, right, left point, right point), or the exception that
    cutting that interval alone meets first: one from its moments (point),
    or a SplitError carrying the least-violating candidate.
    """
    out = [None] * len(intervals)
    best = [(math.nan, math.inf)] * len(intervals)
    todo = range(len(intervals))
    for alpha in alphas:
        if not todo:
            break
        rows = []
        for k in todo:
            a, b = intervals[k].a, intervals[k].b
            mid = a + alpha * (b - a)
            if mid <= a or mid >= b:
                continue
            left, right = Interval(a, mid), Interval(mid, b)
            try:
                rows.append((k, alpha, left, right, point(left), point(right)))
            except (ArithmeticError, ValueError) as exc:  # build_partition raises it in preorder
                out[k] = exc
        viols = _chord_excess(mode is SplitMode.ENTROPY, cfg.q1, [r[4] for r in rows], [r[5] for r in rows])
        for (k, *cut), viol in zip(rows, viols.tolist()):
            if viol <= 1e-12:
                out[k] = tuple(cut)
            elif viol < best[k][1]:
                best[k] = (alpha, viol)
        todo = [k for k in todo if out[k] is None]
    for k in todo:
        best_alpha, best_viol = best[k]
        out[k] = SplitError(
            f"no cut ratio in [{cfg.delta0}, {1.0 - cfg.delta0}] keeps the chord "
            f"inside the q1 = {cfg.q1} domain on [{intervals[k].a}, {intervals[k].b}] "
            f"(best alpha = {best_alpha} with violation {best_viol:.3e})",
            best_alpha=best_alpha,
            best_violation=best_viol,
        )
    return out


def split(
    w: Weight, interval: Interval, cfg: SplitConfig, mode: SplitMode = SplitMode.LOG
) -> tuple[Interval, Interval, float]:
    """Cut the interval so the chord between child points stays in the q1 domain.

    Returns (left, right, alpha) with |left| = alpha * |interval|.  Raises
    SplitError carrying the best candidate when no admissible ratio exists.
    """
    cut = _cuts(lambda iv: _point(w, iv, mode), [interval], cfg, mode, _alpha_candidates(cfg.delta0))[0]
    if isinstance(cut, Exception):
        raise cut
    alpha, left, right = cut[:3]
    return left, right, alpha


def _halving(w: Weight, kind: MomentKind, cfg: SplitConfig, entropy: bool, max_depth: int, known: dict):
    """Level-order intervals and points (node i's children at 2i + 1, 2i + 2) of the tree that cuts at 1/2
    (as _cuts forms midpoints), from one _moment_pairs, _excess and _chord_excess pass each; or None where
    a point raises or leaves q or a chord q1 (by _cuts' rule), each point or what it raises then in known."""
    a, b = np.zeros(2 ** (max_depth + 1) - 1), np.ones(2 ** (max_depth + 1) - 1)
    for lo in (2**k - 1 for k in range(max_depth)):  # generation k is [lo, 2 lo + 1), its children the next
        pa, pb = a[lo:2 * lo + 1], b[lo:2 * lo + 1]
        a[2 * lo + 1:4 * lo + 3:2], b[2 * lo + 2:4 * lo + 3:2] = pa, pb
        a[2 * lo + 2:4 * lo + 3:2] = b[2 * lo + 1:4 * lo + 3:2] = pa + 0.5 * (pb - pa)
    xy, errors = _moment_pairs(w, a, b, kind)
    ends, pts = list(zip(a.tolist(), b.tolist())), list(zip(*xy.T.tolist()))
    if errors or not ((_excess(entropy, cfg.q, xy[:, 0], xy[:, 1]) <= 1e-9).all()
                      and (_chord_excess(entropy, cfg.q1, xy[1::2], xy[2::2]) <= 1e-12).all()):
        known.update([*zip(ends, pts), *((ends[i], exc) for i, exc in errors.items())])
        return None
    return list(itertools.starmap(Interval, ends)), pts


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
    are checked in one array pass, then cut together (_cuts), each interval's
    point computed once.  Of several failures the one raised is the first in
    preorder (a node's point, then its cut, then its left subtree), so only
    nodes before the first failure are walked on.
    """
    if not isinstance(max_depth, int) or max_depth < 0:
        raise ParameterError(f"max_depth must be a nonnegative integer, got {max_depth}")
    entropy, kind, known = mode is SplitMode.ENTROPY, _Y_KIND[mode], {}

    def point(iv: Interval) -> tuple[float, float]:
        if (pt := known.get((iv.a, iv.b))) is None:
            pt = known[iv.a, iv.b] = _moment_pair(w, iv, kind)
        if isinstance(pt, Exception):  # kept by _halving
            raise pt
        return pt

    try:  # a bare root, or a root point that raises or leaves q: the generation rounds decide and raise
        x, y = point(Interval(0.0, 1.0))  # checked as floats before a layout, whose array pass checks it again
        inside = max_depth and _excess(entropy, cfg.q, x, y) <= 1e-9
        tree = _halving(w, kind, cfg, entropy, max_depth, known) if inside else None
    except (ArithmeticError, ValueError):
        tree = None
    if tree is None:
        first = None  # (preorder key, exception) of the first failure in preorder

        def key(depth: int, i: int) -> tuple[int, int]:
            # i-th node of its generation: its leftmost leaf, then ancestors first
            return i << (max_depth - depth), depth

        def before(depth: int, i: int) -> bool:
            return first is None or key(depth, i) < first[0]

        root = Interval(0.0, 1.0)
        level = [(0, root, point(root))]  # (index in generation, interval, point)
        levels = []
        for depth in range(max_depth + 1):
            points = [pt for _, _, pt in level]
            viols = _excess(entropy, cfg.q, *np.array(points, dtype=float).reshape(-1, 2).T)
            for (i, iv, pt), viol in zip(level, viols.tolist()):
                if not viol <= 1e-9 and before(depth, i):
                    first = (key(depth, i), DomainError(
                        f"moment point {pt} of [{iv.a}, {iv.b}] leaves the q = {cfg.q} domain; "
                        "the weight's constant exceeds q"
                    ))
            level = [node for node in level if before(depth, node[0])]
            levels.append([iv for _, iv, _ in level])
            if depth == max_depth or not level:
                break
            cuts = _cuts(point, levels[-1], cfg, mode, _alpha_candidates(cfg.delta0))
            for (i, _, _), cut in zip(level, cuts):
                if isinstance(cut, Exception) and before(depth, i):
                    first = (key(depth, i), cut)
            level = [child for (i, _, _), cut in zip(level, cuts) if before(depth, i)
                     for child in ((2 * i, cut[1], cut[3]), (2 * i + 1, cut[2], cut[4]))]
        if first is not None:
            raise first[1]
        tree = (ivs := [iv for level in levels for iv in level]), [point(iv) for iv in ivs]
    ivs, pts = tree
    lo = len(ivs) // 2  # the leaves
    nodes = list(map(PartitionNode, ivs[lo:], pts[lo:]))
    while lo:
        hi, lo = lo, lo // 2
        nodes = list(map(PartitionNode, ivs[lo:hi], pts[lo:hi], zip(nodes[0::2], nodes[1::2])))
    return PartitionTree(nodes[0], mode, cfg, max_depth)


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

    generations = []
    generation = [tree.root]
    while generation:
        generations.append(generation)
        generation = [c for n in generation for c in n.children]
    nodes = [node for generation in generations for node in generation]
    x, y = np.fromiter(itertools.chain.from_iterable([n.point for n in nodes]), float, 2 * len(nodes)).reshape(-1, 2).T
    if surface.kind is SurfaceKind.GEHRING:
        _require_eps(surface)
    inside = in_domain(surface, x, y, tol=1e-9)
    if not inside.all():
        node = nodes[int(np.argmin(inside))]
        raise DomainError(
            f"node [{node.interval.a}, {node.interval.b}]: point ({node.point[0]}, "
            f"{node.point[1]}) outside the {surface.kind.value} domain"
        )
    values = evaluate_many(surface, x, y)
    finite = np.isfinite(values)
    if not finite.all():
        node = nodes[int(np.argmin(finite))]
        raise DomainError(
            f"node [{node.interval.a}, {node.interval.b}]: the surface value at ({node.point[0]}, "
            f"{node.point[1]}) overflows a double"
        )
    values = iter(values.tolist())
    root_len = tree.root.interval.b - tree.root.interval.a
    sums = []
    for generation in generations:
        total = 0.0
        for node in generation:
            total += (node.interval.b - node.interval.a) / root_len * next(values)
        sums.append(total)

    root_iv = tree.root.interval
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
    return ChainReport(tuple(sums), target, monotone, meets, gap)
