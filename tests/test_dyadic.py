"""Dyadic partitions: admissible splits, tree construction, chain verification.

split() hunts for a cut fraction alpha whose child points are joined by a
segment staying inside the q1 domain; build_partition() recurses while also
checking each node's own point against the tighter constant q; chain_verify()
evaluates a concave majorant along the generations and checks the sums
decrease toward the moment the tree refines to.
"""

import dataclasses
import functools
import hashlib
import math

import mpmath
import numpy as np
import pytest

from weightlab import (
    BellmanSurface,
    DomainError,
    Interval,
    MomentKind,
    ParameterError,
    SplitConfig,
    SplitError,
    SplitMode,
    SurfaceKind,
    build_partition,
    chain_verify,
    evaluate_surface,
    gamma_entropy_roots,
    moment,
    power_weight,
    split,
    step_weight,
    truncate,
    weight_from_dict,
)
from weightlab import constants, dyadic, errors, weights
from weightlab.bellman import _chord_excess, _excess, evaluate_many

from _frozen import DYADIC_FAILURES, FROZEN_TREES
from _trees import Ends, Node, node_view, walk

LINEAR = power_weight(1.0, 1.0)
FLAT = power_weight(3.0, 0.0)

# For w(t) = t every prefix [0, x] has avg(w) / exp(avg(log w)) = e/2 exactly,
# so e/2 is both the interval ratio everywhere and the global constant.
Q_LINEAR = math.e / 2.0


class TestSplitConfig:
    def test_rejects_nonpositive_q(self):
        with pytest.raises(ParameterError, match="q must be positive"):
            SplitConfig(q=0.0, q1=1.0)

    def test_rejects_q1_not_above_q(self):
        with pytest.raises(ParameterError, match="q1 must exceed q"):
            SplitConfig(q=2.0, q1=2.0)

    @pytest.mark.parametrize("delta0", [0.5, 0.0, -0.2])
    def test_rejects_delta0_outside_window(self, delta0):
        with pytest.raises(ParameterError, match="delta0"):
            SplitConfig(q=2.0, q1=2.5, delta0=delta0)

    @pytest.mark.parametrize("q1", [math.inf, math.nan, -math.inf])
    def test_rejects_non_finite_q1(self, q1):
        with pytest.raises(ParameterError, match="q1 must"):
            SplitConfig(q=1.5, q1=q1)

    def test_default_margin(self):
        assert SplitConfig(q=2.0, q1=2.4).delta0 == 0.05


class TestSplit:
    def test_flat_weight_cuts_at_midpoint(self):
        cfg = SplitConfig(q=1.5, q1=1.8)
        left, right, alpha = split(FLAT, Interval(0.0, 1.0), cfg, SplitMode.LOG)
        assert alpha == 0.5
        assert (left.a, left.b) == (0.0, 0.5)
        assert (right.a, right.b) == (0.5, 1.0)

    def test_alpha_is_a_fraction_of_the_interval(self):
        cfg = SplitConfig(q=1.5, q1=1.8)
        left, right, alpha = split(FLAT, Interval(0.25, 0.75), cfg, SplitMode.LOG)
        assert alpha == 0.5
        assert (left.a, left.b) == (0.25, 0.5)
        assert (right.a, right.b) == (0.5, 0.75)

    def test_comfortable_margin_keeps_midpoint(self):
        cfg = SplitConfig(q=1.1 * Q_LINEAR, q1=1.1 * Q_LINEAR * 1.2)
        _, _, alpha = split(LINEAR, Interval(0.0, 1.0), cfg, SplitMode.LOG)
        assert alpha == 0.5

    def test_tight_margin_moves_cut_off_center(self):
        # w(t) = t sits on the q = e/2 boundary, so the chord through the
        # midpoint children bulges past a 2 percent q1 margin and the
        # candidate walk has to move right before the segment fits.
        cfg = SplitConfig(q=Q_LINEAR, q1=Q_LINEAR * 1.02)
        left, right, alpha = split(LINEAR, Interval(0.0, 1.0), cfg, SplitMode.LOG)
        assert alpha > 0.5
        assert alpha == pytest.approx(0.68, abs=1e-12)
        assert left.b == right.a == alpha

    def test_no_admissible_cut_reports_best_candidate(self):
        # Push the weight just past the boundary and leave almost no q1
        # slack: every candidate fails and the error carries the least bad.
        q = Q_LINEAR * 1.0001
        cfg = SplitConfig(q=q, q1=q * 1.00011)
        with pytest.raises(SplitError) as excinfo:
            split(LINEAR, Interval(0.0, 1.0), cfg, SplitMode.LOG)
        assert excinfo.value.best_alpha == 0.95
        assert 0.0 < excinfo.value.best_violation < 1e-3

    def test_rounds_of_ratios_take_the_first_that_fits(self):
        # rounds try 1, 2, 4, ... ratios at once; the cut is still the first ratio in order that fits,
        # here from 0.5 to 0.68, and without one the least-violating ratio
        q = Q_LINEAR * 1.0001
        cases = [(LINEAR, SplitConfig(q=q, q1=q * 1.00011), SplitMode.LOG)]
        for margin in (1.0, 1.02):
            cases.append((LINEAR, SplitConfig(q=margin * Q_LINEAR, q1=margin * Q_LINEAR * 1.02), SplitMode.LOG))
            cases += [(weights.reference_corpus(8)[k], SplitConfig(q=margin * c, q1=margin * c * 1.03), mode)
                      for k, c, mode in ((1, 1.3, SplitMode.LOG), (6, 0.13, SplitMode.ENTROPY))]
        for w, cfg, mode in cases:
            for iv in (Interval(0.0, 1.0), Interval(0.0, 0.25), Interval(0.0, 1e-6), Interval(0.3, 0.7), Interval(0.5, 1.0)):
                want = _ratio_by_ratio(w, iv, cfg, mode)
                try:
                    got = split(w, iv, cfg, mode)
                except SplitError as exc:
                    got = (exc.best_alpha, exc.best_violation)
                assert got == want, (w, iv, mode)

    def test_tied_candidates_report_the_first(self):
        # a flat weight puts every child point at (3, log 3), ratio 1 > q1: all
        # candidates violate by the same amount, and the first of them is kept
        cfg = SplitConfig(q=0.5, q1=0.8)
        with pytest.raises(SplitError) as excinfo:
            split(FLAT, Interval(0.0, 1.0), cfg, SplitMode.LOG)
        assert excinfo.value.best_alpha == 0.5
        assert excinfo.value.best_violation == pytest.approx(0.2)


def _ratio_by_ratio(w, iv, cfg, mode):
    """split as one ratio at a time: (left, right, alpha) of the first ratio whose chord fits, else the
    SplitError's (best_alpha, best_violation), or the exception a child's moments raise first."""
    kind = MomentKind.AVG_LOG_W if mode is SplitMode.LOG else MomentKind.AVG_W_LOG_W
    best = (math.nan, math.inf)
    for alpha in dyadic._alpha_candidates(cfg.delta0):
        mid = iv.a + alpha * (iv.b - iv.a)
        if not iv.a < mid < iv.b:
            continue
        try:
            p0, p1 = weights._moment_pair(w, Interval(iv.a, mid), kind), weights._moment_pair(w, Interval(mid, iv.b), kind)
        except (ArithmeticError, ValueError) as exc:
            return type(exc), str(exc)
        viol = _chord_excess(mode is SplitMode.ENTROPY, cfg.q1, [p0], [p1])[0]
        if viol <= 1e-12:
            return Interval(iv.a, mid), Interval(mid, iv.b), alpha
        if viol < best[1]:
            best = (alpha, float(viol))
    return best


def _chord_peak(mode, q, p0, p1):
    """40-digit largest normalised excess along the chord p0 -> p1, found without its closed form.

    Each boundary gap (log coordinates: 1 - r and r - q, r = x e^-y; entropy:
    x log x - y and y - x log x - q x) is concave or convex along the chord, so
    a golden-section search for its maximum over s in [0, 1], with both ends,
    finds it; the gap is then taken over the domain's scale at that point.
    """
    with mpmath.workdps(40):
        x0, y0, x1, y1, Q = map(mpmath.mpf, (*p0, *p1, q))

        def gaps(s):
            x, y = x0 + s * (x1 - x0), y0 + s * (y1 - y0)
            if mode is SplitMode.LOG:
                r = x * mpmath.exp(-y)
                return (1 - r, r - Q), max(1, Q)
            base = x * mpmath.log(x)
            return (base - y, y - base - Q * x), max(1, abs(base) + Q * x)

        best = -mpmath.inf
        for k in (0, 1):
            lo, hi = mpmath.mpf(0), mpmath.mpf(1)
            # 90 steps shrink the bracket to 1e-19: the scale varies along an entropy
            # chord, so the excess over it moves at first order in s
            for _ in range(90):
                a, b = hi - (hi - lo) / mpmath.phi, lo + (hi - lo) / mpmath.phi
                if gaps(a)[0][k] < gaps(b)[0][k]:
                    lo = a
                else:
                    hi = b
            for s in (0, 1, (lo + hi) / 2):
                g, scale = gaps(s)
                best = max(best, g[k] / scale)
        return float(best)


class TestChordExcess:
    """A chord is checked exactly: at its ends and at the one interior maximiser."""

    # w(t) = 2.881921588057466 t^0.9494593533135366 sits on its q boundary; the
    # chord of the cut at 0.91 peaks 2.66e-6 above q1 at s = 0.0443, where 100
    # evenly spaced samples of the chord miss it (their best reads -4.99e-6)
    POWER = power_weight(2.881921588057466, 0.9494593533135366)
    Q, Q1 = 1.3256557913842342, 1.3269814471756183

    def test_corpus_chord_leaving_q1_between_samples_is_refused(self):
        assert weights.reference_corpus(40, seed=3)[6] == self.POWER
        tree = build_partition(self.POWER, SplitConfig(q=self.Q, q1=self.Q1), SplitMode.LOG, max_depth=1)
        assert tree.ends[1, 1] == pytest.approx(0.92, abs=1e-12)  # the root's left child ends at the cut
        # the cut at 0.91 peaks above q1
        p0 = weights._moment_pair(self.POWER, Interval(0.0, 0.91), MomentKind.AVG_LOG_W)
        p1 = weights._moment_pair(self.POWER, Interval(0.91, 1.0), MomentKind.AVG_LOG_W)
        peak = _chord_peak(SplitMode.LOG, self.Q1, p0, p1)
        assert peak == pytest.approx(2.66e-6, rel=1e-3)
        assert _chord_excess(False, self.Q1, [p0], [p1])[0] == pytest.approx(peak, abs=1e-15)

    @staticmethod
    def _log_chord():
        # q = 2, p0 = (1, y0), p1 = (2, y0 + dy): log x - y peaks at x = 1/dy = 199/198,
        # s = 1/198, where x e^-y = q (1 + 1e-6); 100 evenly spaced samples read -1.16e-5
        x = 199.0 / 198.0
        y0 = math.log(x) - 1.0 / 199.0 - math.log(2.0 * (1.0 + 1e-6))
        return (1.0, y0), (2.0, y0 + 198.0 / 199.0)

    @staticmethod
    def _entropy_chord():
        # q = 2, p0 = (1, y0), p1 = (2, y0 + dy): y - x log x - q x peaks at
        # x = exp(dy - 1 - q) = 199/198, s = 1/198, 1e-6 of the scale above the
        # upper boundary; 100 evenly spaced samples read -2.66e-6
        x = 199.0 / 198.0
        dy = math.log(x) + 3.0
        scale = x * math.log(x) + 2.0 * x
        y0 = x * math.log(x) + 2.0 * x + 1e-6 * scale - dy / 198.0
        return (1.0, y0), (2.0, y0 + dy)

    @pytest.mark.parametrize("mode", list(SplitMode))
    def test_interior_peak_between_samples_is_refused(self, mode):
        p0, p1 = self._log_chord() if mode is SplitMode.LOG else self._entropy_chord()
        got = _chord_excess(mode is SplitMode.ENTROPY, 2.0, [p0], [p1])[0]
        assert got == pytest.approx(1e-6, rel=1e-6)
        assert got == pytest.approx(_chord_peak(mode, 2.0, p0, p1), abs=1e-15)
        # both ends are inside: only the interior point sees the excess
        x, y = np.array([p0, p1]).T
        assert (_excess(mode is SplitMode.ENTROPY, 2.0, x, y) < 0.0).all()

    @staticmethod
    def _random_chords(mode, rng, n):
        """n chords near the q boundaries: ends at normalised heights t in [-0.02, 1.02]."""
        q = float(rng.choice([1.05, 1.5, 2.0, 10.0, 300.0]))
        x = np.exp(rng.uniform(-4.0, 4.0, (2, n)))
        t = rng.uniform(-0.02, 1.02, (2, n))
        if mode is SplitMode.LOG:
            y = np.log(x) - np.log1p(t * (q - 1.0))
        else:
            y = x * np.log(x) + t * q * x
        return q, list(zip(x[0], y[0])), list(zip(x[1], y[1]))

    @staticmethod
    def _agree(got, peaks):
        return all(abs(g - p) <= 1e-13 * max(1.0, abs(p)) for g, p in zip(got, peaks))

    @pytest.mark.parametrize("mode", list(SplitMode))
    def test_excess_is_the_mpmath_max_along_the_chord(self, mode):
        rng = np.random.default_rng(1301 if mode is SplitMode.LOG else 1302)
        for _ in range(3):
            q, p0, p1 = self._random_chords(mode, rng, 10)
            peaks = [_chord_peak(mode, q, u, v) for u, v in zip(p0, p1)]
            got = _chord_excess(mode is SplitMode.ENTROPY, q, p0, p1).tolist()
            assert self._agree(got, peaks), (q, got, peaks)

    @pytest.mark.parametrize("mode", list(SplitMode))
    def test_negative_control_ends_alone_disagree(self, mode):
        # the check above fails without the interior point
        rng = np.random.default_rng(1301 if mode is SplitMode.LOG else 1302)
        q, p0, p1 = self._random_chords(mode, rng, 10)
        peaks = [_chord_peak(mode, q, u, v) for u, v in zip(p0, p1)]
        (x0, y0), (x1, y1) = np.array(p0).T, np.array(p1).T
        entropy = mode is SplitMode.ENTROPY
        ends = np.maximum(_excess(entropy, q, x0, y0), _excess(entropy, q, x1, y1))
        assert not self._agree(ends.tolist(), peaks)


class TestBuildPartition:
    def test_flat_weight_gives_uniform_dyadic_grid(self):
        cfg = SplitConfig(q=1.5, q1=1.8)
        tree = build_partition(FLAT, cfg, SplitMode.LOG, max_depth=4)
        leaf_ends = tree.ends[15:].tolist()  # generation 4: rows 15 to 30
        assert len(leaf_ends) == 16
        assert sorted(a for a, _ in leaf_ends) == pytest.approx([i / 16.0 for i in range(16)], abs=1e-15)
        for a, b in leaf_ends:
            assert b - a == pytest.approx(1 / 16)

    def test_generation_sizes_double(self):
        cfg = SplitConfig(q=1.5, q1=1.8)
        tree = build_partition(FLAT, cfg, SplitMode.LOG, max_depth=4)
        assert tree.depth == 4
        assert tree.ends.shape == tree.points.shape == (1 + 2 + 4 + 8 + 16, 2)

    def test_children_tile_parent(self):
        cfg = SplitConfig(q=Q_LINEAR, q1=Q_LINEAR * 1.02)
        tree = build_partition(LINEAR, cfg, SplitMode.LOG, max_depth=5)
        parents, left, right = tree.ends[: len(tree.ends) // 2], tree.ends[1::2], tree.ends[2::2]
        assert (left[:, 0] == parents[:, 0]).all()
        assert (right[:, 1] == parents[:, 1]).all()
        assert (left[:, 1] == right[:, 0]).all()

    def test_leaf_lengths_shrink_geometrically(self):
        cfg = SplitConfig(q=Q_LINEAR, q1=Q_LINEAR * 1.02, delta0=0.05)
        tree = build_partition(LINEAR, cfg, SplitMode.LOG, max_depth=4)
        bound = (1.0 - cfg.delta0) ** 4
        for a, b in tree.ends[len(tree.ends) // 2:].tolist():
            assert b - a <= bound + 1e-15

    def test_log_mode_points_are_interval_moments(self):
        cfg = SplitConfig(q=Q_LINEAR, q1=Q_LINEAR * 1.02)
        tree = build_partition(LINEAR, cfg, SplitMode.LOG, max_depth=3)
        for (a, b), (x, y) in zip(tree.ends.tolist(), tree.points.tolist()):
            assert x == pytest.approx(
                moment(LINEAR, Interval(a, b), MomentKind.AVG_W), rel=1e-14
            )
            assert y == pytest.approx(
                moment(LINEAR, Interval(a, b), MomentKind.AVG_LOG_W), rel=1e-14
            )

    def test_entropy_mode_points_carry_w_log_w(self):
        w = truncate(LINEAR, 2.0)
        cfg = SplitConfig(q=2.0, q1=2.4)
        tree = build_partition(w, cfg, SplitMode.ENTROPY, max_depth=3)
        x, y = tree.points[0].tolist()
        assert x == pytest.approx(moment(w, Interval(0.0, 1.0), MomentKind.AVG_W))
        assert y == pytest.approx(
            moment(w, Interval(0.0, 1.0), MomentKind.AVG_W_LOG_W)
        )

    def test_both_coordinates_are_martingales(self):
        # Node coordinates are interval averages, so parent mass must equal
        # the length-weighted sum over children in both components.
        cfg = SplitConfig(q=Q_LINEAR, q1=Q_LINEAR * 1.02)
        tree = build_partition(LINEAR, cfg, SplitMode.LOG, max_depth=5)
        mass = (tree.points * (tree.ends[:, 1] - tree.ends[:, 0])[:, None]).tolist()
        for i in range(len(mass) // 2):
            for coord in (0, 1):
                child_mass = mass[2 * i + 1][coord] + mass[2 * i + 2][coord]
                assert child_mass == pytest.approx(mass[i][coord], abs=1e-12)

    def test_rejects_weight_whose_constant_exceeds_q(self):
        w = step_weight([0.0, 0.57, 1.0], [1.0, 100.0])
        cfg = SplitConfig(q=6.3, q1=7.5)
        with pytest.raises(DomainError, match="exceeds"):
            build_partition(w, cfg, SplitMode.LOG, max_depth=3)

    def test_root_refusal_of_a_deep_tree(self, monkeypatch):
        # the root's own point is checked before the tree is laid out: no array pass
        monkeypatch.setattr(dyadic, "_moment_pairs", None)
        w = step_weight([0.0, 0.57, 1.0], [1.0, 100.0])
        with pytest.raises(DomainError) as excinfo:
            build_partition(w, SplitConfig(q=1.2, q1=1.5), SplitMode.LOG, max_depth=14)
        assert str(excinfo.value) == (
            "moment point (43.57000000000001, 1.9802231799748797) of [0.0, 1.0] leaves the q = 1.2 domain; "
            "the weight's constant exceeds q"
        )

    def test_depth_zero_is_a_bare_root(self):
        cfg = SplitConfig(q=1.5, q1=1.8)
        tree = build_partition(FLAT, cfg, SplitMode.LOG, max_depth=0)
        assert tree.depth == 0
        assert tree.ends.shape == tree.points.shape == (1, 2)
        assert tree.points[0, 0] == pytest.approx(3.0)


class TestChainVerify:
    @staticmethod
    def _generation_sums(surface, tree):
        """Each generation's sum as the chain was summed over the node objects: generations from the
        root node, a node's children in order, each sum added in order from 0.0."""
        root = node_view(tree.ends, tree.points)
        generations, generation = [], [root]
        while generation:
            generations.append(generation)
            generation = [c for n in generation for c in n.children]
        values = iter(evaluate_many(surface, *np.array([n.point for g in generations for n in g]).reshape(-1, 2).T).tolist())
        root_len = root.interval.b - root.interval.a
        sums = []
        for generation in generations:
            total = 0.0
            for node in generation:
                total += (node.interval.b - node.interval.a) / root_len * next(values)
            sums.append(total)
        return sums

    @pytest.mark.parametrize("margin, q1_ratio", [(1.25, 1.3), (1.02, 1.03)], ids=["halves", "moved"])
    def test_sums_are_the_node_loop_bit_for_bit(self, margin, q1_ratio):
        for w, cfg, mode, _ in TestFrozenTrees._grid_cases(margin, q1_ratio):
            if mode is SplitMode.LOG:
                surface = BellmanSurface(SurfaceKind.AINF_UPPER, cfg.q1)
            else:
                surface = BellmanSurface(SurfaceKind.GEHRING, cfg.q1, eps=0.5 / (gamma_entropy_roots(cfg.q1)[1].root - 1.0))
            for depth in range(11):
                try:
                    tree = build_partition(w, cfg, mode, max_depth=depth)
                except errors.WeightLabError:
                    break
                got = chain_verify(surface, w, tree).sums
                assert [v.hex() for v in got] == [v.hex() for v in self._generation_sums(surface, tree)], (w, mode, depth)

    def test_log_chain_descends_to_entropy_moment(self):
        q = 1.1 * Q_LINEAR
        cfg = SplitConfig(q=q, q1=1.2 * q)
        tree = build_partition(LINEAR, cfg, SplitMode.LOG, max_depth=6)
        surface = BellmanSurface(SurfaceKind.AINF_UPPER, cfg.q1)
        report = chain_verify(surface, LINEAR, tree)
        # avg of t log t over [0, 1] is -1/4
        assert report.target == pytest.approx(-0.25, abs=1e-12)
        assert report.monotone
        assert report.meets_target
        assert report.sums[0] == pytest.approx(
            evaluate_surface(surface, 0.5, -1.0), rel=1e-14
        )
        assert report.final_gap == report.sums[-1] - report.target

    def test_passed_is_monotone_and_meets_target(self):
        cfg = SplitConfig(q=Q_LINEAR, q1=Q_LINEAR * 1.02)
        tree = build_partition(LINEAR, cfg, SplitMode.LOG, max_depth=3)
        report = chain_verify(BellmanSurface(SurfaceKind.AINF_UPPER, cfg.q1), LINEAR, tree)
        assert report.passed is True
        for monotone, meets in ((False, True), (True, False), (False, False)):
            other = dataclasses.replace(report, monotone=monotone, meets_target=meets)
            assert other.passed is False
        # a property, so not among the fields a report prints
        assert "passed" not in [f.name for f in dataclasses.fields(report)]

    def test_chain_regression_off_center_tree(self):
        cfg = SplitConfig(q=Q_LINEAR, q1=Q_LINEAR * 1.02)
        tree = build_partition(LINEAR, cfg, SplitMode.LOG, max_depth=3)
        surface = BellmanSurface(SurfaceKind.AINF_UPPER, cfg.q1)
        report = chain_verify(surface, LINEAR, tree)
        expected = (
            -0.05300883803100276,
            -0.15638399241702503,
            -0.20607786800786565,
            -0.22953173638577454,
        )
        assert report.sums == pytest.approx(expected, rel=1e-12)

    def test_deeper_tree_gets_closer(self):
        cfg = SplitConfig(q=Q_LINEAR, q1=Q_LINEAR * 1.02)
        surface = BellmanSurface(SurfaceKind.AINF_UPPER, cfg.q1)
        gaps = []
        for depth in (2, 4, 6):
            tree = build_partition(LINEAR, cfg, SplitMode.LOG, max_depth=depth)
            report = chain_verify(surface, LINEAR, tree)
            assert report.monotone and report.meets_target
            gaps.append(report.final_gap)
        assert gaps[0] > gaps[1] > gaps[2] > 0.0
        assert gaps[2] == pytest.approx(-0.2479608039883073 + 0.25, rel=1e-9)

    def test_entropy_chain_bounds_power_moment(self):
        w = truncate(LINEAR, 2.0)
        cfg = SplitConfig(q=2.0, q1=2.4)
        tree = build_partition(w, cfg, SplitMode.ENTROPY, max_depth=4)
        gamma_plus = gamma_entropy_roots(cfg.q1)[1].root
        eps = 0.4 / (gamma_plus - 1.0)
        surface = BellmanSurface(SurfaceKind.GEHRING, cfg.q1, eps=eps)
        report = chain_verify(surface, w, tree)
        assert report.target == pytest.approx(
            moment(w, Interval(0.0, 1.0), MomentKind.AVG_W_POW, p=1.0 + eps)
        )
        assert report.monotone
        assert report.meets_target
        assert 0.0 <= report.final_gap < 1e-4

    def test_kind_and_mode_pairing_is_enforced(self):
        log_tree = build_partition(
            FLAT, SplitConfig(q=1.5, q1=1.8), SplitMode.LOG, max_depth=2
        )
        entropy_tree = build_partition(
            FLAT, SplitConfig(q=1.5, q1=1.8), SplitMode.ENTROPY, max_depth=2
        )
        with pytest.raises(ParameterError, match="bounds from above"):
            chain_verify(BellmanSurface(SurfaceKind.AINF_LOWER, 1.8), FLAT, log_tree)
        with pytest.raises(ParameterError, match="ENTROPY-mode"):
            chain_verify(
                BellmanSurface(SurfaceKind.GEHRING, 1.8, eps=0.3), FLAT, log_tree
            )
        with pytest.raises(ParameterError, match="LOG-mode"):
            chain_verify(BellmanSurface(SurfaceKind.AINF_UPPER, 1.8), FLAT, entropy_tree)

    def test_surface_domain_must_cover_q1(self):
        tree = build_partition(
            FLAT, SplitConfig(q=1.5, q1=1.8), SplitMode.LOG, max_depth=2
        )
        with pytest.raises(ParameterError, match="guarantees chords"):
            chain_verify(BellmanSurface(SurfaceKind.AINF_UPPER, 1.7), FLAT, tree)

    def test_malformed_weight_payload_cannot_reach_partition(self):
        # Serialization guard belongs upstream, but the error should be the
        # package's own, not a KeyError from inside the tree builder.
        with pytest.raises(ParameterError):
            weight_from_dict({"pieces": [{"a": 0.0, "b": 1.0}]})


def _digest(root):
    """sha256 of the preorder nodes: float.hex of interval.a, interval.b, point x, point y."""
    h = hashlib.sha256()
    for node in walk(root):
        fields = (node.interval.a, node.interval.b, *node.point)
        h.update(" ".join(float(v).hex() for v in fields).encode())
    return h.hexdigest()


def _frozen_weight(pieces):
    return weights.Weight(tuple(weights.PowerPiece(Interval(a, b), c, e) for a, b, c, e in pieces))


def _surface(mode, q1, eps):
    if mode == "log":
        return BellmanSurface(SurfaceKind.AINF_UPPER, q1)
    return BellmanSurface(SurfaceKind.GEHRING, q1, eps=eps)


class TestFrozenTrees:
    """Trees and chains against the depth-first recursion's output (tests/_frozen.py)."""

    @pytest.mark.parametrize("case", FROZEN_TREES, ids=[f"tree{k}" for k in range(len(FROZEN_TREES))])
    def test_tree_is_bit_identical_and_sums_match(self, case):
        pieces, mode, q, q1, eps, digest, sums = case
        w = _frozen_weight(pieces)
        tree = build_partition(w, SplitConfig(q=q, q1=q1), SplitMode(mode), max_depth=6)
        assert _digest(node_view(tree.ends, tree.points)) == digest
        report = chain_verify(_surface(mode, q1, eps), w, tree)
        assert len(report.sums) == len(sums)
        # evaluate_many's array logs and exps may round differently from math's;
        # on the scale chain_verify's own checks use, the sums agree to 4e-15
        for got, want in zip(report.sums, sums):
            assert abs(got - want) <= 4e-15 * max(1.0, abs(want))

    def test_frozen_set_covers_both_modes_and_moved_cuts(self):
        assert {case[1] for case in FROZEN_TREES} == {"log", "entropy"}
        moved = 0
        for pieces, mode, q, q1, *_ in FROZEN_TREES:
            tree = build_partition(_frozen_weight(pieces), SplitConfig(q=q, q1=q1), SplitMode(mode), max_depth=6)
            for node in walk(node_view(tree.ends, tree.points)):
                if node.children:
                    left = node.children[0].interval
                    moved += abs(left.length / node.interval.length - 0.5) > 1e-9
        assert moved >= 12

    @staticmethod
    def _depth_first(w, cfg, mode, depth, iv=Interval(0.0, 1.0)):
        """The tree as the depth-first recursion builds it: a node's point from two moment
        calls, checked against q, then its cut from split, then its left subtree."""
        kind = MomentKind.AVG_LOG_W if mode is SplitMode.LOG else MomentKind.AVG_W_LOG_W
        pt = (moment(w, iv, MomentKind.AVG_W), moment(w, iv, kind))
        if not _excess(mode is SplitMode.ENTROPY, cfg.q, np.array([pt[0]]), np.array([pt[1]]))[0] <= 1e-9:
            raise DomainError(
                f"moment point {pt} of [{iv.a}, {iv.b}] leaves the q = {cfg.q} domain; the weight's constant exceeds q"
            )
        if not depth:
            return Node(Ends(iv.a, iv.b), pt)
        left, right, _ = split(w, iv, cfg, mode)
        kids = [TestFrozenTrees._depth_first(w, cfg, mode, depth - 1, half) for half in (left, right)]
        return Node(Ends(iv.a, iv.b), pt, tuple(kids))

    @staticmethod
    @functools.cache
    def _grid_constants():
        return [(w, constants.ainf_constant(w, resolution=101)[0], constants.rh1_constant(w, resolution=101)[0])
                for w in weights.reference_corpus(24)]

    @staticmethod
    def _grid_cases(margin, q1_ratio):
        # each corpus weight at margin x its grid constant, both modes
        out = []
        for w, ainf, rh1 in TestFrozenTrees._grid_constants():
            log_q, entropy_q = max(margin * ainf, 1.001), margin * max(rh1, 0.0) + 0.01
            for mode, q in ((SplitMode.LOG, log_q), (SplitMode.ENTROPY, entropy_q)):
                out.append((w, SplitConfig(q=q, q1=q1_ratio * q), mode, 5))
        return out

    @pytest.mark.parametrize("cases, moves", [
        (lambda: [(LINEAR, SplitConfig(q=Q_LINEAR, q1=Q_LINEAR * 1.02), SplitMode.LOG, 4)], True),
        (lambda: TestFrozenTrees._grid_cases(1.02, 1.03), True),
        (lambda: TestFrozenTrees._grid_cases(1.25, 1.3), False),
        (lambda: [(FLAT, SplitConfig(q=1.5, q1=1.8), SplitMode.LOG, 10)], False),
    ], ids=["linear", "corpus-moved", "corpus-halves", "flat-depth10"])
    def test_split_is_the_one_interval_cut(self, cases, moves):
        # build_partition's tree is the depth-first recursion's, bit for bit,
        # whether the cuts stay at 1/2 or move off it
        moved = 0
        for w, cfg, mode, depth in cases():
            want = self._depth_first(w, cfg, mode, depth)
            tree = build_partition(w, cfg, mode, max_depth=depth)
            assert node_view(tree.ends, tree.points) == want
            moved += sum(n.children[0].interval.length != 0.5 * n.interval.length for n in walk(want) if n.children)
        assert (moved > 0) == moves

    def test_each_point_takes_two_moments(self, monkeypatch):
        # a node's point is one pair of moments, computed once; on a flat weight
        # every cut is at 1/2, so after the root's own point (one _moment_pair,
        # one float _excess) every other point comes from one array pass, and
        # all are checked in one _excess and one _chord_excess pass
        calls = {"pair": 0, "pairs": 0, "rows": 0, "excess": 0, "chord": 0}

        def counted(name, fn):
            return lambda *a, **k: calls.__setitem__(name, calls[name] + 1) or fn(*a, **k)

        def pairs(w, a, b, kind):
            calls["rows"] += a.size
            return weights._moment_pairs(w, a, b, kind)

        monkeypatch.setattr(dyadic, "_moment_pair", counted("pair", weights._moment_pair))
        monkeypatch.setattr(dyadic, "_moment_pairs", counted("pairs", pairs))
        monkeypatch.setattr(dyadic, "_excess", counted("excess", _excess))
        monkeypatch.setattr(dyadic, "_chord_excess", counted("chord", _chord_excess))
        tree = build_partition(FLAT, SplitConfig(q=1.5, q1=1.8), SplitMode.LOG, max_depth=4)
        nodes = len(tree.ends)
        assert calls == {"pair": 1, "pairs": 1, "rows": nodes - 1, "excess": 2, "chord": 1}


class TestFailureOrder:
    """A failing build raises what the depth-first recursion meets first."""

    @pytest.mark.parametrize("case", DYADIC_FAILURES, ids=["domain-domain", "domain-split", "split-split", "split-domain"])
    def test_first_failure_in_preorder(self, case):
        (cuts, values, q, q1), (name, message, best_alpha, best_violation) = case
        w = step_weight(cuts, values)
        with pytest.raises(getattr(errors, name)) as excinfo:
            build_partition(w, SplitConfig(q=q, q1=q1), SplitMode.LOG, max_depth=6)
        assert type(excinfo.value) is getattr(errors, name)
        assert str(excinfo.value) == message
        assert getattr(excinfo.value, "best_alpha", None) == best_alpha
        assert getattr(excinfo.value, "best_violation", None) == best_violation

    def test_moment_error_keeps_its_place(self, monkeypatch):
        # an exception from a moment inside a cut is that node's failure: the cut
        # of [0, 0.25] (generation 2) fails before the later cut of [0.5, 1]
        def pairs(w, a, b, kind):
            xy, errors = weights._moment_pairs(w, a, b, kind)
            for i, (s, e) in enumerate(zip(a.tolist(), b.tolist())):
                if (e <= 0.25 and e - s < 0.2) or (s >= 0.5 and e - s < 0.3):
                    errors[i] = OverflowError(f"cut at [{s}, {e}]")
            return xy, errors

        monkeypatch.setattr(dyadic, "_moment_pairs", pairs)
        with pytest.raises(OverflowError, match=r"cut at \[0.0, 0.125\]"):
            build_partition(FLAT, SplitConfig(q=1.5, q1=1.8), SplitMode.LOG, max_depth=3)

    def test_chain_raises_first_failing_node_in_generation_order(self):
        tree = build_partition(LINEAR, SplitConfig(q=1.5, q1=1.8), SplitMode.LOG, max_depth=2)
        points = tree.points.copy()
        points[3] = (2.0, 0.0)  # the leaf [0, 0.25]: x e^-y = 2 > q1
        surface = BellmanSurface(SurfaceKind.AINF_UPPER, 1.8)
        with pytest.raises(DomainError) as excinfo:
            chain_verify(surface, LINEAR, dataclasses.replace(tree, points=points))
        assert str(excinfo.value) == "node [0.0, 0.25]: point (2.0, 0.0) outside the ainf_upper domain"
        # the leaf is first in preorder, but generation 1 is summed first
        points[2] = (1.0, 0.5)  # [0.5, 1.0]: x e^-y < 1
        with pytest.raises(DomainError) as excinfo:
            chain_verify(surface, LINEAR, dataclasses.replace(tree, points=points))
        assert str(excinfo.value) == "node [0.5, 1.0]: point (1.0, 0.5) outside the ainf_upper domain"

    def test_tree_arrays_are_checked(self):
        tree = build_partition(LINEAR, SplitConfig(q=1.5, q1=1.8), SplitMode.LOG, max_depth=2)
        with pytest.raises(ParameterError, match="shape"):
            dataclasses.replace(tree, points=tree.points[:6])
        surface = BellmanSurface(SurfaceKind.AINF_UPPER, 1.8)
        for row, bad in ((4, (0.3, 0.2)), (5, (math.nan, 0.75)), (6, (0.75, 1.5)), (3, (0.2, 0.2))):
            ends = tree.ends.copy()
            ends[row] = bad
            message = rf"^interval \[{bad[0]}, {bad[1]}\] not inside \[0, 1\]$"
            with pytest.raises(DomainError, match=message):
                Interval(*bad)
            # refused where the tree is made, with Interval's message, before any reader sees it
            with pytest.raises(DomainError, match=message):
                dyadic.PartitionTree(ends, tree.points, tree.mode, tree.config)
            with pytest.raises(DomainError, match=message):
                chain_verify(surface, LINEAR, dataclasses.replace(tree, ends=ends))
        ends = tree.ends.copy()
        ends[[2, 5]] = (1.0, 0.5), (-1.0, 0.0)
        with pytest.raises(DomainError, match=r"^interval \[1.0, 0.5\]"):  # the first row outside
            dyadic.PartitionTree(ends, tree.points, tree.mode, tree.config)

    def test_gehring_chain_without_eps_is_a_parameter_error(self):
        tree = build_partition(FLAT, SplitConfig(q=1.5, q1=1.8), SplitMode.ENTROPY, max_depth=2)
        with pytest.raises(ParameterError, match="needs eps"):
            chain_verify(BellmanSurface(SurfaceKind.GEHRING, 1.8), FLAT, tree)
