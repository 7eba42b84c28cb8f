import math
import tracemalloc
import warnings
from contextlib import suppress

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from weightlab import (
    DomainError,
    Interval,
    MomentKind,
    OrliczKind,
    ParameterError,
    PowerPiece,
    Weight,
    WeightLabError,
    ainf_constant,
    ap_constant,
    compute_report,
    constant_weight,
    cumulative_moment,
    luxemburg_norm,
    maximal_function,
    moment,
    power_weight,
    reference_corpus,
    rescale,
    rh1_constant,
    rh1_doubleprime_constant,
    rh1_limit_check,
    rh1_prime_constant,
    rhp_constant,
    step_weight,
    truncate,
    weight_from_dict,
)
from weightlab import constants
from weightlab.constants import (
    _SCAN_BLOCK_ENTRIES,
    _centred,
    _grid_points,
    _orlicz_nodes,
    _orlicz_terms,
    _scan,
    _scans,
)
from weightlab.weights import evaluate

from _strategies import weight_json
from _frozen import (
    LUX_CORPUS_07,
    LUX_EXP_CHI,
    LUX_EXP_CONST,
    LUX_EXP_SQRT_HEAD,
    LUX_LLOGL_CONST,
    LUX_LLOGL_POWER_099,
    LUX_LLOGL_SQRT,
    LUX_NARROW,
    LUX_TAIL_FROM_0,
    RH1_LINEAR,
    RH1_PRIME_LINEAR_200,
    RH1_DOUBLEPRIME_CORPUS_24,
    RH1_DOUBLEPRIME_LINEAR_200,
    RH1_SQRT,
    RHP_QUARTER_2,
)


class TestScanGrid:
    def test_pair_count_without_extra_breakpoints(self):
        n = len(_grid_points(constant_weight(1.0), 101))
        assert n * (n - 1) // 2 == 101 * 100 // 2

    def test_breakpoints_joined_into_grid(self):
        w = step_weight((0.0, 0.3, 1.0), (1.0, 2.0))
        # points {0, 0.3, 1} -> three intervals
        assert _grid_points(w, 2).tolist() == [0.0, 0.3, 1.0]


def _dense_scan(name, w, resolution, p=None):
    """Every pair average as one dense matrix, the reference for the row-blocked _scan."""
    pts = _grid_points(w, resolution)

    def avg(kind, q=None):
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            cum = cumulative_moment(w, pts, kind, q)
            return (cum[None, :] - cum[:, None]) / (pts[None, :] - pts[:, None])

    avg_w = avg(MomentKind.AVG_W)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        if name == "rh1":
            avg_wlw = avg(MomentKind.AVG_W_LOG_W)
            ratio = (avg_wlw - avg_w * np.log(avg_w)) / avg_w
        elif name == "ainf":
            ratio = avg_w * np.exp(-avg(MomentKind.AVG_LOG_W))
        elif name == "rhp":
            ratio = avg(MomentKind.AVG_W_POW, p) ** (1.0 / p) / avg_w
        else:
            ratio = avg_w * avg(MomentKind.AVG_W_POW, -1.0 / (p - 1.0)) ** (p - 1.0)
    ratio[np.tril_indices_from(ratio)] = -np.inf
    ratio[np.isnan(ratio)] = -np.inf
    return ratio, pts


def _rh1_prime_recurrence(w, resolution):
    """Every rh1_prime ratio by the incremental recurrence in the right end, the reference for the row pass.

    For a left end p, extending [pts[p], pts[q]] by one cell adds one column of
    averages, whose running prefix maxima update M(w 1_I) on every cell; the
    cell average is a dot product.  Pairs j <= i and nan ratios read -inf.
    """
    w, _ = _centred(w)
    pts = _grid_points(w, resolution)
    n = len(pts)
    cum = cumulative_moment(w, pts, MomentKind.AVG_W)
    cell_len = np.diff(pts)
    wmid = np.array([evaluate(w, float(t)) for t in 0.5 * (pts[:-1] + pts[1:])])
    ratio = np.full((n, n), -np.inf)
    with np.errstate(invalid="ignore", divide="ignore"):
        for p in range(n - 1):
            m_vec = np.empty(0)
            for q in range(p + 1, n):
                col = (cum[q] - cum[p:q]) / (pts[q] - pts[p:q])
                m_vec = np.maximum(np.append(m_vec, wmid[q - 1]), np.maximum.accumulate(col))
                length = pts[q] - pts[p]
                ratio[p, q] = (float(np.dot(m_vec, cell_len[p:q])) / length) / (float(cum[q] - cum[p]) / length)
    ratio[np.isnan(ratio)] = -np.inf
    return ratio, pts


def _rh1_prime_per_left_end(w, resolution):
    """rh1_prime_constant with one row pass per left end, each forming its own pair averages: the reference for
    the block-wide passes, which must match it bit for bit."""
    w, _ = _centred(w)
    pts = _grid_points(w, resolution)
    n = len(pts)
    cum = cumulative_moment(w, pts, MomentKind.AVG_W)
    cell_len = np.diff(pts)
    wmid = np.array([evaluate(w, float(t)) for t in 0.5 * (pts[:-1] + pts[1:])])

    def block(i0, i1, dead):
        ratio = np.full((i1 - i0, n - 1 - i0), -np.inf)
        for p in range(i0, i1):
            later = np.tri(n - 1 - p, k=-1, dtype=bool)
            length = pts[p + 1 :] - pts[p]
            m = np.maximum.accumulate((cum[p + 1 :] - cum[p:-1, None]) / (pts[p + 1 :] - pts[p:-1, None]))
            m[later] = -np.inf
            m = np.maximum(np.maximum.accumulate(m, axis=1), wmid[p:, None])
            m[later] = 0.0
            avg_m = (m * cell_len[p:, None]).sum(axis=0) / length
            ratio[p - i0, p - i0 :] = avg_m / ((cum[p + 1 :] - cum[p]) / length)
        return [(0, ratio, None)]

    return constants._pair_walk(("rh1_prime",), pts, n - 1, block)[0]


def _outcome(scan, *args):
    """repr of a scan's (value, interval), or of the library error it raises: equal reprs are equal bits."""
    try:
        return repr(scan(*args))
    except WeightLabError as exc:
        return repr((type(exc), str(exc)))


class TestScanKernel:
    SCANS = (("rh1", None), ("ainf", None), ("rhp", 1.5), ("rhp", 3.0), ("ap", 1.5), ("ap", 3.0))

    def test_matches_dense_reference_exactly(self, corpus):
        # R = 401 spans several row blocks
        assert len(_grid_points(corpus[0], 401)) ** 2 > 4 * _SCAN_BLOCK_ENTRIES
        for w in corpus:
            for name, p in self.SCANS:
                ratio, pts = _dense_scan(name, w, 401, p)
                i, j = divmod(int(np.argmax(ratio)), ratio.shape[1])
                value, iv = _scan(name, w, 401, p)
                assert (value, iv.a, iv.b) == (ratio[i, j], pts[i], pts[j]), (name, p)

    def test_tied_maxima_in_different_row_blocks_keep_first(self):
        # period-1/2 step weight with dyadic cuts, values and grid: every pair
        # average is exact, so each interval ties with its translate by 1/2,
        # 128 grid rows further on, beyond the first block's rows
        cuts = (0.0, 0.25, 0.375, 0.5, 0.75, 0.875, 1.0)
        w = step_weight(cuts, (1.0, 4.0, 1.0, 1.0, 4.0, 1.0))
        first_block_rows = _SCAN_BLOCK_ENTRIES // 256
        for name in ("rhp", "ap"):
            ratio, pts = _dense_scan(name, w, 257, 2.0)
            rows, cols = np.nonzero(ratio == ratio.max())
            assert rows[0] < first_block_rows <= rows[-1]
            value, iv = _scan(name, w, 257, 2.0)
            assert (value, iv.a, iv.b) == (ratio.max(), pts[rows[0]], pts[cols[0]])
        rep = compute_report(w, 257, ("rhp", "ap"), (2.0,))
        assert (rep.rh_p[2.0], rep.a_p[2.0]) == (_scan("rhp", w, 257, 2.0), _scan("ap", w, 257, 2.0))

    def test_traced_peak_memory_is_bounded(self, corpus):
        # the dense scan held about six (R + k)^2 float matrices: 157 MiB here
        tracemalloc.start()
        try:
            compute_report(corpus[3], resolution=2001, which=("rh1", "ainf", "rhp", "ap"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


# period-1/2 step weight with dyadic cuts and values: every pair average is
# exact, and each interval ties with its translate by 1/2
TIE_WEIGHT = step_weight((0.0, 0.25, 0.375, 0.5, 0.75, 0.875, 1.0), (1.0, 4.0, 1.0, 1.0, 4.0, 1.0))


def _weight_or_none(data):
    try:
        return weight_from_dict(data)
    except WeightLabError:
        return None


# the shared strategies' weights, powers singular at 0 and the tie weight, as given or centred,
# rescaled by 10^+-300; p = 2 (both powers, 1/p and p - 1, are r **= e's fast paths), 1.5 and 3
# (one of them is) and p where neither is
SCAN_WEIGHTS = (weight_json().map(_weight_or_none).filter(lambda w: w is not None)
                | st.builds(power_weight, st.floats(0.1, 10.0), st.floats(-0.99, 3.0) | st.sampled_from((-0.95, -0.999)))
                | st.just(TIE_WEIGHT))
SCAN_PS = st.sampled_from((2.0, 1.5, 3.0, 2.37, 1.01, 10.0))


# a subnormal piece whose cumulative moment underflows; a singular power abutting a jump at 0.5, and a
# breakpoint 1e-13 past the grid point 0.5, merged into it
@example(step_weight((0.0, 0.5, 1.0), (5e-324, 1e308)), 12)
@example(Weight((PowerPiece(Interval(0.0, 0.5), 2.5e-310, -0.5), PowerPiece(Interval(0.5, 1.0), 3.0, 1.0))), 21)
@example(step_weight((0.0, 0.5 + 1e-13, 1.0), (1.0, 7.0)), 21)
@given(SCAN_WEIGHTS, st.integers(2, 40))
def test_maximal_block_passes_match_the_per_left_end_pass_bit_for_bit(w, resolution):
    assert _outcome(rh1_prime_constant, w, resolution) == _outcome(_rh1_prime_per_left_end, w, resolution)


def _specs(names, ps):
    """The specs of the constants in names at each p of ps, in compute_report's order."""
    return [(name, None) for name in ("rh1", "ainf") if name in names] + [
        (name, p) for name in ("rhp", "ap") if name in names for p in ps]


def _ranked_walk_mismatch(w, p, resolution=33, names=("rh1", "ainf", "rhp", "ap")):
    """How _scans on blocks of 64 entries differs from _dense_scan's first maxima, or None.

    The specs are names at p (one, or a list), in compute_report's order.  The dense reference fails at the first
    spec whose moment raises DomainError or that has no finite ratio.
    """
    specs = _specs(names, p if isinstance(p, list) else [p])
    want = []
    for name, q in specs:
        try:
            ratio, pts = _dense_scan(name, w, resolution, q)
        except DomainError:
            break
        if not np.isfinite(ratio).any():
            break
        i, j = divmod(int(np.argmax(ratio)), ratio.shape[1])
        want.append((ratio[i, j], pts[i], pts[j]))
    with pytest.MonkeyPatch.context() as small:
        small.setattr(constants, "_SCAN_BLOCK_ENTRIES", 64)
        try:
            got = [(value, iv.a, iv.b) for value, iv in _scans(specs, w, resolution)]
        except DomainError:
            return None if len(want) < len(specs) else "raised"
    if len(want) < len(specs):
        return "did not raise"
    diff = [name for (name, _), a, b in zip(specs, got, want) if a != b]
    return diff or None


def _rescaled(w, scale, centre):
    if all(0.0 < scale * pc.coeff < math.inf for pc in w.pieces):
        w = rescale(w, scale)
    return _centred(w)[0] if centre else w


# a dense avg(w) that overflows: 1 on [0, 1e-12], then t^-1.625
@example(Weight((PowerPiece(Interval(0.0, 1e-12), 1.0, 0.0), PowerPiece(Interval(1e-12, 1.0), 1.0, -1.625))),
         1e300, False, 2.0, 17)
@given(SCAN_WEIGHTS, st.sampled_from((1.0, 1e300, 1e-300)), st.booleans(), SCAN_PS, st.sampled_from((17, 33, 65)))
def test_ranked_walk_matches_dense_reference_bit_for_bit(w, scale, centre, p, resolution):
    assert _ranked_walk_mismatch(_rescaled(w, scale, centre), p, resolution) is None


# any non-empty subset of the four constants, with one to three p: without rh1, or with one log rank, a walk
# takes other ranks and arrays than the four-constant list's
@example(TIE_WEIGHT, 1.0, False, {"ainf", "rhp"}, [2.37], 33)
@example(constant_weight(0.125), 1.0, False, {"rhp"}, [1.5, 2.0, 3.0], 17)
@given(SCAN_WEIGHTS, st.sampled_from((1.0, 1e300, 1e-300)), st.booleans(),
       st.sets(st.sampled_from(("rh1", "ainf", "rhp", "ap")), min_size=1),
       st.lists(SCAN_PS, min_size=1, max_size=3, unique=True), st.sampled_from((17, 33, 65)))
def test_ranked_walk_on_any_subset_matches_dense_reference_bit_for_bit(w, scale, centre, names, ps, resolution):
    assert _ranked_walk_mismatch(_rescaled(w, scale, centre), ps, resolution, names) is None


class TestRankedWalkControls:
    """The property above fails when the band is too narrow for a rank's rounding, or a rank is less exact."""

    # a pure power's ratio is the same on every [0, x]: its first row ties up to rounding
    CASES = [(w, p) for w in (power_weight(1.7, -0.6), power_weight(1.0, 0.5), power_weight(2.0, -0.3),
                              power_weight(1.0, 1.5), constant_weight(0.3), TIE_WEIGHT) for p in (1.5, 2.37, 3.0)]

    def test_cases_match_as_they_are(self):
        assert [_ranked_walk_mismatch(w, p) for w, p in self.CASES] == [None] * len(self.CASES)

    def test_no_band_fails(self, monkeypatch):
        monkeypatch.setattr(constants, "_BAND", 0.0)
        assert any(_ranked_walk_mismatch(w, p) for w, p in self.CASES)

    def test_rank_off_by_a_relative_1e_9_fails(self, monkeypatch):
        # the log ranks of log(aw) (1 + 1e-9): scaling the whole rank would keep its order, and every first max
        for name in ("ainf", "rhp", "ap"):
            power, rank = constants._RANKS[name]
            monkeypatch.setitem(constants._RANKS, name,
                                (power, lambda law, *args, rank=rank: rank(law * (1.0 + 1e-9), *args)))
        assert any(_ranked_walk_mismatch(w, p) for w, p in self.CASES)

    def test_rh1_rank_off_by_a_relative_1e_9_fails(self, monkeypatch):
        # rh1's rank, the ratio itself, with log(aw) (1 + 1e-9)
        power, rank = constants._RANKS["rh1"]
        monkeypatch.setitem(constants._RANKS, "rh1", (power, lambda law, *args: rank(law * (1.0 + 1e-9), *args)))
        assert any(_ranked_walk_mismatch(w, p) for w, p in self.CASES)


def _mirrored(ratio, rows):
    """Whether a block array's entries at j < i equal those of the mirrored pairs (j, i), nan where nan.

    ratio[r, c] is the pair (i0 + r, i0 + 1 + c): below the diagonal of t = ratio[1:rows, :rows - 1], t[x, y] is
    the pair (i0 + 1 + x, i0 + 1 + y), whose mirror is t[y, x].
    """
    t = ratio[1:rows, : rows - 1]
    lower = np.tril_indices(rows - 1, -1)
    return np.array_equal(t[lower], t.T[lower], equal_nan=True)


def _mirror_walk(specs, w, resolution):
    """The walk of _scans on blocks of 64 entries: (misses, paths).

    misses lists (label, i0) for each array a block yields, and each exact(None) over the block, whose j < i entries
    are not the mirrored pairs' values, and for each exact whose band of every flat index is not exact(None);
    paths names what the walk took: "unranked" and "ranked" arrays, a block made with a "dead" label, and the walk's
    own calls of exact, "band" or "fallback" (None).
    """
    misses, paths, pair_walk = [], set(), constants._pair_walk

    def spy_walk(labels, pts, per_pair, block, *args):
        def spy(i0, i1, dead):
            paths.update(["dead"] if dead else [])
            for s, ratio, exact in block(i0, i1, dead):
                if not _mirrored(ratio, i1 - i0):
                    misses.append((labels[s], i0))
                if exact is not None:
                    full = exact(None)
                    if not (_mirrored(full, i1 - i0)
                            and np.array_equal(exact(np.arange(full.size)), full.ravel(), equal_nan=True)):
                        misses.append((labels[s], i0, "exact"))
                    exact = lambda band, exact=exact: paths.add("fallback" if band is None else "band") or exact(band)
                paths.add("unranked" if exact is None else "ranked")
                yield s, ratio, exact

        return pair_walk(labels, pts, per_pair, spy, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(constants, "_SCAN_BLOCK_ENTRIES", 64)
        patch.setattr(constants, "_pair_walk", spy_walk)
        with suppress(DomainError):
            _scans(specs, w, resolution)
    return misses, paths


# (weight, names, p values, resolution, what _mirror_walk sees) for each of the walk's paths: three log ranks on one
# 1/dl; rh1 with one log rank; p = 2's unranked sqrt and identity, alone and beside log ranks on one 1/dl (which
# divide the sums of w); a spec at +inf that leaves the walk; a constant weight, whose pairs all tie, so the walk
# takes exact(None)
ALL = ("rh1", "ainf", "rhp", "ap")
MIRROR_PATHS = {
    "one 1/dl": (step_weight((0.0, 0.3, 0.7, 1.0), (2.0, 0.5, 3.0)), ALL, [2.37], 40, {"ranked"}),
    "rh1 and one log rank": (power_weight(1.0, 0.5), ("rh1", "ainf"), [2.0], 33, {"ranked"}),
    "unranked": (power_weight(2.0, -0.3), ("rhp", "ap"), [2.0], 33, {"unranked"}),
    "unranked beside ranks": (power_weight(1.0, 1.5), ("ainf", "rhp", "ap"), [2.0, 2.37], 33, {"ranked", "unranked"}),
    "dead": (power_weight(1.3, -0.6), ALL, [2.37], 64, {"dead"}),
    "fallback": (constant_weight(0.3), ALL, [1.5], 17, {"fallback"}),
}


def _mirror_examples(test):
    for w, names, ps, resolution, _ in MIRROR_PATHS.values():
        test = example(w, 1.0, False, set(names), ps, resolution)(test)
    return example(TIE_WEIGHT, 1e300, True, set(ALL), [2.37], 64)(test)


@_mirror_examples
@given(SCAN_WEIGHTS | st.sampled_from(reference_corpus()), st.sampled_from((1.0, 1e300, 1e-300)), st.booleans(),
       st.sets(st.sampled_from(("rh1", "ainf", "rhp", "ap")), min_size=1),
       st.lists(SCAN_PS, min_size=1, max_size=3, unique=True), st.integers(2, 64))
def test_scan_blocks_hold_mirrored_pairs_below_the_diagonal(w, scale, centre, names, ps, resolution):
    assert _mirror_walk(_specs(names, ps), _rescaled(w, scale, centre), resolution)[0] == []


class TestMirrorContract:
    """What the mirror property above rests on: its examples take every path, and the walk itself keeps no reversed
    pair out."""

    @pytest.mark.parametrize("path", MIRROR_PATHS)
    def test_example_takes_its_path(self, path):
        w, names, ps, resolution, want = MIRROR_PATHS[path]
        misses, paths = _mirror_walk(_specs(names, ps), _centred(w)[0], resolution)
        assert misses == [] and want <= paths and (path != "unranked" or "ranked" not in paths)

    def test_rh1_prime_block_is_minus_inf_at_q_below_p(self, monkeypatch):
        seen, pair_walk = [], constants._pair_walk

        def spy_walk(labels, pts, per_pair, block, *args):
            def spy(i0, i1, dead):
                for s, ratio, exact in block(i0, i1, dead):
                    seen.append((i1 - i0, ratio[np.tri(*ratio.shape, k=-2, dtype=bool)].copy()))
                    yield s, ratio, exact

            return pair_walk(labels, pts, per_pair, spy, *args)

        monkeypatch.setattr(constants, "_pair_walk", spy_walk)
        for w in (power_weight(1.0, 0.5), TIE_WEIGHT, constant_weight(2.0)):
            rh1_prime_constant(w, 40)
        assert max(rows for rows, _ in seen) >= 3
        assert all((below == -np.inf).all() for _, below in seen)

    def test_a_reversed_pair_above_the_block_max_changes_the_answer(self):
        # |x[j] - x[i]| meets the contract; one reversed pair raised above every pair is taken by the walk, whose
        # interval then has its ends the wrong way round
        pts = np.linspace(0.0, 1.0, 9)

        def block(raised):
            def make(i0, i1, dead):
                i, j = np.ogrid[i0:i1, i0 + 1 : len(pts)]
                ratio = np.abs(pts[j] - pts[i])
                if raised:
                    ratio[3, 1] = 2.0  # the pair (3, 2)
                return [(0, ratio, None)]
            return make

        assert constants._pair_walk(("d",), pts, 1, block(False)) == [(1.0, Interval(0.0, 1.0))]
        with pytest.raises(DomainError, match=r"interval \[0.375, 0.25\] not inside"):
            constants._pair_walk(("d",), pts, 1, block(True))


class TestSharedWalk:
    def test_traced_peak_memory_is_bounded_with_four_p_values(self, corpus):
        # ten constants in one walk, each ratio made and walked on its own
        tracemalloc.start()
        try:
            compute_report(corpus[3], 2001, ("rh1", "ainf", "rhp", "ap"), (1.5, 2.0, 3.0, 4.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_report_matches_one_constant_scans_bit_for_bit(self, corpus):
        p_values = (1.5, 2.0, 3.0)
        for w in corpus:
            rep = compute_report(w, 401, ("rh1", "ainf", "rhp", "ap"), p_values)
            assert rep.rh1 == rh1_constant(w, 401)
            assert rep.ainf == ainf_constant(w, 401)
            assert rep.rh_p == {p: rhp_constant(w, p, 401) for p in p_values}
            assert rep.a_p == {p: ap_constant(w, p, 401) for p in p_values}

    @pytest.mark.parametrize(
        "cells, which, first, later",
        [
            # rh1 finds no finite value, and rhp's c^p overflows
            ((5e-324, 1e308), ("rh1", "ainf", "rhp", "ap"),
             lambda w: rh1_constant(w, 51), lambda w: rhp_constant(w, 1.5, 51)),
            # c^1.5 overflows for rhp, c^-2 for ap at p = 1.5
            ((1e-300, 1e300), ("rhp", "ap"),
             lambda w: rhp_constant(w, 1.5, 51), lambda w: ap_constant(w, 1.5, 51)),
        ],
        ids=["rh1-and-rhp", "rhp-and-ap"],
    )
    def test_first_failing_constant_raises_as_on_its_own(self, cells, which, first, later):
        w = step_weight((0.0, 0.5, 1.0), cells)
        with pytest.raises(DomainError) as alone:
            first(w)
        with pytest.raises(DomainError):
            later(w)
        with pytest.raises(DomainError) as together:
            compute_report(w, 51, which, (1.5, 3.0))
        assert str(together.value) == str(alone.value)

    def test_p_at_most_one_refused_before_any_work(self, sqrt_weight, monkeypatch):
        def no_grid(*args):
            raise AssertionError("grid built")

        monkeypatch.setattr(constants, "_grid_points", no_grid)
        with pytest.raises(ParameterError, match="ap_constant needs p > 1, got 1.0"):
            compute_report(sqrt_weight, 51, ("rh1", "ap"), (2.0, 1.0))

    def test_spec_at_inf_is_made_in_the_first_block_only(self, monkeypatch):
        # w^2.37 = c t^-1.422 has no integral at 0: rhp is +inf on the first pair, which no later pair replaces
        made, pair_walk = [], constants._pair_walk

        def spy_walk(labels, pts, per_pair, block, *args):
            def spy(i0, i1, dead):
                for s, ratio, exact in block(i0, i1, dead):
                    made.append((i0, labels[s]))
                    yield s, ratio, exact

            return pair_walk(labels, pts, per_pair, spy, *args)

        monkeypatch.setattr(constants, "_pair_walk", spy_walk)
        w = power_weight(1.3, -0.6)
        rep = compute_report(w, 401, ("rh1", "ainf", "rhp", "ap"), (2.37,))
        pts = _grid_points(_centred(w)[0], 401)
        assert rep.rh_p[2.37] == (math.inf, Interval(pts[0], pts[1]))
        blocks = sorted({i0 for i0, _ in made})
        assert len(blocks) > 4 and [i0 for i0, label in made if label.startswith("rhp")] == [0]
        assert all(sum(label == name for _, label in made) == len(blocks) for name in ("rh1", "ainf", "ap (p = 2.37)"))


@pytest.fixture
def small_blocks(monkeypatch):
    """Pair walks on blocks of 64 entries; returns a list to which every block a walk makes adds its (i0, i1)."""
    monkeypatch.setattr(constants, "_SCAN_BLOCK_ENTRIES", 64)
    blocks, pair_walk = [], constants._pair_walk

    def spy_walk(labels, pts, per_pair, block, *args):
        def spy(i0, i1, dead):
            blocks.append((i0, i1))
            return block(i0, i1, dead)

        return pair_walk(labels, pts, per_pair, spy, *args)

    monkeypatch.setattr(constants, "_pair_walk", spy_walk)
    return blocks


def _chunk_cuts(n, chunks):
    """The first grid row of each of `chunks` runs of rows that hold about equal shares of the n (n - 1) / 2 pairs."""
    pairs = np.cumsum(np.arange(n - 1, 0, -1))  # the pairs in rows 0..i
    return [0] + [int(np.searchsorted(pairs, c * pairs[-1] / chunks)) + 1 for c in range(1, chunks)]


@pytest.fixture(params=[2, 3, 5])
def split(request, small_blocks):
    """The one pair walk, on blocks of 64 entries, read as `param` chunks: runs of its row blocks cut as in _chunk_cuts.

    Returns the chunk count and small_blocks' list of the (i0, i1) of every block a walk makes.
    """
    return request.param, small_blocks


class TestSplitWalk:
    """What the first chunk of row blocks finds, or fails to find, carries over to the later chunks of the one walk."""

    WHICH = ("rh1", "ainf", "rhp", "ap")

    def test_finite_value_only_in_a_later_chunk_is_found(self, split, sqrt_weight, monkeypatch):
        chunks, blocks = split
        kind, exponent, combine = constants._SCANS["ainf"]
        pts = _grid_points(_centred(sqrt_weight)[0], 51)
        cut = _chunk_cuts(len(pts), chunks)[1]

        def nan_in_first_chunk(aw, r, law, p):  # a lone ainf is not ranked: one combine per block, after its spy
            combine(aw, r, law, p)
            if blocks[-1][0] < cut:
                r[...] = np.nan

        monkeypatch.setitem(constants._SCANS, "ainf", (kind, exponent, nan_in_first_chunk))
        value, iv = compute_report(sqrt_weight, 51, ("ainf",)).ainf
        ratio, _ = _dense_scan("ainf", _centred(sqrt_weight)[0], 51)
        first = max(i1 for i0, i1 in blocks if i0 < cut)
        ratio[:first] = -np.inf
        i, j = divmod(int(np.argmax(ratio)), ratio.shape[1])
        assert (value, iv.a, iv.b) == (ratio[i, j], pts[i], pts[j]) and iv.a >= pts[cut]
        assert 1 < sum(i0 < cut for i0, _ in blocks) < len(blocks)

    def test_chunks_share_one_running_best(self, split, monkeypatch):
        # a singular spike at 0 glued to a constant: the largest ratios lie on row 0, in the first chunk, and
        # every pair in the constant tail ties near 1, below them.  The best found there skips each ranked
        # block of every later chunk; without the skip (a band of +inf) they are combined
        chunks, blocks = split
        w = Weight((PowerPiece(Interval(0.0, 0.0625), 1.0, -0.8), PowerPiece(Interval(0.0625, 1.0), 0.0625**-0.8, 0.0)))
        pts = _grid_points(_centred(w)[0], 201)
        cuts = _chunk_cuts(len(pts), chunks)
        combined, pair_walk = [], constants._pair_walk

        def later_walk(labels, pts, per_pair, block, *args):
            def later(i0, i1, dead):
                for s, ratio, exact in block(i0, i1, dead):
                    if exact is not None and i0 >= cuts[1]:  # a ranked block of a later chunk
                        exact = lambda band, exact=exact: combined.append(i0) or exact(band)
                    yield s, ratio, exact

            return pair_walk(labels, pts, per_pair, later, *args)

        monkeypatch.setattr(constants, "_pair_walk", later_walk)
        report = compute_report(w, 201, self.WHICH, (2.37,))
        assert pts[cuts[1]] > 0.0625  # the later chunks' rows lie in the tail
        later = [{i0 for i0, _ in blocks if a <= i0 < b} for a, b in zip(cuts[1:], cuts[2:] + [len(pts)])]
        assert combined == [] and all(len(rows) > 10 for rows in later)
        monkeypatch.setattr(constants, "_BAND", math.inf)
        assert compute_report(w, 201, self.WHICH, (2.37,)) == report and set(combined) == set().union(*later)


class TestBlockWalk:
    WHICH = ("rh1", "ainf", "rhp", "ap")

    def test_full_blocks_match_dense_reference(self, corpus):
        # at R = 801 the four ranked constants walk several real blocks of _SCAN_BLOCK_ENTRIES
        glued = Weight((PowerPiece(Interval(0.0, 0.3), 1.0, -0.9), PowerPiece(Interval(0.3, 1.0), 0.3**-0.9, 0.0)))
        for w in (corpus[3], glued):
            w = _centred(w)[0]
            n = len(_grid_points(w, 801))
            assert n * (n - 1) // 2 // _SCAN_BLOCK_ENTRIES >= 8
            rep = compute_report(w, 801, self.WHICH, (3.0,))
            got = {"rh1": rep.rh1, "ainf": rep.ainf, "rhp": rep.rh_p[3.0], "ap": rep.a_p[3.0]}
            for name, (value, iv) in got.items():
                ratio, pts = _dense_scan(name, w, 801, 3.0)
                i, j = divmod(int(np.argmax(ratio)), ratio.shape[1])
                assert (value, iv.a, iv.b) == (ratio[i, j], pts[i], pts[j]), name


def _numpy_state():
    return np.getbufsize(), np.geterr()


@pytest.mark.parametrize("split", [1, 2, 5], indirect=True)  # the walk read as one chunk, or as the split fixture's
class TestCallerNumpyState:
    """The pair walk sets its own ufunc buffer size and error state for the whole walk; the caller's are as they were."""

    WHICH = ("rh1", "ainf", "rhp", "ap")
    WALK_STATE = (16, {"divide": "ignore", "over": "ignore", "under": "ignore", "invalid": "ignore"})

    @pytest.fixture(autouse=True)
    def walk_states(self, split, monkeypatch):
        """The numpy state in force at the block that starts each chunk of every walk, one list per walk."""
        chunks, _ = split
        states, pair_walk = [], constants._pair_walk

        def spy_walk(labels, pts, per_pair, block, *args):
            cuts, walk = _chunk_cuts(len(pts), chunks), []
            states.append(walk)

            def spy(i0, i1, dead):
                if any(i0 <= c < i1 for c in cuts):
                    walk.append(_numpy_state())
                return block(i0, i1, dead)

            return pair_walk(labels, pts, per_pair, spy, *args)

        monkeypatch.setattr(constants, "_pair_walk", spy_walk)
        return states

    def _walked(self, states, chunks):
        return states and all(len(walk) == chunks and walk.count(self.WALK_STATE) == chunks for walk in states)

    def test_restored_when_the_report_returns(self, corpus, split, walk_states):
        with np.errstate(under="warn"):  # not numpy's default
            state = _numpy_state()
            compute_report(corpus[3], 101, self.WHICH, (1.5, 3.0))
            assert _numpy_state() == state
        assert self._walked(walk_states, split[0])

    def test_restored_when_the_scan_raises(self, split, walk_states):
        w = step_weight((0.0, 0.5, 1.0), (5e-324, 1e308))
        state = _numpy_state()
        with pytest.raises(DomainError):
            compute_report(w, 51, self.WHICH, (1.5, 3.0))
        assert _numpy_state() == state
        assert self._walked(walk_states, split[0])

    def test_restored_when_a_block_raises(self, split, monkeypatch):
        chunks, blocks = split
        kind, exponent, combine = constants._SCANS["ainf"]
        cut = _chunk_cuts(len(_grid_points(constant_weight(2.0), 51)), chunks)[-1]

        def failing(*args):  # in the block that starts the last chunk
            if blocks[-1][0] >= cut:
                raise ZeroDivisionError("in a block")
            return combine(*args)

        monkeypatch.setitem(constants._SCANS, "ainf", (kind, exponent, failing))
        state = _numpy_state()
        with pytest.raises(ZeroDivisionError, match="in a block"):
            compute_report(constant_weight(2.0), 51, self.WHICH)
        assert _numpy_state() == state
        assert blocks[-1][0] == cut

    @pytest.mark.parametrize("bufsize", [16, 1 << 20])
    def test_caller_buffer_size_changes_no_bit(self, corpus, split, walk_states, bufsize):
        want = [compute_report(w, 51, self.WHICH, (1.5, 3.0)) for w in corpus[1:4]]
        size = np.setbufsize(bufsize)
        try:
            got = [compute_report(w, 51, self.WHICH, (1.5, 3.0)) for w in corpus[1:4]]
            assert np.getbufsize() == bufsize
        finally:
            np.setbufsize(size)
        assert got == want and self._walked(walk_states, split[0])


class TestEntropyAndFlatness:
    def test_constant_weight_is_flat(self):
        w = constant_weight(4.0)
        v, _ = rh1_constant(w, resolution=51)
        assert v == pytest.approx(0.0, abs=1e-13)
        v, _ = ainf_constant(w, resolution=51)
        assert v == pytest.approx(1.0, abs=1e-13)

    def test_linear_weight_values(self, linear):
        # both functionals are scale invariant for pure powers, so the grid
        # attains the supremum exactly on every [0, x]
        v, iv = rh1_constant(linear, resolution=51)
        assert v == pytest.approx(RH1_LINEAR, abs=1e-12)
        assert iv.a == 0.0
        v, _ = ainf_constant(linear, resolution=51)
        assert v == pytest.approx(math.e / 2.0, abs=1e-12)

    def test_sqrt_weight_value(self, sqrt_weight):
        v, _ = rh1_constant(sqrt_weight, resolution=201)
        assert v == pytest.approx(RH1_SQRT, abs=1e-13)

    def test_scaling_invariance(self, sqrt_weight):
        base_rh1, _ = rh1_constant(sqrt_weight, resolution=101)
        base_ainf, _ = ainf_constant(sqrt_weight, resolution=101)
        for c in (0.1, 7.0, 1000.0):
            wc = rescale(sqrt_weight, c)
            v, _ = rh1_constant(wc, resolution=101)
            assert v == pytest.approx(base_rh1, abs=1e-10)
            v, _ = ainf_constant(wc, resolution=101)
            assert v == pytest.approx(base_ainf, abs=1e-10)

    def test_grid_refinement_monotone_on_nested_grids(self, corpus):
        # 51, 101, 201 points give nested grids (50 | 100 | 200), so the
        # scanned supremum cannot decrease under refinement
        w = corpus[7]
        vals = [rh1_constant(w, resolution=r)[0] for r in (51, 101, 201)]
        assert vals[0] <= vals[1] + 1e-9
        assert vals[1] <= vals[2] + 1e-9

    def test_truncation_never_increases_constants(self, corpus):
        for w in corpus[:6]:
            rh1_w, _ = rh1_constant(w, resolution=101)
            ainf_w, _ = ainf_constant(w, resolution=101)
            for n in (2.0, 10.0):
                wn = truncate(w, n)
                v, _ = rh1_constant(wn, resolution=101)
                assert v <= rh1_w + 1e-6
                v, _ = ainf_constant(wn, resolution=101)
                assert v <= ainf_w + 1e-6


def _mp_ratio(name, w, a, b):
    """rh1 or ainf of w on [a, b] from the closed-form integrals at 60 digits."""
    with mpmath.workdps(60):
        xlogx = lambda t: t * mpmath.log(t) if t > 0 else mpmath.mpf(0)
        iw = iwlw = ilw = mpmath.mpf(0)
        for piece in w.pieces:
            s = mpmath.mpf(max(a, piece.support.a))
            e = mpmath.mpf(min(b, piece.support.b))
            if e <= s:
                continue
            c, alpha = mpmath.mpf(piece.coeff), mpmath.mpf(piece.exponent)
            a1 = alpha + 1  # nonzero on every piece used here
            power = lambda t: t**a1 / a1 if t > 0 else mpmath.mpf(0)  # int t^alpha
            power_log = lambda t: t**a1 * (mpmath.log(t) / a1 - 1 / a1**2) if t > 0 else mpmath.mpf(0)
            iw += c * (power(e) - power(s))
            iwlw += c * mpmath.log(c) * (power(e) - power(s)) + c * alpha * (power_log(e) - power_log(s))
            ilw += (e - s) * mpmath.log(c) + alpha * (xlogx(e) - xlogx(s) - (e - s))
        length = mpmath.mpf(b) - mpmath.mpf(a)
        aw = iw / length
        if name == "rh1":
            return float(iwlw / length / aw - mpmath.log(aw))
        return float(aw * mpmath.exp(-ilw / length))


class TestNearCriticalInteriorPiece:
    @pytest.mark.parametrize("margin", [-1e-9, 1e-9, 1e-12])
    def test_scan_matches_mpmath(self, margin):
        # 1 on [0, 0.1], then continuous t^(-1 + margin); the old global
        # antiderivative differenced ~1/margin there and read rh1 ~ 3e4
        alpha = -1.0 + margin
        w = Weight(
            (
                PowerPiece(Interval(0.0, 0.1), 1.0, 0.0),
                PowerPiece(Interval(0.1, 1.0), 0.1**-alpha, alpha),
            )
        )
        for name, scan in (("rh1", rh1_constant), ("ainf", ainf_constant)):
            value, iv = scan(w, resolution=201)
            assert value == pytest.approx(_mp_ratio(name, w, iv.a, iv.b), rel=1e-12, abs=0.0), name


class TestCentring:
    def test_rescaled_to_the_ends_of_the_double_range(self):
        # every constant is scale-invariant: copies at 1e+-300 read as their parent
        for w in reference_corpus(count=8, seed=5):
            base = compute_report(w, 101, ("rh1", "ainf", "rhp", "ap"), (1.7,))
            for scale in (1e-300, 1e300):
                got = compute_report(rescale(w, scale), 101, ("rh1", "ainf", "rhp", "ap"), (1.7,))
                for want, have in ((base.rh1, got.rh1), (base.ainf, got.ainf),
                                   (base.rh_p[1.7], got.rh_p[1.7]), (base.a_p[1.7], got.a_p[1.7])):
                    assert have[0] == pytest.approx(want[0], rel=1e-12, abs=1e-12)

    def test_nested_scans_centre_too(self):
        # subnormal coefficients keep few digits in every product with them
        w = step_weight((0.0, 0.4, 1.0), (1e-310, 3e-310))
        normal = rescale(w, 1e300)
        for scan, resolution in ((rh1_prime_constant, 16), (rh1_doubleprime_constant, 12)):
            want = scan(normal, resolution=resolution)[0]
            assert scan(w, resolution=resolution)[0] == pytest.approx(want, rel=1e-14, abs=0.0)


class TestAverageRatios:
    def test_linear_rhp(self, linear):
        v, _ = rhp_constant(linear, 2.0, resolution=51)
        assert v == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-12)

    def test_quarter_power_rhp(self):
        v, _ = rhp_constant(power_weight(1.0, 0.25), 2.0, resolution=101)
        assert v == pytest.approx(RHP_QUARTER_2, abs=1e-12)

    def test_rhp_nondecreasing_in_p(self, sqrt_weight):
        vals = [rhp_constant(sqrt_weight, p, resolution=51)[0] for p in (1.5, 2.0, 3.0)]
        assert vals[0] <= vals[1] + 1e-12
        assert vals[1] <= vals[2] + 1e-12

    def test_linear_a2_diverges(self, linear):
        v, _ = ap_constant(linear, 2.0, resolution=51)
        assert v == math.inf

    def test_sqrt_a2_value(self, sqrt_weight):
        v, _ = ap_constant(sqrt_weight, 2.0, resolution=51)
        assert v == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_ap_nonincreasing_in_p(self, sqrt_weight):
        vals = [ap_constant(sqrt_weight, p, resolution=51)[0] for p in (1.8, 2.0, 3.0)]
        assert vals[0] >= vals[1] - 1e-12
        assert vals[1] >= vals[2] - 1e-12

    def test_p_validation(self, sqrt_weight):
        with pytest.raises(ParameterError):
            rhp_constant(sqrt_weight, 1.0, resolution=11)
        with pytest.raises(ParameterError):
            ap_constant(sqrt_weight, 0.9, resolution=11)


class TestMaximalFunction:
    def test_linear_endpoints(self, linear):
        iv = Interval(0.0, 1.0)
        assert maximal_function(linear, iv, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert maximal_function(linear, iv, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_constant_weight(self):
        w = constant_weight(3.0)
        assert maximal_function(w, Interval(0.0, 1.0), 0.4) == pytest.approx(3.0, rel=1e-14)

    def test_dominates_pointwise_value(self, sqrt_weight):
        iv = Interval(0.0, 1.0)
        for t in (0.2, 0.5, 0.9):
            m = maximal_function(sqrt_weight, iv, t)
            assert m >= math.sqrt(t) - 1e-12

    def test_outside_interval_rejected(self, linear):
        with pytest.raises(DomainError):
            maximal_function(linear, Interval(0.5, 1.0), 0.2)

    def test_rh1_prime_regression(self, linear):
        v, iv = rh1_prime_constant(linear, resolution=200)
        assert isinstance(v, float)
        assert 1.0 <= v <= 2.0
        assert v == pytest.approx(RH1_PRIME_LINEAR_200, rel=1e-12)

    def test_rh1_prime_constant_weight_is_one(self):
        v, _ = rh1_prime_constant(constant_weight(2.0), resolution=24)
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_rh1_prime_skips_nan_ratios(self):
        # 5e-324 t underflows in the cumulative moment, so avg(w) is 0 on [0, 0.5]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v, iv = rh1_prime_constant(step_weight((0.0, 0.5, 1.0), (5e-324, 1e308)), resolution=12)
        assert (v, iv) == (2.9500000000000006, Interval(0.0, 0.5454545454545454))

    def test_rh1_prime_without_a_finite_ratio_raises(self, monkeypatch):
        # avg(w) = 0 on every interval: each ratio is avg(M) / 0 = inf
        monkeypatch.setattr(constants, "cumulative_moment", lambda w, pts, kind: np.zeros_like(pts))
        with pytest.raises(DomainError, match="rh1_prime"):
            rh1_prime_constant(constant_weight(2.0), resolution=8)


class TestMaximalRowPass:
    def test_matches_the_recurrence(self, corpus):
        for w in corpus:
            for resolution in (12, 16, 32, 64):
                ratio, pts = _rh1_prime_recurrence(w, resolution)
                i, j = divmod(int(np.argmax(ratio)), ratio.shape[1])
                value, iv = rh1_prime_constant(w, resolution)
                assert value == pytest.approx(ratio[i, j], rel=1e-15, abs=0.0)
                if (iv.a, iv.b) != (pts[i], pts[j]):
                    # only on a constant weight, where every ratio is 1 up to rounding
                    assert np.all(np.abs(ratio[np.isfinite(ratio)] - 1.0) < 1e-14), (w, resolution)

    def test_tied_maxima_in_different_row_blocks_keep_first(self):
        # two equal spikes 5/8 apart on a dyadic grid: every average and cell
        # sum is the same on an interval and on its translate, so the best
        # interval about the first spike ties with the one about the second
        a, b, d = 5 / 32, 25 / 32, 1 / 256
        w = step_weight((0.0, a, a + d, b, b + d, 1.0), (1.0, 4.0, 1.0, 4.0, 1.0))
        ratio, pts = _rh1_prime_recurrence(w, 33)
        rows, cols = np.nonzero(ratio == ratio.max())
        first_block_rows = _SCAN_BLOCK_ENTRIES // (len(pts) - 1) ** 2  # a pair spans up to n - 1 cells
        assert rows[0] < first_block_rows <= rows[-1]
        assert rh1_prime_constant(w, 33) == (ratio.max(), Interval(pts[rows[0]], pts[cols[0]]))

    def test_traced_peak_memory_is_bounded(self, corpus):
        # a block pass holds a few arrays of one left end's (R - p)^2 entries, or more left ends' up to
        # _SCAN_BLOCK_ENTRIES: about 1 MiB at the cap of 200
        tracemalloc.start()
        try:
            rh1_prime_constant(corpus[3], 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_every_constant_returns_a_python_float(self, sqrt_weight):
        found = [
            rh1_constant(sqrt_weight, 21),
            ainf_constant(sqrt_weight, 21),
            rhp_constant(sqrt_weight, 2.0, 21),
            ap_constant(sqrt_weight, 2.0, 21),
            rh1_prime_constant(sqrt_weight, 12),
            rh1_doubleprime_constant(sqrt_weight, 12),
        ]
        assert [type(value) for value, _ in found] == [float] * 6


class TestOrliczNorms:
    def test_l_norm_is_average(self, linear):
        lam = luxemburg_norm(linear, Interval(0.0, 1.0), OrliczKind.L)
        assert lam == pytest.approx(0.5, rel=1e-10)

    def test_llogl_constant(self):
        lam = luxemburg_norm(constant_weight(1.0), Interval(0.0, 1.0), OrliczKind.LLOGL)
        assert lam == pytest.approx(LUX_LLOGL_CONST, abs=1e-9)
        # first-degree homogeneity
        lam3 = luxemburg_norm(constant_weight(3.0), Interval(0.0, 1.0), OrliczKind.LLOGL)
        assert lam3 == pytest.approx(3.0 * LUX_LLOGL_CONST, abs=1e-8)

    def test_exp_constant(self):
        lam = luxemburg_norm(constant_weight(1.0), Interval(0.0, 1.0), OrliczKind.EXP_MINUS_ONE)
        assert lam == pytest.approx(LUX_EXP_CONST, abs=1e-9)

    def test_exp_norm_of_near_indicator(self):
        w = step_weight((0.0, 0.5, 1.0), (1.0, 1e-12))
        lam = luxemburg_norm(w, Interval(0.0, 1.0), OrliczKind.EXP_MINUS_ONE)
        assert lam == pytest.approx(LUX_EXP_CHI, abs=1e-9)

    @pytest.mark.parametrize(
        "kind, root",
        [(OrliczKind.LLOGL, LUX_LLOGL_CONST), (OrliczKind.EXP_MINUS_ONE, LUX_EXP_CONST)],
        ids=["LlogL", "expL-1"],
    )
    def test_norm_on_a_subnormal_piece(self, kind, root):
        # w is constant c on [0, 0.4], so the norm is c times the norm of 1,
        # rounded to the subnormal grid; avg(w) underflowed to 0 uncentred
        for c in (5e-324, 3e-310):
            w = step_weight((0.0, 0.5, 1.0), (c, 1e308))
            lam = luxemburg_norm(w, Interval(0.0, 0.4), kind)
            assert abs(lam - c * root) <= 5e-324, c

    def test_normal_range_norms_unchanged(self, corpus):
        for (k, c), want in LUX_CORPUS_07.items():
            w = rescale(corpus[k], c)
            got = tuple(luxemburg_norm(w, Interval(a, 0.7), kind) for a, kind in (
                (0.0, OrliczKind.LLOGL), (0.1, OrliczKind.LLOGL), (0.1, OrliczKind.EXP_MINUS_ONE)))
            assert got == want, (k, c)

    def test_rh1_doubleprime_constant_weight(self):
        # the L log L / L ratio of a constant is the fixed norm of 1
        v, _ = rh1_doubleprime_constant(constant_weight(5.0), resolution=16)
        assert v == pytest.approx(LUX_LLOGL_CONST, abs=1e-8)

    def test_rh1_doubleprime_regression(self, linear):
        v, _ = rh1_doubleprime_constant(linear, resolution=200)
        assert v == pytest.approx(RH1_DOUBLEPRIME_LINEAR_200, rel=1e-10)


def _mp_llogl_g(alpha, lam):
    """avg over [0, 1] of Phi(t^alpha / lam), Phi(s) = s log(e + s), -1 < alpha < 0.

    t = v^(1 / a1), a1 = alpha + 1, makes t^alpha dt = dv / a1; with K = 1 / lam
    and beta = -alpha / a1 the average is
    (log K + beta + int_0^1 log1p(e v^beta / K) dv) / (a1 lam), whose last
    integrand is bounded; mpmath takes it on either side of its knee
    e v^beta = K.  A direct quadrature over t misreads it near alpha = -1.
    """
    a1, beta, K = 1 + alpha, -alpha / (1 + alpha), 1 / lam
    knee = (mpmath.e / K) ** (-1 / beta)
    inner = mpmath.quad(lambda v: mpmath.log1p(mpmath.e * v**beta / K), [0, knee, 1])
    return (mpmath.log(K) + beta + inner) / (a1 * lam)


def _mp_llogl_root(alpha, lo, hi, rtol):
    """Bisect g(lam) = 1 at 30 digits on a bracket [lo, hi] that it checks."""
    with mpmath.workdps(30):
        alpha, lo, hi = mpmath.mpf(alpha), mpmath.mpf(lo), mpmath.mpf(hi)
        assert _mp_llogl_g(alpha, lo) > 1 >= _mp_llogl_g(alpha, hi)
        while hi - lo > rtol * hi:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if _mp_llogl_g(alpha, mid) > 1 else (lo, mid)
        return hi


def _final_nodes(w, a, b, kind):
    """(nodes, shift) of luxemburg_norm's last solve: on the centred weight, placed at avg(w), and for
    expL-1 placed again at the first root."""
    iv = Interval(a, b)
    centred, shift = constants._centred(w, iv)
    lo, hi, lam = np.array([a]), np.array([b]), np.array([moment(centred, iv, MomentKind.AVG_W)])
    nodes = _orlicz_nodes(kind, centred, lo, hi, lam)
    if kind is OrliczKind.EXP_MINUS_ONE:
        root = constants._luxemburg_solve(lambda x: _orlicz_terms(kind, nodes, x), lam)
        nodes = _orlicz_nodes(kind, centred, lo, hi, root)
    return nodes, shift


class TestOrliczKernel:
    def test_panels_are_shared_and_read_only(self):
        # one 16-point rule on [0, 1] serves every panel of every piece
        nodes, weights = constants._GL_X, constants._GL_W
        assert not (nodes.flags.writeable or weights.flags.writeable)
        assert nodes.shape == weights.shape == (16,) and math.fsum(weights) == pytest.approx(1.0, abs=1e-15)
        assert 0.0 < nodes.min() and nodes.max() < 1.0

    @pytest.mark.parametrize("alpha", [-0.5, -0.9, -0.99, -0.999])
    def test_singular_power_matches_mpmath(self, alpha):
        # every [0, b] gives the ratio of [0, 1] for a pure power; the graded
        # quadrature read these 5e-7, 18%, 97% and 99.9% low
        value, iv = rh1_doubleprime_constant(power_weight(1.7, alpha), resolution=8)
        assert iv.a == 0.0
        lam = value / (1.0 + alpha)  # the norm of t^alpha on [0, 1]
        want = _mp_llogl_root(alpha, lam * (1 - 1e-12), lam * (1 + 1e-12), 1e-13)
        assert abs(lam - want) <= 1e-12 * want

    def test_corpus_values_without_a_singular_end_hold(self, corpus):
        for k, want in RH1_DOUBLEPRIME_CORPUS_24.items():
            assert corpus[k].pieces[0].exponent >= 0.0
            value, _ = rh1_doubleprime_constant(corpus[k], resolution=24)
            assert value == pytest.approx(want, rel=1e-13, abs=0.0), k

    @pytest.mark.parametrize("kind", [OrliczKind.LLOGL, OrliczKind.EXP_MINUS_ONE])
    def test_norm_is_least_lambda_with_g_at_most_one(self, kind):
        eps = np.finfo(float).eps
        glued = Weight((PowerPiece(Interval(0.0, 0.3), 1.0, -0.9), PowerPiece(Interval(0.3, 1.0), 0.3**-0.9, 0.0)))
        cases = [
            (constant_weight(1.0), 0.0, 1.0),
            (power_weight(2.0, 0.5), 0.0, 1.0),
            (power_weight(1.0, 3.0), 0.2, 1.0),
            (power_weight(1.0, 30.0), 0.0, 1.0),
            (step_weight((0.0, 0.999, 1.0), (1e-12, 1.0)), 0.0, 1.0),
            # expm1 overflows at avg(w) until lam has doubled 16 times
            (step_weight((0.0, 1e-6, 1.0), (1e6, 1e-3)), 0.0, 1.0),
            (glued, 0.1, 0.7),
        ]
        if kind is OrliczKind.LLOGL:
            cases += [(power_weight(1.0, -0.999), 0.0, 1.0), (glued, 0.0, 0.7)]
        for w, a, b in cases:
            nodes, shift = _final_nodes(w, a, b, kind)
            lam = math.ldexp(luxemburg_norm(w, Interval(a, b), kind), shift)
            g = lambda x: _orlicz_terms(kind, nodes, np.array([x]))[0][0]
            assert g(lam) <= 1.0 < g(lam * (1.0 - 8.0 * eps)), (w, a, b)

    def test_newton_step_past_the_double_range_falls_back(self):
        # centred, lam is near 1e308, where lam d overflowed; the stale infinite step then moved
        # hi down 4 ulp a probe, some 1e14 probes to the root
        w, iv = step_weight((0.0, 0.25, 1.0), (5e-324, 1e300)), Interval(0.0, 0.5)
        centred, shift = constants._centred(w, iv)
        nodes = _orlicz_nodes(OrliczKind.EXP_MINUS_ONE, centred, np.array([iv.a]), np.array([iv.b]),
                              np.array([moment(centred, iv, MomentKind.AVG_W)]))
        probes = []

        def terms(lam):
            probes.append(lam)
            assert len(probes) < 200
            return _orlicz_terms(OrliczKind.EXP_MINUS_ONE, nodes, lam)

        lam = constants._luxemburg_solve(terms, np.array([moment(centred, iv, MomentKind.AVG_W)]))
        assert math.ldexp(lam[0], -shift) == luxemburg_norm(w, iv, OrliczKind.EXP_MINUS_ONE)
        # avg (e^(w / lam) - 1) = 1 on [0, 1/2] where half of it is 1e300: lam = 1e300 / log 3
        assert luxemburg_norm(w, iv, OrliczKind.EXP_MINUS_ONE) == pytest.approx(1e300 / math.log(3.0), rel=1e-14)

    def test_interior_overlap_near_zero(self):
        # [1/199, 1] on t^-0.9: panels even in t read 1.6e-4 low here
        w = power_weight(1.0, -0.9)
        iv = Interval(1.0 / 199.0, 1.0)
        lam = luxemburg_norm(w, iv, OrliczKind.LLOGL)
        avg = moment(w, iv, MomentKind.AVG_W)
        with mpmath.workdps(30):
            g = lambda x: mpmath.quad(lambda t: t**-0.9 / x * mpmath.log(mpmath.e + t**-0.9 / x),
                                      [iv.a, 0.01, 0.1, 1]) / (1 - mpmath.mpf(iv.a))
            assert g(lam * (1 - 1e-13)) > 1 >= g(lam * (1 + 1e-13))
        assert lam / avg == pytest.approx(1.5918693636139571, rel=1e-13)

    def test_traced_peak_memory_is_bounded_in_pieces(self):
        # node arrays for every pair and piece at once: 227 and 134 MiB here.  One untraced scan
        # first: the first np.unique imports numpy.ma, about 1 MiB that is no scan's memory
        rh1_doubleprime_constant(constant_weight(1.0), resolution=2)
        peaks = []
        for w in (step_weight((0.0, 0.15, 0.3, 0.55, 0.8, 1.0), (1.0, 7.0, 0.3, 4.0, 2.0)), power_weight(1.0, 1.0)):
            tracemalloc.start()
            try:
                rh1_doubleprime_constant(w, resolution=200)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 32 * 2**20
        assert peaks[0] <= 1.5 * peaks[1]

    def test_larger_blocks_change_no_bit(self, corpus, monkeypatch):
        # each pair's nodes and solve are its own, so blocks of 1/8 the entries read the same bits
        got = [_outcome(rh1_doubleprime_constant, w, (12, 18, 24)[k % 3]) for k, w in enumerate(corpus)]
        monkeypatch.setattr(constants, "_SCAN_BLOCK_ENTRIES", _SCAN_BLOCK_ENTRIES // 8)
        assert got == [_outcome(rh1_doubleprime_constant, w, (12, 18, 24)[k % 3]) for k, w in enumerate(corpus)]

    def test_nan_average_is_masked(self):
        # 5e-324 t underflows in the cumulative moment, so avg(w) is 0 on [0, 0.5]
        value, iv = rh1_doubleprime_constant(step_weight((0.0, 0.5, 1.0), (5e-324, 1e308)), resolution=12)
        assert math.isfinite(value) and iv.b > 0.5


def _sqrt_head(d):
    """{1 on [0, d], t^-1/2 on [d, 1]}."""
    return Weight((PowerPiece(Interval(0.0, d), 1.0, 0.0), PowerPiece(Interval(d, 1.0), 1.0, -0.5)))


# name -> (weight, interval, kind, reference norm, relative tolerance); an Interval as the reference
# is the same norm on that interval.  The heads, the spans with alpha < 0, the narrow intervals and
# the expL-1 heads read wrong with exit 0 under the three earlier layouts; the two tail cases guard
# the closed-form part past w = 2^64 lam.
LLOGL, EXPL1 = OrliczKind.LLOGL, OrliczKind.EXP_MINUS_ONE
ORLICZ_LAYOUT_CASES = {
    **{f"llogl-head-{d:g}": (_sqrt_head(d), Interval(0.0, 1.0), LLOGL, LUX_LLOGL_SQRT, 1e-14)
       for d in (5e-324, 1e-300, 1e-100, 1e-40)},
    # the head's share of the mass is below 1e-29 for every alpha; for alpha > 0 the nodes stop at 40 beta
    **{f"span-1e-300-alpha-{alpha:g}": (power_weight(1.0, alpha), Interval(1e-300, 1.0), LLOGL, Interval(0.0, 1.0),
                                         1e-14) for alpha in (-0.9, -0.5, 0.5, 3.0, 30.0)},
    **{f"narrow-alpha-{alpha:g}-at-{a:g}": (power_weight(1.0, alpha), Interval(a, a + h), LLOGL, want, 1e-14)
       for (alpha, a, h), want in LUX_NARROW.items()},
    **{f"expl1-head-{d:g}": (_sqrt_head(d), Interval(0.0, 1.0), EXPL1, want, 1e-12)
       for d, want in LUX_EXP_SQRT_HEAD.items()},
    "tail-from-0": (Weight((PowerPiece(Interval(0.0, 1e-40), 1.0, -0.5), PowerPiece(Interval(1e-40, 1.0), 1e-30, 0.0))),
                    Interval(0.0, 1.0), LLOGL, LUX_TAIL_FROM_0, 1e-14),
    # w passes the double range from 0 where alpha < -0.946, so only the tail reaches it
    "tail-alpha-0.99": (power_weight(1.0, -0.99), Interval(0.0, 1.0), LLOGL, LUX_LLOGL_POWER_099, 1e-12),
}


def _layout_miss(name):
    """A case's relative error over its tolerance; inf where the norm is refused."""
    w, iv, kind, want, rtol = ORLICZ_LAYOUT_CASES[name]
    if isinstance(want, Interval):
        want = luxemburg_norm(w, want, kind)
    try:
        got = luxemburg_norm(w, iv, kind)
    except DomainError:
        return math.inf
    return abs(got / want - 1.0) / rtol


class TestOrliczLayout:
    @pytest.mark.parametrize("name", list(ORLICZ_LAYOUT_CASES))
    def test_norm_matches_reference(self, name):
        assert _layout_miss(name) <= 1.0

    @pytest.mark.parametrize("mutation", ["half-panels", "no-tail"])
    def test_negative_control(self, mutation, monkeypatch):
        if mutation == "half-panels":
            count = constants._panel_count
            monkeypatch.setattr(constants, "_panel_count", lambda kind, w: count(kind, w) // 2)
        else:
            monkeypatch.setattr(constants, "_TAIL", math.inf)
        assert max(map(_layout_miss, ORLICZ_LAYOUT_CASES)) > 1.0


class TestLimitCheck:
    def test_constant_weight_limits_to_zero(self):
        lhs, rhs = rh1_limit_check(constant_weight(2.0), Interval(0.0, 1.0), 1.01)
        assert lhs == pytest.approx(0.0, abs=1e-10)
        assert rhs == pytest.approx(0.0, abs=1e-13)

    def test_linear_weight_converges_from_above(self, linear):
        iv = Interval(0.0, 1.0)
        gaps = []
        for p in (1.1, 1.01, 1.001):
            lhs, rhs = rh1_limit_check(linear, iv, p)
            assert rhs == pytest.approx(RH1_LINEAR, abs=1e-13)
            gaps.append(abs(lhs - RH1_LINEAR))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] <= 2e-4

    def test_p_range_enforced(self, linear):
        iv = Interval(0.0, 1.0)
        with pytest.raises(ParameterError):
            rh1_limit_check(linear, iv, 1.0)
        with pytest.raises(ParameterError):
            rh1_limit_check(linear, iv, 2.0)

    def test_divergent_average_rejected(self):
        w = power_weight(1.0, -0.9)
        with pytest.raises(DomainError):
            rh1_limit_check(w, Interval(0.0, 1.0), 1.5)

    def test_underflowing_average_rejected(self):
        # avg(w^1.5) of 5e-324 underflows to 0, whose log raised ValueError
        with pytest.raises(DomainError):
            rh1_limit_check(constant_weight(5e-324), Interval(0.0, 1.0), 1.5)


class TestReport:
    def test_default_report_fields(self, sqrt_weight):
        rep = compute_report(sqrt_weight, resolution=51)
        assert rep.resolution == 51
        assert rep.rh1 is not None and rep.ainf is not None
        assert rep.rh_p == {} and rep.a_p == {}
        assert rep.rh1_prime is None and rep.rh1_doubleprime is None

    def test_selected_constants(self, sqrt_weight):
        rep = compute_report(
            sqrt_weight,
            resolution=51,
            which=("rhp", "ap"),
            p_values=(1.5, 2.0),
        )
        assert set(rep.rh_p) == {1.5, 2.0}
        assert set(rep.a_p) == {1.5, 2.0}
        assert rep.rh1 is None

    def test_unknown_name_rejected(self, sqrt_weight):
        with pytest.raises(ParameterError):
            compute_report(sqrt_weight, which=("nope",))
