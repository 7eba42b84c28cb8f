import math
import tracemalloc

import numpy as np
import pytest

from weightlab import (
    DomainError,
    Interval,
    MomentKind,
    OrliczKind,
    ParameterError,
    ainf_constant,
    ap_constant,
    compute_report,
    constant_weight,
    cumulative_moment,
    luxemburg_norm,
    maximal_function,
    power_weight,
    rescale,
    rh1_constant,
    rh1_doubleprime_constant,
    rh1_limit_check,
    rh1_prime_constant,
    rhp_constant,
    step_weight,
    truncate,
)
from weightlab.constants import _SCAN_BLOCK_ENTRIES, _grid_points, _scan

from _frozen import (
    LUX_EXP_CHI,
    LUX_EXP_CONST,
    LUX_LLOGL_CONST,
    RH1_LINEAR,
    RH1_PRIME_LINEAR_200,
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
        with np.errstate(invalid="ignore", divide="ignore"):
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

    def test_traced_peak_memory_is_bounded(self, corpus):
        # the dense scan held about six (R + k)^2 float matrices: 157 MiB here
        tracemalloc.start()
        try:
            compute_report(corpus[3], resolution=2001, which=("rh1", "ainf", "rhp", "ap"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


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

    def test_rh1_doubleprime_constant_weight(self):
        # the L log L / L ratio of a constant is the fixed norm of 1
        v, _ = rh1_doubleprime_constant(constant_weight(5.0), resolution=16)
        assert v == pytest.approx(LUX_LLOGL_CONST, abs=1e-8)

    def test_rh1_doubleprime_regression(self, linear):
        v, _ = rh1_doubleprime_constant(linear, resolution=200)
        assert v == pytest.approx(RH1_DOUBLEPRIME_LINEAR_200, rel=1e-10)


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
