import dataclasses
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weightlab import DomainError, ParameterError, selftest, solvers

from _frozen import (
    EPS_MINUS_1,
    GAMMA_MINUS_1,
    GAMMA_PLUS_1,
    FUNNY_BOUND_1,
    GAMMA_LOG_RESULTS,
    GEHRING_DIM_1_1,
)

mpmath.mp.dps = 40


def mp_root(f, a, b):
    return float(mpmath.findroot(f, (mpmath.mpf(a), mpmath.mpf(b)), solver="bisect", tol=1e-35))


class TestGammaLog:
    def test_frozen_value_at_e(self):
        res = solvers.gamma_log(math.e)
        assert res.root == pytest.approx(GAMMA_MINUS_1, abs=1e-14)
        assert abs(res.residual) <= 1e-12

    def test_matches_mpmath_on_sample(self):
        for q in (1.2, 3.0, 17.0, 400.0):
            want = mp_root(lambda t: t - mpmath.log(t) - 1 - mpmath.log(q), 1e-200, 0.9999)
            got = solvers.gamma_log(q).root
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("q", [10.0, 1e4, 1e16, 1e100, 1e200, 1e300])
    def test_large_q_within_an_ulp_of_60_digits(self, q):
        # the root ~ e^{-1-log q} must not inherit the rounding of log q
        with mpmath.workdps(60):
            want = -mpmath.lambertw(-mpmath.exp(-1 - mpmath.log(mpmath.mpf(q))), 0)
            rel = abs((solvers.gamma_log(q).root - want) / want)
        assert rel <= 2.5e-16

    def test_root_result_bits_are_frozen(self):
        # the fixed-point step in q moved into the kernel without moving a bit
        for q, root, residual, bracket, iterations in GAMMA_LOG_RESULTS:
            assert repr(solvers.gamma_log(q)) == repr(solvers.RootResult(root, residual, bracket, iterations))

    def test_root_in_open_unit_interval(self):
        for q in np.geomspace(1.001, 1e8, 40):
            r = solvers.gamma_log(float(q))
            assert 0.0 < r.root < 1.0
            assert abs(r.residual) <= 1e-10

    def test_bracket_holds_the_root(self):
        # past q ~ 7.8e13 the fixed-point step moved t below the bracket of the rounded log q
        for q in np.geomspace(1e13, 1e300, 2000):
            r = solvers.gamma_log(float(q))
            assert r.bracket[0] <= r.root <= r.bracket[1], q

    def test_selftest_checks_bracket_membership(self, monkeypatch):
        real = solvers.gamma_log
        monkeypatch.setattr(solvers, "gamma_log", lambda q: dataclasses.replace(real(q), bracket=(0.0, 0.0)))
        ok, detail = selftest.invariants_solvers()
        assert not ok and "or its bracket" in detail

    def test_rejects_q_at_most_one(self):
        with pytest.raises(ParameterError):
            solvers.gamma_log(1.0)
        with pytest.raises(ParameterError):
            solvers.gamma_log(0.3)


class TestGammaEntropy:
    def test_frozen_pair_at_one(self):
        minus, plus = solvers.gamma_entropy_roots(1.0)
        assert minus.root == pytest.approx(GAMMA_MINUS_1, abs=1e-14)
        assert plus.root == pytest.approx(GAMMA_PLUS_1, abs=2e-13)
        assert abs(minus.residual) <= 1e-12
        assert abs(plus.residual) <= 1e-12

    def test_ordering_and_residuals(self):
        for q in np.geomspace(0.01, 500.0, 40):
            minus, plus = solvers.gamma_entropy_roots(float(q))
            assert 0.0 < minus.root < 1.0 < plus.root
            assert abs(minus.residual) <= 1e-10
            assert abs(plus.residual) <= 1e-10 * max(1.0, plus.root)

    def test_small_root_asymptotics(self):
        # gamma_minus ~ e^{-(q+1)} for large q
        q = 30.0
        minus, _ = solvers.gamma_entropy_roots(q)
        assert minus.root == pytest.approx(math.exp(-(q + 1.0)), rel=1e-10)

    def test_huge_q_raises_instead_of_underflowing(self):
        with pytest.raises(ParameterError):
            solvers.gamma_entropy_roots(800.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            solvers.gamma_entropy_roots(0.0)


class TestEpsMinus:
    def test_frozen_value_at_one(self):
        res = solvers.eps_minus(1.0)
        assert res.root == pytest.approx(EPS_MINUS_1, abs=1e-14)
        assert abs(res.residual) <= 1e-12

    def test_reciprocal_identity_with_gamma_plus(self):
        # eps_minus(q) * (gamma_plus(q) - 1) = 1: substituting u = 1/eps turns
        # one defining equation into the other.  Both come from the same root
        # kernel, so eps is taken from mpmath on eps's own equation instead.
        for q in np.geomspace(0.05, 50.0, 25):
            want = 1.0 / mp_root(lambda u: u - mpmath.log1p(u) - q, q, 2.0 * q + 1.0)
            gp = solvers.gamma_entropy_roots(float(q))[1].root
            assert want * (gp - 1.0) == pytest.approx(1.0, abs=1e-10)
            assert solvers.eps_minus(float(q)).root == pytest.approx(want, rel=1e-13)

    def test_monotone_decreasing_in_q(self):
        vals = [solvers.eps_minus(q).root for q in (0.5, 1.0, 2.0, 5.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_extreme_q_against_mpmath(self):
        # eps ~ 1/sqrt(2q) for tiny q and ~1/q for huge q; for 1e-16 < q < 1e-6
        # u = 1/eps sits near the kernel's double root
        for q in (1e-40, 1e-12, 1e-8, 1e-6, 1e3, 1e300):
            with mpmath.workdps(120):
                f = lambda s: (mpmath.exp(s) - mpmath.log1p(mpmath.exp(s))) / q - 1
                want = float(mpmath.exp(-mpmath.findroot(f, mpmath.log(mpmath.sqrt(2 * q) + q))))
            assert solvers.eps_minus(q).root == pytest.approx(want, rel=1e-15, abs=0.0)


class TestGehringSharp:
    def test_closed_forms_at_p_two(self):
        assert solvers.gehring_sharp_eps(2.0, math.sqrt(2.0)).root == pytest.approx(
            math.sqrt(2.0) - 1.0, abs=1e-12
        )
        assert solvers.gehring_sharp_eps(2.0, 2.0).root == pytest.approx(
            (2.0 * math.sqrt(3.0) - 3.0) / 3.0, abs=1e-12
        )

    def test_strictly_decreasing_in_k(self):
        roots = [solvers.gehring_sharp_eps(2.0, k).root for k in (1.1, 1.3, 2.0, 5.0, 50.0)]
        assert all(a > b for a, b in zip(roots, roots[1:]))

    def test_k_at_most_one_gives_infinite_gain(self):
        assert solvers.gehring_sharp_eps(2.0, 1.0).root == math.inf
        assert solvers.gehring_sharp_eps(2.0, 0.7).root == math.inf

    def test_matches_mpmath(self):
        for p in (1.5, 2.0, 3.0, 5.0, 10.0):
            for k in (1.01, 1.1, 1.5, 2.0, 4.0):
                rhs = p / (p - 1) * mpmath.log(k)
                f = lambda e: mpmath.log((p + e - 1) / e) / (p - 1) - mpmath.log((p + e) / (p + e - 1)) - rhs
                got = solvers.gehring_sharp_eps(p, k).root
                want = mpmath.findroot(f, mpmath.mpf(got))
                assert abs(got - want) <= 2e-15 * want, (p, k)

    # p = 3, k = 1e150 is left out: its root underflows, as the next test checks
    @pytest.mark.parametrize("k, p", [(k, p) for k in (1e50, 1e100, 1e150) for p in (1.5, 2.0, 3.0) if (k, p) != (1e150, 3.0)])
    def test_large_k_matches_60_digits(self, k, p):
        # bisection from 5e-324 in 600 steps stopped at 1.2e-181 for every root below it;
        # the bound is the rounding of p log k / (p - 1) times the root's sensitivity p - 1
        with mpmath.workdps(60):
            mp, rhs = mpmath.mpf(p), mpmath.mpf(p) / (p - 1) * mpmath.log(k)
            f = lambda u: mpmath.log1p((mp - 1) / mpmath.exp(u)) / (mp - 1) - mpmath.log1p(1 / (mp + mpmath.exp(u) - 1)) - rhs
            want = float(mpmath.exp(mpmath.findroot(f, mpmath.log(mp - 1) - mp * mpmath.log(k))))
        got = solvers.gehring_sharp_eps(p, k).root
        assert abs(got - want) <= 4.0 * sys.float_info.epsilon * (1.0 + p * math.log(k)) * want

    def test_root_past_the_double_range_underflows_to_zero(self):
        # the root near (p - 1) ((p - 1)/p)^(p - 1) k^-p is 4e-451 at p = 3, k = 1e150
        res = solvers.gehring_sharp_eps(3.0, 1e150)
        assert res.root == 0.0 and abs(res.residual) <= 1e-12
        assert solvers.gehring_sharp_eps(2.0, 1e100).root == pytest.approx(5e-201, rel=1e-13)

    def test_residuals_small(self):
        for p in (1.5, 2.0, 4.0):
            for k in (1.2, 3.0, 10.0):
                res = solvers.gehring_sharp_eps(p, k)
                assert abs(res.residual) <= 1e-10
                assert res.root > 0.0


class TestDimensionalRoute:
    def test_exponent_value(self):
        assert solvers.gehring_dim_n_eps(1, 1.0) == pytest.approx(GEHRING_DIM_1_1, abs=1e-15)
        # closed form: log 4 / (n log 2 + 8 q)
        assert solvers.gehring_dim_n_eps(3, 2.0) == pytest.approx(
            math.log(4.0) / (3.0 * math.log(2.0) + 16.0), rel=1e-15
        )

    def test_exponent_decreases_in_n_and_q(self):
        assert solvers.gehring_dim_n_eps(1, 1.0) > solvers.gehring_dim_n_eps(2, 1.0)
        assert solvers.gehring_dim_n_eps(1, 1.0) > solvers.gehring_dim_n_eps(1, 2.0)

    def test_good_lambda_closure_is_negative(self):
        for n in (1, 2, 3):
            for q in (0.5, 1.0, 5.0):
                assert solvers.good_lambda_verify(n, q) < 0.0

    def test_good_lambda_gap_at_tiny_q(self):
        # below 8q = log 2 the margin log(1 - e^-8q) comes from expm1: at q = 1e-20
        # e^-8q rounds to 1, and log1p(-e^-8q) would be log1p(-1)
        for q in (0.08, 1e-3, 1e-9, 1e-20, 1e-300, 5e-324):
            with mpmath.workdps(40):
                Q = mpmath.mpf(q)
                want = mpmath.log(4) / (3 * mpmath.log(2) + 8 * Q) * mpmath.log(-mpmath.expm1(-8 * Q))
            assert solvers.good_lambda_verify(3, q) == pytest.approx(float(want), rel=4e-16), q
        assert solvers.good_lambda_verify(3, 1e-20) == pytest.approx(-29.31484021213406, rel=1e-15)

    def test_good_lambda_verify_checks_q_before_using_it(self):
        # log of a negative margin raised ValueError, exp(8e300) OverflowError
        for q in (-1.0, 0.0, -1e300, math.nan):
            with pytest.raises(ParameterError):
                solvers.good_lambda_verify(1, q)

    def test_good_lambda_params(self):
        alpha, beta = solvers.good_lambda_params(1.0)
        assert beta == 0.25
        assert alpha == pytest.approx(1.0 / (math.exp(8.0) - 1.0), rel=1e-14)

    def test_dimension_must_be_positive_integer(self):
        with pytest.raises(ParameterError):
            solvers.gehring_dim_n_eps(0, 1.0)
        with pytest.raises(ParameterError):
            solvers.gehring_dim_n_eps(-2, 1.0)

    def test_good_lambda_params_past_expm1_overflow(self):
        # expm1(8q) overflows past 8q = log(max double) ~ 709.78, where
        # 1/(e^8q - 1) rounds to e^-8q; below it the value is unchanged
        assert solvers.good_lambda_params(88.7) == (1.0 / math.expm1(8.0 * 88.7), 0.25)
        with mpmath.workdps(50):
            for q in (88.73, 90.0, 93.0):
                alpha, beta = solvers.good_lambda_params(q)
                want = 1 / mpmath.expm1(8 * mpmath.mpf(q))
                assert beta == 0.25 and 0.0 < alpha and abs(alpha - want) <= 2 * 5e-324 + 1e-15 * want
        for q in (708.9, 1e300, 1.7e308):
            assert solvers.good_lambda_params(q) == (0.0, 0.25)


class TestPGehringViaOne:
    def test_k_one_gives_48(self):
        bound, delta = solvers.p_gehring_via_one(1, 2.0, 1.0)
        assert bound == pytest.approx(48.0, rel=1e-14)
        assert delta > 0.0

    def test_bound_past_the_double_range_is_refused(self):
        # k**p and 2.0**p raised OverflowError
        for n, p, k in ((1, 2.0, 1e200), (5, 1e30, 2.0), (400, 2.0, 1.0)):
            with pytest.raises(DomainError):
                solvers.p_gehring_via_one(n, p, k)

    def test_bound_formula(self):
        n, p, k = 2, 1.5, 3.0
        bound, delta = solvers.p_gehring_via_one(n, p, k)
        want = 6.0**n * k**p * 2.0**p * p / (p - 1.0)
        assert bound == pytest.approx(want, rel=1e-14)
        assert delta == pytest.approx(p * solvers.eps_minus(bound).root, rel=1e-12)


class TestFunnyBound:
    def test_frozen_value(self):
        assert solvers.funny_bound(1.0) == pytest.approx(FUNNY_BOUND_1, abs=1e-11)

    def test_log_variant_consistent(self):
        for q in (0.3, 1.0, 4.0):
            assert solvers.funny_bound_log(q) == pytest.approx(
                math.log(solvers.funny_bound(q)), rel=1e-13
            )

    def test_log_variant_handles_overflow_range(self):
        # direct value overflows near q ~ 5.6 ... 710; the log form keeps going
        val = solvers.funny_bound_log(300.0)
        assert math.isfinite(val)
        assert val == pytest.approx(math.exp(301.0) - 302.0, rel=1e-10)

    @pytest.mark.parametrize("q", [708.8, 709.0, 743.0])
    def test_log_variant_refuses_an_overflowing_value(self, q):
        with pytest.raises(DomainError, match="overflows"):
            solvers.funny_bound_log(q)

    def test_log_variant_finite_up_to_the_overflow(self):
        assert solvers.funny_bound_log(708.0) == pytest.approx(math.exp(709.0), rel=1e-12)

    def test_asymptotic_ratio_row(self):
        for q, tol in ((3.0, 2.1e-2), (5.0, 2.6e-3), (8.0, 1.3e-4)):
            ratio = solvers.funny_bound_log(q) / (math.exp(q + 1.0) - q - 2.0)
            assert abs(ratio - 1.0) <= tol


def mp_branch_root(c1, upper):
    """(t, t - 1) for the root of t - log t = 1 + c1, from mpmath's Lambert W."""
    with mpmath.workdps(80):
        z = -mpmath.exp(-1 - mpmath.mpf(c1))
        t = mpmath.re(-mpmath.lambertw(z, -1 if upper else 0))
        return float(t), float(t - 1)


class TestBranchRootKernel:
    # c = 1 + c1 from 1 + 1e-12 up to 745 (lower) and 1e300 (upper)
    NEAR_C1 = np.concatenate([np.geomspace(1e-12, 1.0, 40), [4.1e-8, 1e-6]])
    LOWER_C1 = np.concatenate([NEAR_C1, np.geomspace(1.0, 744.0, 50)])
    UPPER_C1 = np.concatenate([NEAR_C1, np.geomspace(1.0, 1e300, 80)])

    @pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
    def test_matches_mpmath_within_four_steps(self, upper):
        for c1 in self.UPPER_C1 if upper else self.LOWER_C1:
            t, tm1, (lo, hi) = solvers._branch_root(float(c1), upper)
            want, want_m1 = mp_branch_root(float(c1), upper)
            # below e^-708 the root is subnormal and keeps fewer bits
            assert abs(t - want) <= 1e-15 * want + 5e-324, c1
            # relative, also near the double root t = 1, where t - 1 ~ sqrt(2 c1)
            assert abs(tm1 - want_m1) <= 1e-15 * abs(want_m1), c1
            assert lo * (1.0 - 1e-15) <= want <= hi * (1.0 + 1e-15)

    @pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
    def test_array_matches_scalar(self, upper):
        c1 = self.UPPER_C1 if upper else self.LOWER_C1
        t, tm1, (lo, hi) = solvers._branch_root(c1, upper)
        scalar = np.array([solvers._branch_root(float(c), upper)[:2] for c in c1])
        assert np.all(np.abs(t - scalar[:, 0]) <= 1e-15 * scalar[:, 0] + 5e-324)
        assert np.all(np.abs(tm1 - scalar[:, 1]) <= 1e-15 * np.abs(scalar[:, 1]))
        assert np.all((lo * (1.0 - 1e-15) <= t) & (t <= hi * (1.0 + 1e-15)))

    def test_double_root_at_c_one(self):
        for upper in (False, True):
            for c1 in (0.0, 5e-324, 1e-300):
                assert solvers._branch_root(c1, upper)[0] == 1.0


    @pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
    def test_edge_arrays_are_the_scalar_bits(self, upper):
        # 0, the least subnormal, the start table's end, past it and near the double range, with
        # no warning; but the upper t at 745, where numpy's exp rounds e^s one ulp off libm's
        edges = np.array([0.0, 5e-324, 745.0, 1e4, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t, tm1, _ = solvers._branch_root(edges, upper)
            alone = [solvers._branch_root(edges[k:k + 1], upper)[:2] for k in range(edges.size)]
        for k, c1 in enumerate(edges.tolist()):
            scalar = solvers._branch_root(c1, upper)[:2]
            t_alone, tm1_alone = float(alone[k][0][0]), float(alone[k][1][0])
            assert tm1_alone == scalar[1] and (t_alone == scalar[0] or upper and c1 == 745.0), c1
            assert abs(t_alone - scalar[0]) <= math.ulp(scalar[0])
            assert abs(t[k] - scalar[0]) <= 1e-15 * scalar[0] and abs(tm1[k] - scalar[1]) <= 1e-15 * abs(scalar[1])
            want, want_m1 = mp_branch_root(c1, upper)
            assert abs(scalar[0] - want) <= 1e-15 * want + 5e-324, c1
            # below 1e-80, 80 digits read c1 as 0: t - 1 is +-sqrt(2 (c1 + 5e-324)), the kernel's c1
            assert abs(scalar[1] - want_m1) <= 1e-15 * abs(want_m1) if c1 > 1.0 else abs(scalar[1]) < 1e-161


class TestFarStart:
    """Past c1 = 745 the upper start is s = log1p(c1 + s) six times from s = 0, and the kernel's one step follows."""

    def test_within_an_ulp_of_lambert_w_and_floats_are_the_array(self):
        # 500 seeded c1, half log-uniform to 1e7 and half to the largest double, and the edges;
        # measured here within 0.50 ulp, and elsewhere t up to 0.98 ulp at c1 ~ 1e16, where
        # t - 1 and then t are rounded to even doubles; three log1p passes fail it (1.2 ulp)
        rng = np.random.default_rng(3838)
        c1 = np.concatenate([np.exp(rng.uniform(math.log(745.0), math.log(1e7), 250)),
                             np.exp(rng.uniform(math.log(745.0), math.log(sys.float_info.max), 250)),
                             [745.0, np.nextafter(745.0, math.inf), 745.5, 1e4, 1e300, sys.float_info.max]])
        with np.errstate(over="ignore"):  # the bracket's 2c past the double range
            t, tm1, _ = solvers._branch_root(c1, True)
        floats = [solvers._branch_root(c, True)[:2] for c in c1.tolist()]
        assert np.array(floats).T.tobytes() == np.array([t, tm1]).tobytes()
        with mpmath.workdps(50):
            for c, (got, got_m1) in zip(c1.tolist(), floats):
                want = -mpmath.lambertw(-mpmath.exp(-1 - mpmath.mpf(c)), -1)
                assert abs(got - want) <= math.ulp(float(want)), c
                assert abs(got_m1 - (want - 1)) <= math.ulp(float(want - 1)), c


class TestStart:
    """_log_root's start, a cubic Hermite table per branch in sqrt(c1): close enough that one Halley step finishes."""

    # measured: 9.3e-10 (lower) and 4.7e-10 (upper) absolute, 3e-8 relative near s = 0
    ABS, REL = 2e-9, 1e-7

    @staticmethod
    def _c1():
        # a dense grid and 1e5 seeded draws over [0, 745], and s near 0
        rng = np.random.default_rng(2027)
        return np.concatenate([np.linspace(0.0, 745.0, 100_001), rng.uniform(0.0, 745.0, 100_000),
                               np.geomspace(1e-300, 1.0, 1000)])

    def _miss(self, upper):
        """(start miss, step miss) of one array call; a miss is the largest error over its bound (<= 1 passes).

        The root is read in numpy's long double as s + log1p(dt e^-s), so that t's own rounding
        (relative, while t - 1 ~ s near s = 0) is left out.  The step miss is one further Halley
        step from it, h from _excess's series below |s| = 1/4, over 4 eps |s|; that is within
        4 eps (1 + |s|) at every s.
        """
        c1 = self._c1()
        _, s, dt = solvers._log_root(c1, upper)
        c1 = c1 + 5e-324  # the c1 _log_root solves for
        root = s.astype(np.longdouble)
        root += np.log1p(dt / np.exp(root))
        em1 = np.expm1(root)
        step = solvers._halley(np.where(np.abs(root) < 0.25, solvers._excess(root), em1 - root) - c1, em1)
        start = np.abs(solvers._start(c1, upper) - root)
        start /= np.minimum(self.ABS * (1.0 + np.abs(root)), self.REL * np.abs(root))
        return float(np.max(start)), float(np.max(np.abs(step) / (4.0 * sys.float_info.epsilon * np.abs(root))))

    @pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
    def test_start_is_near_the_root_and_one_step_finishes(self, upper):
        start, step = self._miss(upper)
        assert start <= 1.0 and step <= 1.0

    @pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
    def test_linear_interpolation_misses(self, upper, monkeypatch):
        # the same nodes joined by chords, not by the exact slopes: one step from them stops short of the root
        table = solvers._START[upper]
        chords = np.zeros_like(table)
        chords[:, 0], chords[:-1, 1] = table[:, 0], np.diff(table[:, 0])
        monkeypatch.setitem(solvers._START, upper, chords)
        start, step = self._miss(upper)
        assert start > 1e3 and step > 1e3

    @pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
    def test_table_nodes_are_converged(self, upper):
        # one more Halley step from each node, clipped to its bracket, moves none by more than
        # 4 eps (1 + |s|); measured: 0.22 (lower) and 0.20 (upper) of that, and 2e7 or more from
        # a table built with two steps
        w = np.arange(1, solvers._START_N + 1) / solvers._START_SCALE
        c1 = w * w + 5e-324
        lo = np.log1p(c1) if upper else -1.0 - c1
        hi = lo + math.log(2.0) if upper else -c1
        s = solvers._START[upper][1:, 0]  # nodes 1 to _START_N; node 0 is s = 0 at c1 = 0
        em1 = np.expm1(s)
        moved = np.minimum(np.maximum(s - solvers._halley(em1 - (s + c1), em1), lo), hi) - s
        assert np.max(np.abs(moved) / (4.0 * sys.float_info.epsilon * (1.0 + np.abs(s)))) <= 1.0

    @pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
    def test_far_and_nan_neighbours_move_no_point(self, upper):
        # c1 past 745 (the table's last row, or the upper branch's log1p passes) and a NaN in a block of c1 <= 745:
        # every point below 745 reads the bits it reads without them, the NaN reads NaN, and the
        # far points read the bits of a block of their own
        near = np.random.default_rng(3131).uniform(0.0, 745.0, 4000)
        at, inserted = np.array([0, 1234, 1234, 4000, 4000]), np.array([1e4, math.nan, 800.0, 745.5, 1e300])
        got = np.array(solvers._log_root(np.insert(near, at, inserted), upper)[:3])
        pos = at + np.arange(at.size)  # where the inserted points land
        assert np.delete(got, pos, axis=1).tobytes() == np.array(solvers._log_root(near, upper)[:3]).tobytes()
        assert np.isnan(got[:, pos[1]]).all()
        far = np.delete(inserted, 1)
        assert got[:, np.delete(pos, 1)].tobytes() == np.array(solvers._log_root(far, upper)[:3]).tobytes()

    @pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
    def test_float_start_is_the_array_start(self, upper):
        c1 = np.concatenate([self._c1()[::997], [0.0, 745.0, 745.0001, 1e4, 1e300, math.nan]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = solvers._start(c1, upper)
        np.testing.assert_array_equal(got, [solvers._start(c, upper) for c in c1.tolist()])


def _halley_log_root(c1, upper):
    """_log_root as it was before its one step became Newton's: (t, t - 1) as _branch_root forms them.

    Up to c1 = 745 one Halley step from _start, h from _excess's series where |s| < 1/4; past
    745, where that step was never taken, the library's own kernel serves.
    """
    far = c1 > 745.0
    if isinstance(far, np.ndarray) and far.any() and not far.all():
        out = np.empty((2,) + c1.shape)
        out[:, ~far], out[:, far] = _halley_log_root(c1[~far], upper), _halley_log_root(c1[far], upper)
        return tuple(out)
    xp = solvers._ops(c1)
    if np.any(far):
        t, s, dt = solvers._log_root(c1, upper)
        return t, xp.expm1(s) + dt
    c1 = c1 + 5e-324
    s = solvers._start(c1, upper)
    em1 = xp.expm1(s)
    d = solvers._halley(em1 - (s + c1), em1)
    if xp is np:
        small = np.abs(s) < 0.25
        d[small] = solvers._halley(solvers._excess(s[small]) - c1[small], em1[small])
    elif abs(s) < 0.25:
        d = solvers._halley(solvers._excess(s) - c1, em1)
    if upper:
        dt = (1.0 + em1) * xp.expm1(-d)
        return 1.0 + (em1 + dt), em1 + dt
    s1 = s - d
    e_s = xp.exp(s1)
    dt = e_s * xp.expm1((s - s1) - d)
    return e_s + dt, xp.expm1(s1) + dt


# c1 over [0, 745] with 0, subnormals, the series band, 745 and NaN, and past 745
_C1 = (st.floats(0.0, 745.0) | st.floats(0.0, 0.04) | st.floats(745.0, 1e300)
       | st.sampled_from((0.0, 5e-324, 1e-310, 0.0399, 745.0, 745.5, math.nan)))


def _check_one_ulp(c1, upper):
    """The kernel's t and t - 1, for the array c1 and each of its floats, within an ulp of the Halley step's."""
    got, want = np.array(solvers._branch_root(c1, upper)[:2]), np.array(_halley_log_root(c1, upper))
    floats = np.array([solvers._branch_root(c, upper)[:2] for c in c1.tolist()]).T
    floats_want = np.array([_halley_log_root(c, upper) for c in c1.tolist()]).T
    for new, old in ((got, want), (floats, floats_want)):
        assert np.array_equal(np.isnan(new), np.isnan(old))
        ok = ~np.isnan(old)
        assert np.all(np.abs(new[ok] - old[ok]) <= np.spacing(np.abs(old[ok]))), c1


class TestNewtonStep:
    """_log_root's one step is Newton's, d = h/em1, past the series band: against the Halley step it replaced.

    From _start's 1e-9, Halley's factor 1/(1 - d (1 + 1/em1) / 2) moves d by at most 0.5 |1 + 1/em1| d^2,
    under 1% of an ulp of s where |s| >= 1/4, so a root moves only where its rounding sat that close
    to a tie.  In the band h = em1 - (s + c1) cancels, and Newton's step there fails.
    """

    @pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
    @given(c1=st.lists(_C1, min_size=1, max_size=40))
    def test_each_root_within_an_ulp_of_halleys(self, upper, c1):
        _check_one_ulp(np.array(c1), upper)

    @pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
    def test_roots_as_accurate_as_halleys(self, upper):
        # 400,000 seeded c1: log-uniform over [1e-12, 745] and uniform over [0, 745]
        rng = np.random.default_rng(2034)
        c1 = np.concatenate([np.exp(rng.uniform(math.log(1e-12), math.log(745.0), 200_000)),
                             rng.uniform(0.0, 745.0, 200_000)])
        _check_one_ulp(c1[:2000], upper)
        new, old = solvers._branch_root(c1, upper)[0], _halley_log_root(c1, upper)[0]
        moved = np.nonzero(new != old)[0]
        assert np.all(np.abs(new - old) <= np.spacing(old)) and moved.size <= 1e-3 * c1.size
        # the error of every root, in ulps, against Halley steps from the start in long double (11 more bits)
        ld = np.longdouble
        c = c1.astype(ld) + ld(5e-324)
        s = solvers._start(c1 + 5e-324, upper).astype(ld)
        for _ in range(3):
            em1 = np.expm1(s)
            d = (em1 - s - c) / em1
            s -= d / (1 - d / 2 * (1 + 1 / em1))
        ref, ulp = np.exp(s), np.spacing(old)
        err_new, err_old = (np.abs(t.astype(ld) - ref) / ulp for t in (new, old))
        # the long-double reference, checked where the roots moved against 50-digit mpmath
        with mpmath.workdps(50):
            for k in moved:
                want = -mpmath.re(mpmath.lambertw(-mpmath.exp(-1 - mpmath.mpf(float(c1[k])) - mpmath.mpf(5e-324)),
                                                  -1 if upper else 0))
                hi = float(ref[k])  # a long double is exactly the sum of two doubles
                assert abs(mpmath.mpf(hi) + mpmath.mpf(float(ref[k] - hi)) - want) <= 0.01 * ulp[k]
        assert err_new.max() <= err_old.max()
        # Newton's error shifts each moved root toward one side of its tie: measured over 3e6 draws the
        # mean rises 1.2e-5 ulp (0.003%), about half the moved roots landing farther from the root
        assert err_new.mean() - err_old.mean() <= 1e-4

    def test_newton_in_the_series_band_fails(self, monkeypatch):
        # negative control: with no band, Newton's step from h = em1 - (s + c1) runs down to c1 = 0
        monkeypatch.setattr(solvers, "_EXCESS_SERIES_S", 0.0)
        c1 = np.concatenate([np.geomspace(1e-12, 0.04, 200), [0.0, 5e-324]])
        for upper in (False, True):
            with pytest.raises(AssertionError):
                _check_one_ulp(c1, upper)


class TestRootCache:
    """_root_result is memoized: a repeated (c1, branch) returns the first solve's result."""

    def test_repeated_solve_is_a_hit_equal_to_a_fresh_solve(self):
        solvers._root_result.cache_clear()
        first = solvers.gamma_entropy_roots(2.5)
        assert solvers.gamma_entropy_roots(2.5) == first
        assert solvers._root_result.cache_info().hits == 2
        fresh = tuple(solvers._root_result.__wrapped__(2.5, upper=u) for u in (False, True))
        assert fresh == first
        # a root above 1/4 is the kernel's own, not refined by the step in q
        fresh = solvers._root_result.__wrapped__(math.log(1.5), upper=False)
        assert solvers.gamma_log(1.5) == solvers.gamma_log(1.5) == fresh

    def test_funny_bound_reads_the_cached_lower_root(self):
        solvers._root_result.cache_clear()
        minus = solvers.gamma_entropy_roots(2.5)[0].root
        assert solvers.funny_bound(2.5) == minus * math.exp((1.0 - minus) / minus)
        assert solvers._root_result.cache_info().hits == 1

    def test_cache_is_bounded(self):
        solvers._root_result.cache_clear()
        for q in np.linspace(0.5, 50.0, 400):
            solvers.gamma_entropy_roots(float(q))
        assert solvers._root_result.cache_info().currsize == solvers._root_result.cache_info().maxsize == 256

    @pytest.mark.parametrize(
        "solve, q",
        [(solvers.gamma_log, 1.0), (solvers.gamma_log, math.nan), (solvers.gamma_entropy_roots, 800.0),
         (solvers.gamma_entropy_roots, 0.0), (solvers.eps_minus, -1.0)],
        ids=["log-q-one", "log-nan", "entropy-underflow", "entropy-zero", "eps-negative"],
    )
    def test_bad_q_raises_on_every_call(self, solve, q):
        for _ in range(3):
            with pytest.raises(ParameterError):
                solve(q)


