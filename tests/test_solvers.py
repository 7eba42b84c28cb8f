import math

import mpmath
import numpy as np
import pytest

from weightlab import ParameterError, solvers

from _frozen import (
    EPS_MINUS_1,
    GAMMA_MINUS_1,
    GAMMA_PLUS_1,
    FUNNY_BOUND_1,
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

    def test_root_in_open_unit_interval(self):
        for q in np.geomspace(1.001, 1e8, 40):
            r = solvers.gamma_log(float(q))
            assert 0.0 < r.root < 1.0
            assert abs(r.residual) <= 1e-10

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

    def test_good_lambda_params(self):
        alpha, beta = solvers.good_lambda_params(1.0)
        assert beta == 0.25
        assert alpha == pytest.approx(1.0 / (math.exp(8.0) - 1.0), rel=1e-14)

    def test_dimension_must_be_positive_integer(self):
        with pytest.raises(ParameterError):
            solvers.gehring_dim_n_eps(0, 1.0)
        with pytest.raises(ParameterError):
            solvers.gehring_dim_n_eps(-2, 1.0)


class TestPGehringViaOne:
    def test_k_one_gives_48(self):
        bound, delta = solvers.p_gehring_via_one(1, 2.0, 1.0)
        assert bound == pytest.approx(48.0, rel=1e-14)
        assert delta > 0.0

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
            t, tm1, steps, (lo, hi) = solvers._branch_root(float(c1), upper)
            want, want_m1 = mp_branch_root(float(c1), upper)
            # below e^-708 the root is subnormal and keeps fewer bits
            assert abs(t - want) <= 1e-15 * want + 5e-324, c1
            # relative, also near the double root t = 1, where t - 1 ~ sqrt(2 c1)
            assert abs(tm1 - want_m1) <= 1e-15 * abs(want_m1), c1
            assert 1 <= steps <= 4, c1
            assert lo * (1.0 - 1e-15) <= want <= hi * (1.0 + 1e-15)

    @pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
    def test_array_matches_scalar(self, upper):
        c1 = self.UPPER_C1 if upper else self.LOWER_C1
        t, tm1, steps, (lo, hi) = solvers._branch_root(c1, upper)
        scalar = np.array([solvers._branch_root(float(c), upper)[:2] for c in c1])
        assert steps <= 4
        assert np.all(np.abs(t - scalar[:, 0]) <= 1e-15 * scalar[:, 0] + 5e-324)
        assert np.all(np.abs(tm1 - scalar[:, 1]) <= 1e-15 * np.abs(scalar[:, 1]))
        assert np.all((lo * (1.0 - 1e-15) <= t) & (t <= hi * (1.0 + 1e-15)))

    def test_double_root_at_c_one(self):
        for upper in (False, True):
            for c1 in (0.0, 5e-324, 1e-300):
                t, _, steps, _ = solvers._branch_root(c1, upper)
                assert t == 1.0 and steps <= 4


class TestBisect:
    def test_respects_bracket_and_residual(self):
        res = solvers.bisect(lambda t: t * t - 2.0, 0.0, 2.0)
        assert res.root == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert abs(res.residual) <= 1e-12

    def test_no_sign_change_raises(self):
        with pytest.raises(ParameterError):
            solvers.bisect(lambda t: t * t + 1.0, 0.0, 1.0)
