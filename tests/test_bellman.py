import hashlib
import math
import warnings

import mpmath
import numpy as np
import pytest

from weightlab import (
    BellmanSurface,
    DomainError,
    ParameterError,
    SurfaceKind,
    bounds_check_ainf,
    evaluate_surface,
    hessian,
    in_domain,
    sharpness_sweep,
    tangent_point,
)
from weightlab import bellman
from weightlab.bellman import evaluate_many, hessian_signature, interior_grid, tangent_linearity_excess
from weightlab.solvers import funny_bound, gamma_entropy_roots

from _frozen import (
    ARRAY_PATH_SHA256,
    FUNNY_BOUND_1,
    GAMMA_PLUS_1,
    GEHRING_B_1_03,
    RATIO_BOUND_E,
    RATIO_BOUNDS_FROM_1_89,
)


def mp_tangent(surface, x, y):
    """(tangent abscissa, value) of an A_inf surface with 40 digits, gamma included."""
    with mpmath.workdps(40):
        X, Y, Q = map(mpmath.mpf, (x, y, surface.q))
        if surface.kind is SurfaceKind.AINF_UPPER:
            g = mpmath.re(-mpmath.lambertw(-mpmath.exp(-1 - mpmath.log(Q))))
            f = lambda s: g * X / mpmath.exp(s) + s - g - Y
            v = mpmath.exp(mpmath.findroot(f, (mpmath.log(g * X), mpmath.log(X)), solver="anderson"))
            return float(v), float(X * mpmath.log(v) + (X - v) / g)
        g = mpmath.re(-mpmath.lambertw(-mpmath.exp(-1 - Q)))
        f = lambda s: (s + g) * X - g * mpmath.exp(s) - Y
        v = mpmath.exp(mpmath.findroot(f, (mpmath.log(X), mpmath.log(X / g)), solver="anderson"))
        return float(v), float(mpmath.log(v) + (X - v) / (g * v))


def mp_value(surface, x, y):
    """Surface value at the double point (x, y) with 50 digits, any surface.

    The same tangent equation u - log u = 1 + c1 as bellman's, its root and gamma
    taken by Lambert W (no Halley kernel), and the closed-form value at v.
    """
    with mpmath.workdps(50):
        X, Y, Q = map(mpmath.mpf, (x, y, surface.q))
        branch = -1 if surface.kind is SurfaceKind.GEHRING else 0
        root = lambda c1: -mpmath.re(mpmath.lambertw(-mpmath.exp(-1 - c1), branch))
        if surface.kind is SurfaceKind.AINF_UPPER:
            c1_lower, height = mpmath.log(Q), mpmath.log(X) - Y
        else:
            c1_lower, height = Q, (Y - X * mpmath.log(X)) / X
        g, u = root(c1_lower), root(min(max(c1_lower - height, 0), c1_lower))
        if surface.kind is SurfaceKind.AINF_UPPER:
            v = X * g / u
            return float(X * mpmath.log(v) + (X - v) / g)
        v = X * u / g
        if surface.kind is SurfaceKind.GEHRING:
            eps = mpmath.mpf(surface.eps)
            return float(v**eps * (X * (1 + eps) - eps * g * v) / (1 + eps - g * eps))
        return float(mpmath.log(v) + (X - v) / (g * v))


def fd_hessian(surface, x, y):
    """Reference Hessian for the closed forms: central differences with one Richardson step.

    h = 1e-5 max(1, |x|), shrunk to a quarter of the margin where the stencil
    would leave the domain; the margin keeps x +- h, y +- h inside it.
    """
    if surface.entropy_coordinates:
        base = x * math.log(x)
        slope = max(abs(math.log(x)) + 1.0 + surface.q, 1.0)
        margin = min(y - base, base + surface.q * x - y) / (2.0 * slope)
    else:
        lr = math.log(x) - y  # log r in [0, log q]
        margin = min(lr, math.log(surface.q) - lr) / 2.0 * min(1.0, x)
    assert margin > 0.0, "finite differences need interior room"
    h = 1e-5 * max(1.0, abs(x))
    if margin < 2.0 * h:
        h = margin / 4.0
    f = lambda xx, yy: evaluate_surface(surface, xx, yy)

    def second(h_):
        fxx = (f(x + h_, y) - 2.0 * f(x, y) + f(x - h_, y)) / (h_ * h_)
        fyy = (f(x, y + h_) - 2.0 * f(x, y) + f(x, y - h_)) / (h_ * h_)
        fxy = (f(x + h_, y + h_) - f(x + h_, y - h_) - f(x - h_, y + h_) + f(x - h_, y - h_)) / (4.0 * h_ * h_)
        return np.array([[fxx, fxy], [fxy, fyy]])

    return (4.0 * second(h / 2.0) - second(h)) / 3.0  # Richardson: O(h^4) truncation


def gehring_surface(q, frac=0.5):
    gp = gamma_entropy_roots(q)[1].root
    return BellmanSurface(SurfaceKind.GEHRING, q, eps=frac / (gp - 1.0))


# each surface at a small, a moderate and a large q
Q_SPAN = [
    *(BellmanSurface(SurfaceKind.AINF_UPPER, q) for q in (1.05, 5.0, 1e6)),
    *(gehring_surface(q) for q in (0.05, 5.0, 700.0)),
    *(BellmanSurface(SurfaceKind.AINF_LOWER, q) for q in (0.05, 5.0, 250.0)),
]
Q_SPAN_IDS = [f"{s.kind.value}-q{s.q:g}" for s in Q_SPAN]


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            BellmanSurface(SurfaceKind.AINF_UPPER, 1.0)  # needs q > 1
        with pytest.raises(ParameterError):
            BellmanSurface(SurfaceKind.GEHRING, 0.0, eps=0.1)
        with pytest.raises(ParameterError):
            BellmanSurface(SurfaceKind.AINF_LOWER, -1.0)

    def test_gehring_eps_window(self):
        gp = gamma_entropy_roots(1.0)[1].root
        BellmanSurface(SurfaceKind.GEHRING, 1.0, eps=0.99 / (gp - 1.0))
        with pytest.raises(ParameterError):
            BellmanSurface(SurfaceKind.GEHRING, 1.0, eps=1.0 / (gp - 1.0))
        with pytest.raises(ParameterError):
            BellmanSurface(SurfaceKind.GEHRING, 1.0, eps=0.0)

    def test_gamma_parameter(self):
        up = BellmanSurface(SurfaceKind.AINF_UPPER, 2.0)
        assert 0.0 < up.gamma < 1.0
        assert gehring_surface(1.0).gamma == pytest.approx(GAMMA_PLUS_1, abs=1e-12)


class TestDomain:
    def test_log_coordinates(self):
        up = BellmanSurface(SurfaceKind.AINF_UPPER, 2.0)
        assert in_domain(up, 1.0, 0.0)  # ratio 1, lower edge
        assert in_domain(up, 1.0, -math.log(2.0))  # ratio q, upper edge
        assert in_domain(up, 1.0, -0.3)
        assert not in_domain(up, 1.0, 0.2)
        assert not in_domain(up, 1.0, -math.log(2.0) - 0.05)
        assert not in_domain(up, -1.0, 0.0)

    def test_entropy_coordinates(self):
        low = BellmanSurface(SurfaceKind.AINF_LOWER, 1.0)
        assert in_domain(low, 1.0, 0.0)
        assert in_domain(low, 1.0, 1.0)
        assert in_domain(low, 0.5, 0.5 * math.log(0.5) + 0.2)
        assert not in_domain(low, 1.0, -0.05)
        assert not in_domain(low, 1.0, 1.05)

    def test_evaluate_rejects_outside(self):
        up = BellmanSurface(SurfaceKind.AINF_UPPER, 2.0)
        with pytest.raises(DomainError):
            evaluate_surface(up, 1.0, 0.5)

    def test_log_coordinates_never_overflow(self):
        up = BellmanSurface(SurfaceKind.AINF_UPPER, 2.0)
        assert not in_domain(up, 1.0, -1000.0)  # x e^{-y} = e^1000
        with pytest.raises(DomainError):
            evaluate_surface(up, 1.0, -1000.0)
        assert in_domain(up, 1e300, math.log(1e300) - 0.5)

    def test_slack_of_one_or_more_drops_the_lower_bound(self):
        huge = BellmanSurface(SurfaceKind.AINF_UPPER, 1e13)
        assert in_domain(huge, 1.0, 0.5)  # slack 1e-12 * 1e13 = 10
        assert not in_domain(huge, 1.0, 0.5, tol=1e-15)  # slack 0.01
        assert in_domain(huge, 1.0, 0.005, tol=1e-15)

    @pytest.mark.parametrize("surface", [BellmanSurface(SurfaceKind.AINF_UPPER, 2.0),
                                         BellmanSurface(SurfaceKind.AINF_LOWER, 1.0)],
                             ids=["upper", "lower"])
    def test_array_matches_float(self, surface):
        xs = np.array([1.0, 1.0, 1.0, 0.5, 2.0, -1.0, 0.0, math.nan, math.inf, 1.0, 1.0])
        ys = np.array([0.0, -0.3, 0.9, -0.2, 1.3, 0.0, 0.0, 0.0, 0.0, math.nan, -math.inf])
        got = in_domain(surface, xs, ys)
        assert got.dtype == bool
        assert got.tolist() == [in_domain(surface, float(x), float(y)) for x, y in zip(xs, ys)]
        assert got.any() and not got.all()

    @staticmethod
    def _slack_bounds(surface, x, y, tol):
        """Membership as bounds widened by a slack s: log x - y in [log(1 - s), log(q + s)],
        s = tol max(1, q), with no lower bound once s >= 1; or x log x - s <= y <= x log x + q x + s,
        s = tol max(1, |x log x| + q x)."""
        if not (x > 0.0 and math.isfinite(x) and math.isfinite(y)):
            return False
        q = surface.q
        if surface.entropy_coordinates:
            base = x * math.log(x)
            slack = tol * max(1.0, abs(base) + q * x)
            return base - slack <= y <= base + q * x + slack
        slack = tol * max(1.0, q)
        lr = math.log(x) - y
        return (slack >= 1.0 or math.log(1.0 - slack) <= lr) and lr <= math.log(q + slack)

    @pytest.mark.parametrize("kind", list(SurfaceKind))
    def test_matches_slack_bounds_near_the_boundaries(self, kind):
        rng = np.random.default_rng(list(SurfaceKind).index(kind))
        for q in (1.5, 2.0, 10.0, 1e3, 1e13):
            surface = BellmanSurface(kind, q)
            x = np.exp(rng.uniform(-14.0, 14.0, 400))
            # half within 1e-9 of the lower (t = 0) or upper (t = 1) boundary
            near = rng.integers(0, 2, 200) + rng.uniform(-1e-9, 1e-9, 200)
            t = np.concatenate([near, rng.uniform(-0.5, 1.5, 200)])
            if surface.entropy_coordinates:
                y = x * np.log(x) + t * q * x
            else:
                y = np.log(x) - np.log(np.where(t < 0.5, 1.0 + t, q * t))  # ratio 1 + t or q t
            for tol in (1e-12, 1e-9):
                want = [self._slack_bounds(surface, float(u), float(v), tol) for u, v in zip(x, y)]
                assert in_domain(surface, x, y, tol=tol).tolist() == want
                assert [in_domain(surface, float(u), float(v), tol=tol) for u, v in zip(x, y)] == want

    def test_excess_past_exp_overflow_raises_no_warning(self):
        up = BellmanSurface(SurfaceKind.AINF_UPPER, 2.0)
        # ratios e^1000, 1e343 and 1.5, where e^-y overflows and x is subnormal
        x, y = np.array([1.0, 1e300, math.exp(math.log(1.5) - 720.0)]), np.array([-1000.0, -100.0, -720.0])
        assert in_domain(up, x, y).tolist() == [False, False, True]
        assert [in_domain(up, *p) for p in zip(x.tolist(), y.tolist())] == [False, False, True]


class TestTangent:
    def test_lower_boundary_bracket_holds_v_at_large_q(self):
        # v = x exactly there, and u = gamma, whose fixed-point step left the kernel's bracket
        for q in np.geomspace(1e10, 1e300, 200):
            up = BellmanSurface(SurfaceKind.AINF_UPPER, float(q))
            for x in (0.3, 1.0, 3.0):
                tp = tangent_point(up, x, math.log(x))
                assert tp.root == x
                assert tp.bracket[0] <= tp.root <= tp.bracket[1], (q, x, tp.bracket)

    def test_lower_boundary_is_identity(self):
        up = BellmanSurface(SurfaceKind.AINF_UPPER, 3.0)
        geh = gehring_surface(1.0)
        for x in (0.4, 1.0, 2.3):
            for tp in (tangent_point(up, x, math.log(x)), tangent_point(geh, x, x * math.log(x))):
                assert tp.root == pytest.approx(x, rel=1e-9)
                lo, hi = tp.bracket
                assert lo * (1.0 - 1e-15) <= tp.root <= hi * (1.0 + 1e-15)
                assert tp.iterations == 1
        # just above the lower boundary of ainf-lower at q = 100, where the
        # tangent bracket [x, x / gamma] spans 44 decades
        low = BellmanSurface(SurfaceKind.AINF_LOWER, 100.0)
        for x, frac in ((1.0, 0.01), (0.7, 0.03)):
            y = x * math.log(x) + frac * 100.0 * x
            v, value = mp_tangent(low, x, y)
            assert tangent_point(low, x, y).root == pytest.approx(v, rel=1e-12, abs=0.0)
            assert evaluate_surface(low, x, y) == pytest.approx(value, rel=1e-12)

    def test_upper_boundary_hits_bracket_end(self):
        up = BellmanSurface(SurfaceKind.AINF_UPPER, 2.0)
        tp = tangent_point(up, 1.0, -math.log(2.0))
        # tangency degenerates to second order on the boundary, so the
        # achievable accuracy in v is ~sqrt(eps)
        assert tp.root == pytest.approx(up.gamma, rel=1e-6)
        low = BellmanSurface(SurfaceKind.AINF_LOWER, 1.0)
        gm = gamma_entropy_roots(1.0)[0].root
        tp = tangent_point(low, 1.0, 1.0)
        assert tp.root == pytest.approx(1.0 / gm, rel=1e-5)
        # near the upper boundary at q = 1e30, where v approaches gamma x ~ 1e-32 x
        huge = BellmanSurface(SurfaceKind.AINF_UPPER, 1e30)
        for frac in (0.97, 0.99, 0.999):
            y = -frac * math.log(1e30)
            v, value = mp_tangent(huge, 1.0, y)
            assert tangent_point(huge, 1.0, y).root == pytest.approx(v, rel=1e-12, abs=0.0)
            assert evaluate_surface(huge, 1.0, y) == pytest.approx(value, rel=1e-12)

    def test_midpoint_of_unit_tangent(self):
        geh = gehring_surface(1.0, frac=0.6)
        x = (1.0 + GAMMA_PLUS_1) / 2.0
        y = GAMMA_PLUS_1 * (x - 1.0)
        assert tangent_point(geh, x, y).root == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("surface", Q_SPAN, ids=Q_SPAN_IDS)
    def test_linearity_array_matches_float(self, surface):
        vs = np.linspace(0.5, 2.0, 7)
        devs = tangent_linearity_excess(surface, vs)[2]
        assert devs.shape == vs.shape
        assert devs.tolist() == [float(tangent_linearity_excess(surface, float(v))[2]) for v in vs]
        with pytest.raises(ParameterError):
            tangent_linearity_excess(surface, np.array([1.0, -0.5]))

    def test_linearity_along_tangent_segments(self):
        surfaces = (
            BellmanSurface(SurfaceKind.AINF_UPPER, 2.0),
            gehring_surface(1.5),
            BellmanSurface(SurfaceKind.AINF_LOWER, 0.8),
        )
        for surface in surfaces:
            for v in (0.5, 1.0, 1.9):
                dev = tangent_linearity_excess(surface, v, n_samples=50)[2]
                assert dev <= 1e-9
                # two samples see only the segment endpoints: affine up to ulps
                assert tangent_linearity_excess(surface, v, n_samples=2)[2] <= 1e-15


def _bent(f):
    """A _tangent_y that bends each segment's interior off its tangent line, into the
    domain, by f * tau (1 - tau) of the domain's height at x (tau in [0, 1] along it)."""
    straight = bellman._tangent_y

    def tangent_y(surface, x, v):
        tau = (x - x[..., :1]) / (x[..., -1:] - x[..., :1])
        if surface.kind is SurfaceKind.AINF_UPPER:
            return straight(surface, x, v) - f * tau * (1.0 - tau) * math.log(surface.q)
        return straight(surface, x, v) + f * tau * (1.0 - tau) * surface.q * x

    return tangent_y


class TestTangentExcess:
    @pytest.mark.parametrize("surface", Q_SPAN, ids=Q_SPAN_IDS)
    def test_relative_rule_passes_and_keeps_the_deviation(self, surface):
        vs = np.linspace(0.5, 2.0, 24)
        excess, threshold, dev = tangent_linearity_excess(surface, vs)
        assert threshold == 1e-9
        assert np.max(excess) <= 1e-13  # 1.1e-14 at most here, on AINF_LOWER at q = 250
        assert dev.shape == vs.shape

    def test_absolute_deviation_is_large_where_the_surface_is(self):
        # the absolute 1e-9 bound failed these; over max(1, |B|) they are rounding
        for surface, at_least in ((BellmanSurface(SurfaceKind.AINF_UPPER, 1e6), 1e-3),
                                  (BellmanSurface(SurfaceKind.AINF_LOWER, 250.0), 1e90)):
            excess, threshold, dev = tangent_linearity_excess(surface, np.linspace(0.5, 2.0, 24))
            assert np.max(dev) >= at_least
            assert np.all(excess <= threshold)

    @pytest.mark.parametrize(
        "surface",
        [BellmanSurface(SurfaceKind.AINF_UPPER, 1e6), gehring_surface(700.0),
         BellmanSurface(SurfaceKind.AINF_LOWER, 80.0), BellmanSurface(SurfaceKind.AINF_LOWER, 250.0)],
        ids=["upper-q1e6", "gehring-q700", "lower-q80", "lower-q250"],
    )
    def test_deviation_is_rounding(self, surface):
        # at the segment's own double sample points, the 50-digit surface is affine to
        # 2 ulp of its scale, and evaluate_many is within 64 ulp of it (49 ulp on
        # AINF_LOWER at q = 250, 1.2 on AINF_UPPER at q = 1e6); the float deviation is
        # no more than these two errors
        eps = np.finfo(float).eps
        for v in (0.5, 1.0, 1.9):
            xs = np.linspace(*bellman._tangent_segment(surface, np.float64(v)), 33)
            ys = bellman._tangent_y(surface, xs, v)
            vals = evaluate_many(surface, xs, ys)
            exact = np.array([mp_value(surface, float(x), float(y)) for x, y in zip(xs, ys)])
            tau = (xs - xs[0]) / (xs[-1] - xs[0])
            chord = lambda b: np.max(np.abs(b - (b[0] * (1.0 - tau) + b[-1] * tau)))
            scale = max(1.0, np.max(np.abs(vals)))
            assert chord(exact) <= 2.0 * eps * scale
            assert np.max(np.abs(vals - exact)) <= 64.0 * eps * scale
            excess = tangent_linearity_excess(surface, v)[0]
            assert excess * scale <= chord(exact) + 2.0 * np.max(np.abs(vals - exact))

    @pytest.mark.parametrize("surface", Q_SPAN, ids=Q_SPAN_IDS)
    def test_bent_segment_fails(self, surface, monkeypatch):
        # negative control: 1% of the domain's height off the tangent line is no rounding
        monkeypatch.setattr(bellman, "_tangent_y", _bent(1e-2))
        with np.errstate(all="ignore"):
            excess, threshold, _ = tangent_linearity_excess(surface, np.linspace(0.5, 2.0, 5))
        assert np.min(excess) > 10.0 * threshold

    def test_non_finite_deviation_or_scale_fails(self, monkeypatch):
        with np.errstate(all="ignore"):
            excess, threshold, dev = tangent_linearity_excess(
                BellmanSurface(SurfaceKind.AINF_LOWER, 708.9), np.linspace(0.5, 2.0, 8)
            )
        assert np.isnan(dev).any() and np.all(excess == math.inf)
        # a segment whose values all overflow fails too
        monkeypatch.setattr(bellman, "evaluate_many", lambda *args: np.full(args[1].shape, math.inf))
        with np.errstate(all="ignore"):
            excess = tangent_linearity_excess(BellmanSurface(SurfaceKind.AINF_UPPER, 2.0), 1.0)[0]
        assert excess == math.inf


class TestEvaluate:
    def test_lower_boundary_values(self):
        up = BellmanSurface(SurfaceKind.AINF_UPPER, 2.0)
        for x in (0.5, 1.0, 2.0):
            assert evaluate_surface(up, x, math.log(x)) == pytest.approx(
                x * math.log(x), abs=1e-12
            )
        geh = gehring_surface(1.0, frac=0.4)
        for x in (0.5, 1.0, 2.0):
            assert evaluate_surface(geh, x, x * math.log(x)) == pytest.approx(
                x ** (1.0 + geh.eps), rel=1e-12
            )
        low = BellmanSurface(SurfaceKind.AINF_LOWER, 1.0)
        for x in (0.5, 1.0, 2.0):
            assert evaluate_surface(low, x, x * math.log(x)) == pytest.approx(
                math.log(x), abs=1e-12
            )

    def test_frozen_gehring_value(self):
        geh = BellmanSurface(SurfaceKind.GEHRING, 1.0, eps=0.3)
        x = GAMMA_PLUS_1
        y = x * math.log(x) + 1.0 * x  # upper edge, where the tangent point is 1
        assert evaluate_surface(geh, x, y) == pytest.approx(GEHRING_B_1_03, rel=1e-12)

    def test_homogeneity_along_tangent_scaling(self):
        # B(v, v log v) identities pin the scaling normalization
        up = BellmanSurface(SurfaceKind.AINF_UPPER, 4.0)
        v = 1.7
        assert evaluate_surface(up, v, math.log(v)) == pytest.approx(
            v * math.log(v), abs=1e-12
        )

    def test_flatness_envelope_attains_funny_bound(self):
        low = BellmanSurface(SurfaceKind.AINF_LOWER, 1.0)
        best = -math.inf
        for x in np.linspace(0.2, 3.0, 41):
            for f in np.linspace(0.0, 1.0, 81):
                y = x * math.log(x) + f * 1.0 * x
                val = x * math.exp(-evaluate_surface(low, float(x), float(y)))
                best = max(best, val)
        assert best == pytest.approx(FUNNY_BOUND_1, rel=1e-9)
        assert best <= FUNNY_BOUND_1 * (1.0 + 1e-9)

    def test_evaluate_many_matches_scalar(self):
        geh = gehring_surface(2.0)
        xs = np.linspace(0.5, 2.0, 7)
        ys = xs * np.log(xs) + 0.3 * 2.0 * xs
        vals = evaluate_many(geh, xs, ys)
        for x, y, v in zip(xs, ys, vals):
            assert v == pytest.approx(evaluate_surface(geh, float(x), float(y)), rel=1e-13)

    def test_evaluate_many_non_finite_coordinates(self):
        # nan or inf, never an exception or a warning, in every block, and the finite values bit for bit
        nan, inf = math.nan, math.inf
        x = np.array([nan, 1.0, nan, inf, 1.0, 1.0, -inf, inf, 0.0, -1.0, 5e-324, 1.0])
        y = np.array([0.0, nan, nan, 0.0, inf, -inf, 0.0, inf, 0.0, 0.0, 0.0, 0.0])
        cases = [
            (BellmanSurface(SurfaceKind.AINF_UPPER, 5.0), [0.0, 9.020730791291713, -3.676e-321, 0.0]),
            (gehring_surface(2.0), [1.6135459795558034, 1.0, 0.0, 1.0]),
            (BellmanSurface(SurfaceKind.AINF_LOWER, 2.0), [-15.111306555180436, 0.0, -759.4956329422148, 0.0]),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for surface, finite in cases:
                want = [nan] * 4 + finite[:2] + [nan] * 4 + finite[2:]
                np.testing.assert_array_equal(evaluate_many(surface, x, y), want)
                np.testing.assert_array_equal(evaluate_many(surface, np.tile(x, 1000), np.tile(y, 1000)), np.tile(want, 1000))

    @pytest.mark.parametrize("kind", list(SurfaceKind), ids=lambda kind: kind.value)
    def test_nan_neighbour_moves_no_point(self, kind):
        # a NaN coordinate takes the root kernel's one step as every other point does, so each of
        # them reads the bits it reads without the NaN; no surface's c1 passes 745 (q <= 743),
        # where the kernel loops: test_solvers' TestStart mixes such c1 into a block
        surface = gehring_surface(20.0) if kind is SurfaceKind.GEHRING else BellmanSurface(kind, 20.0)
        rng = np.random.default_rng(2828)
        x, frac = np.exp(rng.uniform(-6.0, 6.0, 4000)), rng.uniform(0.0, 1.0, 4000)
        y = x * np.log(x) + frac * surface.q * x if surface.entropy_coordinates else np.log(x) - frac * math.log(surface.q)
        want = evaluate_many(surface, x, y)
        assert np.isfinite(want).all()
        for k, (px, py) in ((0, (math.nan, 0.0)), (1234, (1.0, math.nan)), (4000, (math.nan, math.nan))):
            got = evaluate_many(surface, np.insert(x, k, px), np.insert(y, k, py))
            assert math.isnan(got[k])
            assert np.delete(got, k).tobytes() == want.tobytes(), (k, np.count_nonzero(np.delete(got, k) != want))

    @pytest.mark.parametrize("kind", list(SurfaceKind), ids=lambda kind: kind.value)
    def test_0d_arrays_and_numpy_scalars_read_as_floats(self, kind):
        # evaluate takes float() of both coordinates: a 0-d array once went on as an array and raised
        # TypeError in the tangent solve; the points are exact in float32
        surface, point = {SurfaceKind.AINF_UPPER: (BellmanSurface(kind, 5.0), (3.0, 0.5)),
                          SurfaceKind.GEHRING: (gehring_surface(1.0), (2.0, 2.0)),
                          SurfaceKind.AINF_LOWER: (BellmanSurface(kind, 2.0), (1.0, 1.5))}[kind]
        want = evaluate_surface(surface, *point)
        for wrap in (np.array, np.float32, np.float64):
            got = evaluate_surface(surface, *map(wrap, point))
            assert type(got) is float and repr(got) == repr(want), wrap

    def test_gehring_needs_eps(self):
        bare = BellmanSurface(SurfaceKind.GEHRING, 1.0)
        with pytest.raises(ParameterError):
            evaluate_surface(bare, 1.0, 0.0)


class TestHessian:
    @pytest.mark.parametrize(
        "surface",
        [
            BellmanSurface(SurfaceKind.AINF_UPPER, 2.0),
            gehring_surface(1.0, frac=0.3),
            BellmanSurface(SurfaceKind.AINF_LOWER, 1.2),
        ],
        ids=["upper", "gehring", "lower"],
    )
    def test_closed_matches_finite_differences(self, surface):
        if surface.entropy_coordinates:
            pts = [(0.8, 0.8 * math.log(0.8) + 0.4 * surface.q * 0.8), (1.6, 1.6 * math.log(1.6) + 0.6 * surface.q * 1.6)]
        else:
            pts = [(0.8, math.log(0.8) - 0.4 * math.log(surface.q)), (1.6, math.log(1.6) - 0.6 * math.log(surface.q))]
        for x, y in pts:
            closed = hessian(surface, x, y)
            scale = max(1.0, float(np.max(np.abs(closed.matrix))))
            assert np.max(np.abs(closed.matrix - fd_hessian(surface, x, y))) <= 1e-4 * scale

    def test_upper_surface_degenerate_concave(self):
        up = BellmanSurface(SurfaceKind.AINF_UPPER, 5.0)
        res = hessian(up, 1.3, math.log(1.3) - 0.5 * math.log(5.0))
        assert abs(res.det) <= 1e-10
        assert res.matrix[1, 1] < 0.0
        assert max(res.eigenvalues) <= 1e-10

    def test_gehring_concave_lower_convex(self):
        geh = gehring_surface(1.0, frac=0.5)
        res = hessian(geh, 1.1, 1.1 * math.log(1.1) + 0.3 * 1.1)
        assert max(res.eigenvalues) <= 1e-12
        low = BellmanSurface(SurfaceKind.AINF_LOWER, 1.0)
        res = hessian(low, 1.1, 1.1 * math.log(1.1) + 0.3 * 1.1)
        assert min(res.eigenvalues) >= -1e-12

    def test_extreme_q_reads_non_finite_without_warning(self):
        # the float path divided by a product underflowed to 0 (ZeroDivisionError) on
        # AINF_UPPER at q = 1e300, and det overflowed (a RuntimeWarning) on AINF_LOWER at q = 700
        up = BellmanSurface(SurfaceKind.AINF_UPPER, 1e300)
        res = hessian(up, 1.0, -0.5 * math.log(1e300))
        assert res.matrix[1, 1] == -math.inf and res.det == math.inf
        res = hessian(BellmanSurface(SurfaceKind.AINF_LOWER, 700.0), 1.0, 0.02 * 700.0)
        assert np.all(np.isfinite(res.matrix)) and res.det == math.inf  # entries ~1e300, their products past 1e308
        excess, threshold, dev = tangent_linearity_excess(up, 1.0)
        assert excess == math.inf and math.isnan(dev)

    def test_boundary_warning_flag(self):
        # flagged within 1e-10 max(1, |x|) of the boundary: here log(x e^-y) = 2e-11
        up = BellmanSurface(SurfaceKind.AINF_UPPER, 2.0)
        assert hessian(up, 1.0, -2e-11).boundary_warning is True
        assert hessian(up, 1.0, -1e-9).boundary_warning is False
        assert hessian(up, 1.0, -0.35).boundary_warning is False
        flags = hessian(up, np.array([1.0, 1.0]), np.array([-2e-11, -0.35])).boundary_warning
        assert flags.tolist() == [True, False]

    @pytest.mark.parametrize("surface", Q_SPAN, ids=Q_SPAN_IDS)
    def test_array_matches_float(self, surface):
        xs, ys = interior_grid(surface, 9, 7)
        batch = hessian(surface, xs, ys)
        assert batch.matrix.shape == (xs.size, 2, 2)
        for k, (x, y) in enumerate(zip(xs, ys)):
            one = hessian(surface, float(x), float(y))
            scale = np.max(np.abs(one.matrix))
            assert np.max(np.abs(batch.matrix[k] - one.matrix)) <= 1e-13 * scale
            for got, want in zip(batch.eigenvalues, one.eigenvalues):
                assert abs(got[k] - want) <= 1e-13 * scale
            assert abs(batch.det[k] - one.det) <= 1e-13 * scale**2
            assert batch.boundary_warning[k] == one.boundary_warning

    def test_array_rejects_any_point_outside(self):
        up = BellmanSurface(SurfaceKind.AINF_UPPER, 2.0)
        with pytest.raises(DomainError, match=r"\(1.0, 0.5\)"):
            hessian(up, np.array([1.0, 1.0, 1.0]), np.array([-0.3, 0.5, -0.2]))


class TestHessianSignature:
    def test_entries_far_above_one_scale_the_eigenvalue_bound(self):
        low = BellmanSurface(SurfaceKind.AINF_LOWER, 200.0)
        excess, threshold, res = hessian_signature(low, *interior_grid(low, 16, 16))
        assert threshold == 1e-8
        assert np.max(np.abs(res.matrix)) > 1e30
        assert np.max(excess) <= threshold
        # an absolute bound reads rounding in entries this large as a failure
        assert np.max(-res.eigenvalues[0]) > threshold

    @pytest.mark.parametrize(
        "surface",
        [
            BellmanSurface(SurfaceKind.AINF_LOWER, 200.0),
            BellmanSurface(SurfaceKind.AINF_LOWER, 1.5),
            gehring_surface(1.0),
            gehring_surface(300.0),
            BellmanSurface(SurfaceKind.AINF_UPPER, 5.0),
        ],
        ids=["lower-q200", "lower-q1.5", "gehring-q1", "gehring-q300", "upper-q5"],
    )
    def test_flipped_sign_fails(self, surface, monkeypatch):
        xs, ys = interior_grid(surface, 16, 16)
        excess, threshold, _ = hessian_signature(surface, xs, ys)
        assert np.max(excess) <= threshold
        closed = bellman._closed_hessian
        monkeypatch.setattr(bellman, "_closed_hessian", lambda *args: -closed(*args))
        excess, threshold, _ = hessian_signature(surface, xs, ys)
        assert np.max(excess) > threshold


class TestFloatPathPins:
    """Float-path outputs frozen from the scalar-only implementation.

    The float path keeps its arithmetic when arrays are accepted too, so
    these compare exactly.
    """

    def test_hessian(self):
        # the ainf_upper row is the scalar-only code's output at gamma_log(5) =
        # 0.07967816051147651, the correctly rounded root (it read 2 ulp high before
        # gamma_log took its fixed-point step in q)
        cases = [
            (BellmanSurface(SurfaceKind.AINF_UPPER, 5.0), 1.3, math.log(1.3) - 0.5 * math.log(5.0),
             [[-0.19373300315607395, 1.2518529041028963], [1.2518529041028963, -8.0891519151662]],
             (-8.282884918322274, 5.551115123125783e-17), -2.7796718351578086e-16),
            (gehring_surface(1.0), 1.1, 1.1 * math.log(1.1) + 0.3 * 1.1,
             [[-0.6755407536279063, 0.2190057610736932], [0.2190057610736932, -0.07100019225470196]],
             (-0.7465409458826082, -1.3877787807814457e-17), 0.0),
            (BellmanSurface(SurfaceKind.AINF_LOWER, 1.2), 1.6, 1.6 * math.log(1.6) + 0.6 * 1.2 * 1.6,
             [[4.108016281957256, -2.7376996608425217], [-2.7376996608425217, 1.824481433020582]],
             (0.0, 5.932497714977838), 0.0),
        ]
        for surface, x, y, matrix, eigenvalues, det in cases:
            res = hessian(surface, x, y)
            assert res.matrix.tolist() == matrix
            assert res.eigenvalues == eigenvalues
            assert type(res.det) is float and res.det == det
            assert res.boundary_warning is False

    def test_tangent_linearity(self):
        cases = [
            (BellmanSurface(SurfaceKind.AINF_UPPER, 5.0),
             [1.4210854715202004e-14, 2.842170943040401e-14, 5.684341886080802e-14]),
            (gehring_surface(1.0), [4.440892098500626e-16, 1.7763568394002505e-15, 5.329070518200751e-15]),
            (BellmanSurface(SurfaceKind.AINF_LOWER, 1.2),
             [1.7763568394002505e-15, 1.7763568394002505e-15, 2.6645352591003757e-15]),
        ]
        for surface, devs in cases:
            got = [float(tangent_linearity_excess(surface, v)[2]) for v in (0.5, 1.0, 1.9)]
            assert all(type(d) is float for d in got)
            assert got == devs

    def test_int_and_numpy_scalars_take_the_float_path(self):
        # anything that is not an ndarray takes math: an int or numpy scalar point gives
        # the types and bits of the same point as floats (ints went through numpy before)
        cases = [
            (BellmanSurface(SurfaceKind.AINF_UPPER, 5.0), (1, 0)),
            (BellmanSurface(SurfaceKind.AINF_UPPER, 5.0), (3, 1)),
            (gehring_surface(1.0), (2, 2)),
            (BellmanSurface(SurfaceKind.AINF_LOWER, 2.0), (1, 1)),
        ]

        def outputs(surface, x, y):
            h = hessian(surface, x, y)
            return [
                in_domain(surface, x, y),
                evaluate_surface(surface, x, y),
                tangent_point(surface, x, y),
                h.matrix.tobytes(), h.eigenvalues, h.det, h.boundary_warning,
            ]

        for surface, point in cases:
            want = outputs(surface, *map(float, point))
            for kind in (int, np.int64, np.float64):
                got = outputs(surface, *map(kind, point))
                assert [type(v) for v in got] == [type(v) for v in want], (kind, surface.kind)
                assert repr(got) == repr(want), (kind, surface.kind)

    def test_float32_and_float16_scalars_give_the_float_point(self):
        # numpy keeps np.float32 * float in float32: a narrow scalar is taken as a float
        # first, so a point it holds exactly gives the float point's bits and types
        cases = [
            (BellmanSurface(SurfaceKind.AINF_LOWER, 2.0), (1.0, 1.5)),
            (BellmanSurface(SurfaceKind.AINF_UPPER, 5.0), (3.0, 0.5)),
            (gehring_surface(1.0), (2.0, 2.0)),
        ]
        for surface, point in cases:
            h = hessian(surface, *point)
            want = [in_domain(surface, *point), evaluate_surface(surface, *point), tangent_point(surface, *point),
                    h.matrix.tobytes(), h.eigenvalues, h.det, h.boundary_warning]
            for kind in (np.float32, np.float16):
                x, y = map(kind, point)
                h = hessian(surface, x, y)
                got = [in_domain(surface, x, y), evaluate_surface(surface, x, y), tangent_point(surface, x, y),
                       h.matrix.tobytes(), h.eigenvalues, h.det, h.boundary_warning]
                assert [type(v) for v in got] == [type(v) for v in want], (kind, surface.kind)
                assert repr(got) == repr(want), (kind, surface.kind)


def _array_path_digest() -> str:
    """sha256 over the tobytes() of the array surface path's outputs, in a fixed order.

    Per surface and q: evaluate_many at seeded points from below the lower to above the
    upper boundary, with nan, +-inf, 0 and 5e-324 mixed into x and y (one call of more
    than bellman._BLOCK points, so block cuts enter too); the array Hessian at the points
    inside; tangent_linearity_excess's deviations at seeded v.  Then sharpness_sweep over 3,000
    log-uniform q in [1e-15, 700].
    """
    rng = np.random.default_rng(20140)
    special = np.array([math.nan, math.inf, -math.inf, 0.0, 5e-324, -5e-324, 1.0])
    surfaces = [
        *(BellmanSurface(SurfaceKind.AINF_UPPER, q) for q in (1.5, 3.0, 50.0, 1e4, 1e12)),
        *(gehring_surface(q, frac) for q, frac in ((0.05, 0.3), (1.0, 0.5), (20.0, 0.9), (700.0, 0.5))),
        *(BellmanSurface(SurfaceKind.AINF_LOWER, q) for q in (0.05, 1.0, 20.0, 250.0, 700.0)),
    ]
    h = hashlib.sha256()
    with np.errstate(all="ignore"):
        for k, surface in enumerate(surfaces):
            n = 9000 if k == 0 else 1500
            x = np.exp(rng.uniform(-6.0, 6.0, n))
            frac = np.concatenate([rng.uniform(-0.1, 1.1, n - 200), np.tile([0.0, 1.0], 100)])
            if surface.entropy_coordinates:
                y = x * np.log(x) + frac * surface.q * x
            else:
                y = np.log(x) - frac * math.log(surface.q)
            x[rng.integers(0, n, 60)] = rng.choice(special, 60)
            y[rng.integers(0, n, 60)] = rng.choice(special, 60)
            h.update(evaluate_many(surface, x, y).tobytes())
            inside = in_domain(surface, x, y, tol=1e-9) & (frac > 0.0) & (frac < 1.0)
            h.update(hessian(surface, x[inside], y[inside]).matrix.tobytes())
            v = np.concatenate([np.exp(rng.uniform(-8.0, 8.0, 40)), [5e-324, 1.0]])
            h.update(tangent_linearity_excess(surface, v)[2].tobytes())
        qs = np.exp(rng.uniform(math.log(1e-15), math.log(700.0), 3000))
        h.update(np.array(sharpness_sweep(tuple(qs.tolist()))).tobytes())
    return h.hexdigest()


class TestArrayPathPin:
    def test_outputs_bit_identical(self):
        # one bit moved in any of these outputs moves the digest
        assert _array_path_digest() == ARRAY_PATH_SHA256


def _extended_value(surface, x, y):
    """evaluate_many's value in numpy's long double (a 64-bit significand on x86), gamma from 50 digits.

    The same tangent equation u - log u = 1 + c1 as bellman's, its root by Halley
    steps in s = log u to 4e-19, with e^s - 1 - s from its series below |s| = 1/2.
    """
    ld = np.longdouble
    X, Y, q = x.astype(ld), y.astype(ld), ld(surface.q)
    with mpmath.workdps(50):
        c = mpmath.log(surface.q) if surface.kind is SurfaceKind.AINF_UPPER else mpmath.mpf(surface.q)
        upper = surface.kind is SurfaceKind.GEHRING
        g = ld(mpmath.nstr(-mpmath.re(mpmath.lambertw(-mpmath.exp(-1 - c), -1 if upper else 0)), 30))
    if surface.kind is SurfaceKind.AINF_UPPER:
        c1_lower, height = np.log(q), np.log(X) - Y
    else:
        c1_lower, height = q, (Y - X * np.log(X)) / X
    c1 = np.minimum(np.maximum(c1_lower - height, 0), c1_lower)
    lo, hi = (np.log1p(c1), np.log1p(c1) + np.log(ld(2))) if upper else (-1 - c1, -c1)
    s = np.minimum(np.maximum((1 if upper else -1) * np.sqrt(2 * c1), lo), hi)
    series = [1 / ld(math.factorial(k + 2)) for k in reversed(range(24))]
    for _ in range(60):
        acc = np.zeros_like(s)
        for coeff in series:
            acc = acc * s + coeff
        em1 = np.expm1(s)
        d = (np.where(np.abs(s) < 0.5, s * s * acc, em1 - s) - c1) / em1
        d = d / (1 - d / 2 * (1 + 1 / em1))
        s = s - d
        if np.all(np.abs(d) <= ld(4e-19) * (1 + np.abs(s))):
            break
    u = np.where(c1 == c1_lower, g, np.exp(s))
    if surface.kind is SurfaceKind.AINF_UPPER:
        v = X * g / u
        return X * np.log(v) + (X - v) / g
    v = X * u / g
    if upper:
        eps = ld(surface.eps)
        return np.exp(eps * np.log(v)) * (X * (1 + eps) - eps * g * v) / (1 + eps - g * eps)
    return np.log(v) + (X - v) / (g * v)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="the reference needs an extended long double")
class TestSurfaceAccuracy:
    """evaluate_many against a long-double reference on 10,000 seeded points per surface, the worst against mpmath."""

    BANDS = {SurfaceKind.AINF_UPPER: ((1.5, 100.0), (1e3, 1e6)), SurfaceKind.GEHRING: ((0.05, 20.0), (50.0, 700.0)),
             SurfaceKind.AINF_LOWER: ((0.05, 10.0), (80.0, 250.0))}
    # the largest relative error on these points from the Lambert W series start (4 Halley steps)
    SERIES_START_WORST = {SurfaceKind.AINF_UPPER: 7.2016747048858706e-12, SurfaceKind.GEHRING: 6.434379925615709e-15,
                          SurfaceKind.AINF_LOWER: 6.221133243381149e-12}

    @pytest.mark.parametrize("kind", list(BANDS), ids=lambda k: k.value)
    def test_worst_error_is_the_series_starts(self, kind):
        rng = np.random.default_rng(27)
        worst = []  # (error, surface, x, y) per q
        for lo, hi in self.BANDS[kind]:
            for q in np.exp(rng.uniform(math.log(lo), math.log(hi), 5)).tolist():
                surface = gehring_surface(q, float(rng.uniform(0.1, 0.9))) if kind is SurfaceKind.GEHRING \
                    else BellmanSurface(kind, q)
                # 1,000 points: 400 anywhere, 300 within 1% of the height of each boundary
                x = rng.uniform(0.3, 3.0, 1000)
                frac = np.concatenate([rng.uniform(0.0, 1.0, 400), rng.uniform(0.0, 0.01, 300), rng.uniform(0.99, 1.0, 300)])
                y = np.log(x) - frac * math.log(q) if kind is SurfaceKind.AINF_UPPER else x * np.log(x) + frac * q * x
                want = _extended_value(surface, x, y)
                err = np.abs((evaluate_many(surface, x, y) - want) / want).astype(float)
                worst += [(err[k], surface, x[k], y[k]) for k in np.argsort(err)[-2:]]
        worst.sort(key=lambda w: w[0])
        assert worst[-1][0] <= min(1.5 * self.SERIES_START_WORST[kind], 1e-10)
        for err, surface, x, y in worst[-3:]:  # at the worst points, against 50-digit mpmath
            want, got = mp_value(surface, float(x), float(y)), float(evaluate_many(surface, x, y))
            ext = float(_extended_value(surface, np.array([x]), np.array([y]))[0])
            # the reference is as ill-conditioned as the value, with 11 more bits: under 1% of the error
            assert abs(ext - want) <= max(0.01 * abs(got - want), 1e-17 * abs(want))
            assert abs(got - want) <= 1.5 * self.SERIES_START_WORST[kind] * abs(want)


class TestBoundsCheck:
    def test_envelope_holds_and_ratio_at_e(self):
        rep = bounds_check_ainf(math.e, grid=80)
        assert rep.max_lower_violation <= 1e-9
        assert rep.max_upper_violation <= 1e-9
        assert rep.ratio_max == pytest.approx(RATIO_BOUND_E, rel=1e-12)
        assert rep.ratio_max <= rep.ratio_bound + 1e-12

    def test_various_q(self):
        for q in (1.2, 3.0, 20.0):
            rep = bounds_check_ainf(q, grid=60)
            assert rep.max_lower_violation <= 1e-9
            assert rep.max_upper_violation <= 1e-9

    def test_passed_is_the_envelope_verdict(self, monkeypatch):
        assert bounds_check_ainf(2.0, grid=8).passed is True
        assert bounds_check_ainf(1e308, grid=8).passed is False  # overflows to nan, with no warning
        # the surface 2e-9 past its upper envelope: a violation over 1e-9 fails
        many = bellman.evaluate_many
        monkeypatch.setattr(
            bellman, "evaluate_many", lambda s, x, y: np.maximum(many(s, x, y), x * np.log(x) + math.e * s.q * x + 2e-9)
        )
        rep = bounds_check_ainf(2.0, grid=8)
        assert rep.max_upper_violation > 1e-9 and rep.passed is False

    def test_ratio_bound_near_q_1_matches_mpmath(self):
        # the direct form log g + 1/g - 1 was 9.4e-7 off at q = 1 + 1e-12
        for q in (1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 1e-6, 1.001, 1.5, 1.88):
            with mpmath.workdps(60):
                g = -mpmath.re(mpmath.lambertw(-mpmath.exp(-1 - mpmath.log(mpmath.mpf(q)))))
                want = mpmath.log(g) + 1 / g - 1
            got = bounds_check_ainf(q, grid=2).ratio_bound
            assert abs(got - want) <= 1e-15 * want

    def test_ratio_bound_bytes_from_q_1_89(self):
        # below g = 1/4 solvers._log_bound's direct form, at gamma_log's g, bit for bit
        for q, pinned in RATIO_BOUNDS_FROM_1_89:
            assert bounds_check_ainf(q, grid=2).ratio_bound == pinned
            with mpmath.workdps(50):
                g = -mpmath.lambertw(-1 / (mpmath.e * mpmath.mpf(q))).real
                assert abs(pinned - (mpmath.log(g) + 1 / g - 1)) <= 2.0 * math.ulp(pinned)

    def test_continuity_of_surface_along_path(self):
        # Lipschitz sanity sweep: small steps in (x, y) move B by O(step)
        up = BellmanSurface(SurfaceKind.AINF_UPPER, 3.0)
        xs = np.linspace(0.5, 2.0, 400)
        ys = np.log(xs) - 0.5 * math.log(3.0)
        vals = [evaluate_surface(up, float(x), float(y)) for x, y in zip(xs, ys)]
        diffs = np.abs(np.diff(vals))
        assert np.max(diffs) <= 0.05
