import dataclasses
import functools
import json
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from weightlab import (
    DomainError,
    ExtremalSpec,
    Family,
    InfeasibleTargetError,
    Interval,
    MomentKind,
    ParameterError,
    ainf_constant,
    attainment_check,
    build,
    default_target,
    divergence_probe,
    evaluate_weight,
    moment,
    constant_weight,
    rh1_constant,
    sharpness_sweep,
)
from weightlab import bellman, cli, extremals
from weightlab.bellman import _BLOCK, BellmanSurface, SurfaceKind, bounds_check_ainf
from weightlab.solvers import eps_minus, gamma_entropy_roots

from _frozen import (
    ALPHA_BOUNDARY_1,
    GAMMA_MINUS_1,
    GAMMA_PLUS_1,
    GEHRING_B_1_03,
    RATIO_BOUND_E,
    SWEEP_ROWS,
)


def decimal_qs():
    """912 q in (1, 1e300] written as decimals: m 10^k, and 1 + 10^-k down to 1 + 1e-12.

    Not e^x of a double: for those the rounded log q is x to ~1e-16 absolute,
    which hides a root solved at the rounded log q instead of at q itself.
    """
    qs = [float(f"{m}e{k}") for k in range(0, 301, 2) for m in ("1", "1.234", "2", "3.7", "5", "8.9")]
    qs += [float("1." + "0" * (k - 1) + "1") for k in range(1, 13)]
    return tuple(sorted(q for q in qs if 1.0 < q <= 1e300))


@functools.cache
def mp_e_ratios(qs):
    """(log g + 1/g - 1)/q with 50 digits, g = -W0(-1/(e q)) the root in (0, 1) of t - log t = 1 + log q."""
    with mpmath.workdps(50):
        gs = [-mpmath.lambertw(-1 / (mpmath.e * mpmath.mpf(q))).real for q in qs]
        return [(mpmath.log(g) + 1 / g - 1) / mpmath.mpf(q) for g, q in zip(gs, qs)]


def e_ratio_errors(qs):
    """Relative error of sharpness_sweep's e_ratio against mp_e_ratios, as an array."""
    rows = sharpness_sweep(qs)
    return np.array([float(abs((row[1] - want) / want)) for row, want in zip(rows, mp_e_ratios(qs))])


def eps_mid(q, frac=0.5):
    gp = gamma_entropy_roots(q)[1].root
    return frac / (gp - 1.0)


class TestBuild:
    def test_boundary_family_is_pure_power(self):
        w = build(ExtremalSpec(Family.GEHRING_BOUNDARY, 1.0))
        assert len(w.pieces) == 1
        piece = w.pieces[0]
        assert piece.coeff == pytest.approx(1.0, rel=1e-12)
        assert piece.exponent == pytest.approx(ALPHA_BOUNDARY_1, abs=1e-13)

    def test_funny_family_shape(self):
        w = build(ExtremalSpec(Family.FUNNY, 1.0))
        assert len(w.pieces) == 1
        assert w.pieces[0].coeff == pytest.approx(1.0 / GAMMA_MINUS_1, rel=1e-12)
        assert w.pieces[0].exponent == pytest.approx(
            (1.0 - GAMMA_MINUS_1) / GAMMA_MINUS_1, rel=1e-12
        )

    def test_funny_moments_hit_the_corner(self):
        w = build(ExtremalSpec(Family.FUNNY, 1.0))
        full = Interval(0.0, 1.0)
        assert moment(w, full, MomentKind.AVG_W) == pytest.approx(1.0, rel=1e-12)
        # avg log w = -log(bound): the flatness of this weight is the bound
        assert moment(w, full, MomentKind.AVG_LOG_W) == pytest.approx(
            -RATIO_BOUND_E, rel=1e-12
        )

    def test_glued_weight_reproduces_first_coordinate(self):
        for q in (1.5, 3.0):
            spec = ExtremalSpec(Family.AINF_UPPER, q)
            w = build(spec)
            x, _ = default_target(spec)
            assert moment(w, Interval(0.0, 1.0), MomentKind.AVG_W) == pytest.approx(
                x, rel=1e-12
            )

    def test_interior_target_on_unit_tangent_glues_constant(self):
        x = (1.0 + GAMMA_PLUS_1) / 2.0
        y = GAMMA_PLUS_1 * (x - 1.0)
        spec = ExtremalSpec(Family.GEHRING_INTERIOR, 1.0, target=(x, y), eps=eps_mid(1.0))
        w = build(spec)
        # tangent point v = 1: tail value 1, spike reaching x at the origin side
        assert evaluate_weight(w, 1.0) == pytest.approx(1.0, rel=1e-9)
        assert moment(w, Interval(0.0, 1.0), MomentKind.AVG_W) == pytest.approx(x, rel=1e-10)

    def test_infeasible_targets_raise(self):
        with pytest.raises(InfeasibleTargetError):
            build(ExtremalSpec(Family.AINF_UPPER, 2.0, target=(1.0, 0.5)))
        with pytest.raises(InfeasibleTargetError):
            build(ExtremalSpec(Family.GEHRING_BOUNDARY, 1.0, target=(1.0, 0.0)))
        with pytest.raises(InfeasibleTargetError):
            build(
                ExtremalSpec(
                    Family.GEHRING_INTERIOR, 1.0, target=(1.0, -0.5), eps=eps_mid(1.0)
                )
            )

    @pytest.mark.parametrize("q", [6.7e15, 1e20, 1e30, 1e300])
    def test_spike_past_the_double_range_refused_with_q_and_target(self, q):
        # from q ~ 6.63e15 the default target's gamma - 1 rounds to -1.0: t^-1 is not integrable at 0
        spec = ExtremalSpec(Family.AINF_UPPER, q)
        x, y = default_target(spec)
        want = f"ainf_upper at q = {q!r}, target ({x!r}, {y!r}): its spike t^-1.0 "
        with pytest.raises(DomainError, match="^" + re.escape(want)):
            build(spec)
        assert cli.main(["extremal", "--family", "ainf", "--q", repr(q)]) == 2

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            ExtremalSpec(Family.AINF_UPPER, 1.0)  # upper family needs q > 1
        with pytest.raises(ParameterError):
            ExtremalSpec(Family.FUNNY, 0.0)


class TestAttainment:
    def test_default_targets_attained(self):
        for family, q, eps in (
            (Family.AINF_UPPER, 2.0, None),
            (Family.GEHRING_BOUNDARY, 1.0, 0.3),
            (Family.GEHRING_INTERIOR, 1.0, eps_mid(1.0)),
            (Family.FUNNY, 1.0, None),
        ):
            rep = attainment_check(ExtremalSpec(family, q, eps=eps))
            assert abs(rep.gap) <= 1e-10, family

    def test_boundary_value_matches_frozen_surface_value(self):
        rep = attainment_check(ExtremalSpec(Family.GEHRING_BOUNDARY, 1.0), eps=0.3)
        assert rep.surface_value == pytest.approx(GEHRING_B_1_03, rel=1e-12)
        assert rep.weight_value == pytest.approx(GEHRING_B_1_03, rel=1e-12)

    def test_random_targets_attained(self):
        rng = np.random.default_rng(42)
        count = 0
        for _ in range(50):
            q = float(rng.uniform(1.2, 5.0))
            x = float(rng.uniform(0.3, 2.5))
            f = float(rng.uniform(0.05, 0.95))
            spec = ExtremalSpec(
                Family.AINF_UPPER, q, target=(x, math.log(x) - f * math.log(q))
            )
            rep = attainment_check(spec)
            assert abs(rep.gap) <= 1e-6
            count += 1
        assert count == 50

    def test_random_interior_gehring_targets(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            q = float(rng.uniform(0.5, 3.0))
            x = float(rng.uniform(0.4, 2.0))
            f = float(rng.uniform(0.05, 0.9))
            y = x * math.log(x) + f * q * x
            spec = ExtremalSpec(
                Family.GEHRING_INTERIOR, q, target=(x, y), eps=eps_mid(q, 0.4)
            )
            rep = attainment_check(spec)
            assert abs(rep.gap) <= 1e-6

    def test_constant_attainment_values(self):
        # the built weight's sup-type constant is q: exp-entropy for AINF_UPPER, entropy otherwise
        measured, _ = ainf_constant(build(ExtremalSpec(Family.AINF_UPPER, 2.0)), resolution=201)
        assert measured == pytest.approx(2.0, abs=1e-9)
        measured, _ = rh1_constant(build(ExtremalSpec(Family.FUNNY, 1.0)), resolution=201)
        assert measured == pytest.approx(1.0, abs=1e-9)
        measured, _ = rh1_constant(build(ExtremalSpec(Family.GEHRING_BOUNDARY, 1.0, eps=0.3)), resolution=201)
        assert measured == pytest.approx(1.0, abs=1e-9)


# targets at x = 1 a fraction u of the way up from the lower boundary curve, where the glue point is under 1e-12:
# AINF_UPPER at y = -u log q, GEHRING_INTERIOR (eps = 0.1) at y = u q
NEAR_LOWER = [(Family.AINF_UPPER, q, -u * math.log(q), None) for q, u in ((2.0, 1e-13), (100.0, 1e-11),
                                                                        (1e4, 1e-9), (1e6, 1e-7))]
NEAR_LOWER += [(Family.GEHRING_INTERIOR, q, u * q, 0.1) for q, u in ((5.0, 1e-11), (5.0, 1e-13), (0.5, 1e-12),
                                                                    (2.0, 1e-12))]


@pytest.mark.parametrize("family, q, y, eps", NEAR_LOWER,
                         ids=[f"{f.value}-q{q:g}-y{y:.3g}" for f, q, y, _ in NEAR_LOWER])
def test_target_near_the_lower_boundary_keeps_its_spike(family, q, y, eps):
    # a glue point under 1e-12 collapsed to the constant weight v, whose mean is v, not x:
    # gap -1.0 at q = 1e6; the spike lands on the target's point
    spec = ExtremalSpec(family, q, target=(1.0, y), eps=eps)
    w = build(spec)
    full = Interval(0.0, 1.0)
    second = MomentKind.AVG_LOG_W if family is Family.AINF_UPPER else MomentKind.AVG_W_LOG_W
    assert len(w.pieces) == 2
    assert abs(moment(w, full, MomentKind.AVG_W) - 1.0) <= 1e-15
    assert abs(moment(w, full, second) - y) <= 1e-14 * max(1.0, abs(y))
    assert abs(attainment_check(spec).gap) <= 1e-9


GEHRING = (Family.GEHRING_BOUNDARY, Family.GEHRING_INTERIOR)
# a target at a fraction of the way up the domain: 0 and 1 on its boundary curves, -0.5 and 1.5 outside
FRACTIONS = st.sampled_from((0.0, 1.0, -0.5, 1.5)) | st.floats(0.0, 1.0)


def _outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _composed(spec, eps):
    """attainment_check as build, evaluate and moment composed: the report and the weight."""
    eff_eps = eps if eps is not None else spec.eps
    if spec.family in GEHRING:
        if eff_eps is None:
            raise ParameterError("gehring attainment needs eps")
        spec = ExtremalSpec(spec.family, spec.q, spec.target, eff_eps)
    w = build(spec)
    target = spec.target if spec.target is not None else default_target(spec)
    x, y = target
    value = bellman.evaluate(extremals._surface_for(spec), x, y)
    if spec.family is Family.FUNNY and tuple(target) != default_target(spec):
        raise InfeasibleTargetError(
            f"target ({x}, {y}): the funny weight for q = {spec.q} attains only {default_target(spec)}"
        )
    full = Interval(0.0, 1.0)
    if spec.family is Family.AINF_UPPER:
        measured = moment(w, full, MomentKind.AVG_W_LOG_W)
    elif spec.family is Family.FUNNY:
        measured = moment(w, full, MomentKind.AVG_LOG_W)
    else:
        measured = moment(w, full, MomentKind.AVG_W_POW, p=1.0 + eff_eps)
    return extremals.AttainmentReport(value, measured, (measured - value) / max(1.0, abs(value)), x, y), w


def _bits(outcome):
    """An outcome as text that tells every bit: repr of each report field and weight piece (nan == nan)."""
    if isinstance(outcome[0], type):
        return outcome
    report, w = outcome
    return [repr(v) for v in dataclasses.astuple(report)], repr(w)


@st.composite
def _attain_case(draw):
    """(spec, eps): a family, q log-uniform over its accepted range, a target and eps."""
    family = draw(st.sampled_from(Family))
    if family is Family.AINF_UPPER:  # q - 1 from 1e-12 to 1e300, past 1e10 included
        q = 1.0 + 10.0 ** draw(st.floats(-12.0, 300.0))
    else:  # the entropy roots refuse q past 743
        q = 10.0 ** draw(st.floats(-10.0, math.log10(800.0)))
    target = None
    if draw(st.integers(0, 4)):
        x = 10.0 ** draw(st.floats(-3.0, 3.0)) if draw(st.integers(0, 9)) else draw(st.sampled_from((0.0, -1.0)))
        f = draw(FRACTIONS)
        if family is Family.AINF_UPPER:
            y = math.log(x) - f * math.log(q) if x > 0.0 else 0.0
        else:
            y = x * math.log(x) + f * q * x if x > 0.0 else 0.0
        target = (np.float32(x), np.float32(y)) if draw(st.integers(0, 3)) == 0 else (x, y)
    eps = None
    if family in GEHRING and draw(st.integers(0, 5)):
        frac = draw(st.floats(0.01, 1.5))  # past 1: outside the surface's eps range
        try:
            eps = frac / (gamma_entropy_roots(q)[1].root - 1.0)
        except ParameterError:
            eps = frac
    if draw(st.booleans()):
        return ExtremalSpec(family, q, target, eps), None
    return ExtremalSpec(family, q, target), eps


def _attain_mismatch(spec, eps):
    """None when _attain gives build's weight and the composed report, bit for bit, or the same refusal."""
    got, want = _bits(_outcome(extremals._attain, spec, eps)), _bits(_outcome(_composed, spec, eps))
    return None if got == want else (got, want)


class TestOneBuild:
    """attainment_check builds its weight once and solves its tangent point once; the report is the
    one that build, evaluate and moment composed would give."""

    @given(_attain_case())
    @example((ExtremalSpec(Family.AINF_UPPER, 3.0, (np.float32(2.0), np.float32(0.2))), None))
    @example((ExtremalSpec(Family.AINF_UPPER, 1e6, (1.0, 0.0)), None))  # the lower boundary: u = g, v = x
    @example((ExtremalSpec(Family.AINF_UPPER, 1e6, (1.0, -math.log(1e6))), None))
    @example((ExtremalSpec(Family.AINF_UPPER, 1e12), None))
    @example((ExtremalSpec(Family.AINF_UPPER, 2.0, (1.0, 0.5)), None))
    @example((ExtremalSpec(Family.AINF_UPPER, 1.01, (5e-324, math.log(5e-324))), None))
    @example((ExtremalSpec(Family.GEHRING_INTERIOR, 3.0, (2.0, 2.0 * math.log(2.0))), eps_mid(3.0)))
    @example((ExtremalSpec(Family.GEHRING_INTERIOR, 3.0, (2.0, 2.0 * math.log(2.0) + 6.0)), eps_mid(3.0)))
    @example((ExtremalSpec(Family.GEHRING_INTERIOR, 4.461070114325701e-07, (5e-324, 1e-17)), 0.3))
    @example((ExtremalSpec(Family.GEHRING_BOUNDARY, 1.0), 0.3))
    @example((ExtremalSpec(Family.GEHRING_BOUNDARY, 1.0, (1.0, 0.0)), 0.3))
    @example((ExtremalSpec(Family.GEHRING_INTERIOR, 1.0), None))
    @example((ExtremalSpec(Family.FUNNY, 1.0, (2.0, 1.5)), None))
    @example((ExtremalSpec(Family.FUNNY, 1.0, (5e-324, -3.676e-321)), None))
    @example((ExtremalSpec(Family.FUNNY, 1.0, (np.float32(1.0), np.float32(1.0))), None))
    def test_one_build_is_the_composition(self, case):
        assert _attain_mismatch(*case) is None

    def test_value_from_the_next_abscissa_fails(self, monkeypatch):
        # negative control: a value formed one ulp of v away is another report
        at = bellman._evaluate_at
        monkeypatch.setattr(extremals, "_evaluate_at", lambda s, x, y, v: at(s, x, y, np.nextafter(v, math.inf)))
        cases = [(ExtremalSpec(Family.AINF_UPPER, q), None) for q in (1.5, 3.0)]
        cases += [(ExtremalSpec(Family.GEHRING_INTERIOR, q), eps_mid(q)) for q in (0.5, 3.0)]
        assert all(_attain_mismatch(*case) is not None for case in cases)


class TestOneSolve:
    """Each scalar CLI answer solves its tangent point once (bellman._tangent_solve, counted)."""

    @pytest.fixture()
    def solves(self, monkeypatch):
        count, solve = [0], bellman._tangent_solve

        def counted(*args):
            count[0] += 1
            return solve(*args)

        monkeypatch.setattr(bellman, "_tangent_solve", counted)
        return count

    @pytest.mark.parametrize("argv", [
        ["ainf", "--q", "12345.678"],
        ["ainf", "--q", "3.0", "--x", "2.0", "--y", "0.2"],
        ["gehring-interior", "--q", "3.0", "--eps", "0.2"],
        ["gehring-boundary", "--q", "3.0", "--eps", "0.2"],
        ["funny", "--q", "3.0"],
    ])
    def test_extremal_with_a_gap_solves_once(self, argv, solves, capsys):
        assert cli.main(["extremal", "--family", *argv]) == 0
        assert "gap" in json.loads(capsys.readouterr().out)
        assert solves[0] == 1

    @pytest.mark.parametrize("surface, point", [("ainf-upper", "2.0,0.2"), ("gehring", "2.0,2.5"),
                                                ("ainf-lower", "2.0,2.5")])
    def test_eval_solves_once(self, surface, point, solves, capsys):
        eps = ["--eps", "0.2"] if surface == "gehring" else []
        assert cli.main(["bellman", "--surface", surface, "--q", "3.0", *eps, "--eval", point]) == 0
        assert json.loads(capsys.readouterr().out)["value"] is not None
        assert solves[0] == 1

    @given(st.sampled_from(SurfaceKind), st.floats(-3.0, 2.5), st.floats(-2.0, 2.0), FRACTIONS)
    @example(SurfaceKind.AINF_LOWER, 0.0, -323.3, 0.0)  # x = 5e-324 on the lower boundary: the subnormal-v guard
    @example(SurfaceKind.AINF_UPPER, 6.0, 0.3, 0.0)  # the lower boundary, u = g exactly
    @example(SurfaceKind.GEHRING, 0.5, 0.3, 0.0)
    @example(SurfaceKind.AINF_LOWER, 0.5, 0.3, 0.0)
    def test_value_at_the_tangent_root_is_evaluate(self, kind, log_q, log_x, f):
        q = 10.0**log_q
        if kind is SurfaceKind.AINF_UPPER:
            q += 1.0
        eps = eps_mid(q) if kind is SurfaceKind.GEHRING and q <= 743.0 else None
        surface = _outcome(BellmanSurface, kind, q, eps)
        if isinstance(surface, tuple):
            return
        x = 5e-324 if log_x < -323.0 else 10.0**log_x
        y = math.log(x) - f * math.log(q) if kind is SurfaceKind.AINF_UPPER else x * math.log(x) + f * q * x
        composed = _outcome(lambda: bellman._evaluate_at(surface, x, y, bellman.tangent_point(surface, x, y).root))
        want = _outcome(bellman.evaluate, surface, x, y)
        assert repr(composed) == repr(want)

    def test_subnormal_abscissa_keeps_its_message(self):
        surface = BellmanSurface(SurfaceKind.AINF_LOWER, 1.0)
        v = bellman.tangent_point(surface, 5e-324, -3.676e-321).root
        with pytest.raises(DomainError, match=r"^point \(5e-324, -3.676e-321\): its tangent abscissa times gamma"):
            bellman._evaluate_at(surface, 5e-324, -3.676e-321, v)


class TestDivergenceProbe:
    def test_flat_weight_recovers_length(self):
        vals = divergence_probe(constant_weight(1.0), 2.0, (1e-2, 1e-4))
        assert vals[0] == pytest.approx(1.0 - 1e-2, rel=1e-13)
        assert vals[1] == pytest.approx(1.0 - 1e-4, rel=1e-13)

    def test_critical_exponent_diverges_like_log(self):
        w = build(ExtremalSpec(Family.GEHRING_BOUNDARY, 1.0))
        p_crit = 1.0 + eps_minus(1.0).root
        deltas = (1e-3, 1e-6, 1e-9, 1e-12)
        vals = divergence_probe(w, p_crit, deltas)
        for v, d in zip(vals, deltas):
            assert v == pytest.approx(math.log(1.0 / d), abs=1e-6)
        assert vals == sorted(vals)

    def test_subcritical_exponent_converges(self):
        w = build(ExtremalSpec(Family.GEHRING_BOUNDARY, 1.0))
        vals = divergence_probe(w, 1.3, (1e-2, 1e-4, 1e-8))
        # limit is 1/(1 + 1.3 * alpha), which equals the frozen surface value
        assert vals[-1] < GEHRING_B_1_03
        assert vals == sorted(vals)

    def test_fast_converging_tail_is_cauchy(self):
        # with p = 0.4 the tail is O(delta^0.727), so increments past 1e-12
        # drop below 1e-8; slower tails (p = 1.3) do not get there in range
        w = build(ExtremalSpec(Family.GEHRING_BOUNDARY, 1.0))
        vals = divergence_probe(w, 0.4, (1e-12, 1e-13, 1e-14))
        assert abs(vals[1] - vals[0]) <= 1e-8
        assert abs(vals[2] - vals[1]) <= 1e-8


class TestSweep:
    def test_columns_and_ranges(self):
        rows = sharpness_sweep((0.5, 2.0, 10.0))
        assert [r[0] for r in rows] == [0.5, 2.0, 10.0]
        assert math.isnan(rows[0][1])  # ratio-to-e column undefined at q <= 1
        assert rows[1][1] < math.e
        assert rows[2][1] < math.e
        for row in rows:
            assert 0.0 < row[2] <= 1.0

    def test_large_q_ratio_saturates(self):
        rows = sharpness_sweep((700.0,))
        assert rows[0][2] == 1.0

    def test_empty_input(self):
        assert sharpness_sweep(()) == []

    def test_rejects_bad_q(self):
        with pytest.raises(ParameterError):
            sharpness_sweep((1.0, -2.0))

    def test_matches_frozen_references(self):
        rows = sharpness_sweep(tuple(q for q, _, _ in SWEEP_ROWS))
        for (q, e_ratio, funny_ratio), (want_q, want_e, want_f) in zip(rows, SWEEP_ROWS):
            assert q == want_q
            if math.isnan(want_e):
                assert math.isnan(e_ratio)
            else:
                assert e_ratio == pytest.approx(want_e, rel=1e-14, abs=0.0)
            assert funny_ratio == pytest.approx(want_f, rel=1e-14, abs=0.0)

    def test_e_ratio_matches_mpmath_at_decimal_q(self):
        qs = decimal_qs()
        assert len(qs) >= 800 and qs[0] == 1.0 + 1e-12 and qs[-1] == 1e300
        err, big = e_ratio_errors(qs), np.array(qs) >= 2.0
        assert err[big].max() <= 4e-16
        assert err[~big].max() <= 2e-15

    def test_e_ratio_without_the_step_in_q_fails(self, monkeypatch):
        # negative control: the same sweep solved at the rounded log q alone is ~1e-14 off
        real = extremals._log_bound
        monkeypatch.setattr(extremals, "_log_bound", lambda c1, scale=1.0, q=None: real(c1, scale))
        qs = decimal_qs()
        err = e_ratio_errors(qs)
        assert err[np.array(qs) >= 2.0].max() > 1e-14

    def test_e_ratio_is_the_envelope_ratio_bound(self):
        # one F: bounds_check_ainf's ratio_bound over q is the sweep's e_ratio within 2 ulp
        qs = decimal_qs()[::3]
        for q, (_, e_ratio, _) in zip(qs, sharpness_sweep(qs)):
            assert abs(bounds_check_ainf(q, grid=2).ratio_bound / q - e_ratio) <= 2.0 * math.ulp(e_ratio), q

    def test_blocks_concatenate(self):
        rng = np.random.default_rng(8)
        qs = tuple(np.exp(rng.uniform(math.log(1e-15), math.log(740.0), 3 * _BLOCK + 5)).tolist())
        cuts = (0, _BLOCK, 2 * _BLOCK, 3 * _BLOCK, len(qs))
        parts = [r for a, b in zip(cuts, cuts[1:]) for r in sharpness_sweep(qs[a:b])]
        whole = sharpness_sweep(qs)
        assert len(whole) == len(qs)
        # nan-aware equality of every float
        assert np.array_equal(np.array(whole), np.array(parts), equal_nan=True)

    def test_below_float_resolution_is_refused(self):
        with pytest.raises(ParameterError, match=r"^q = 1e-17 below float resolution, roots collapse to 1$"):
            sharpness_sweep((2.0, 1e-17))
        # every q is checked for sign first, as before the array pass
        with pytest.raises(ParameterError, match=r"^sweep needs q > 0, got -2.0$"):
            sharpness_sweep((1e-17, -2.0))

    def test_edges_raise_no_warning(self):
        qs = (1.2e-16, 1.0, 1.0000000000000002, 689.0, 690.0, 1e300, 7e307, 1.7976931348623157e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = sharpness_sweep(qs)
            # blocks where one column has no row to solve
            sharpness_sweep((0.5, 0.25))
            sharpness_sweep((800.0,))
        assert rows[0][2] == pytest.approx(1.2e-16 / (math.e - 2.0), rel=1e-6)
        # 1/g overflows past q ~ 6.6e307; the ratio, near e, does not
        for _, e_ratio, _ in rows[-3:]:
            assert e_ratio == pytest.approx(math.e, rel=1e-13)
