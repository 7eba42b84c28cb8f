import functools
import math
import warnings

import mpmath
import numpy as np
import pytest

from weightlab import (
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
from weightlab import extremals
from weightlab.bellman import _BLOCK, bounds_check_ainf
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
