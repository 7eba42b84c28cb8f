import json
import math
import sys

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given
from hypothesis import strategies as st

from weightlab import (
    DomainError,
    ExtremalSpec,
    Family,
    Interval,
    MomentKind,
    ParameterError,
    PowerPiece,
    Weight,
    breakpoints,
    constant_weight,
    cumulative_moment,
    evaluate_weight,
    moment,
    power_weight,
    reference_corpus,
    rescale,
    save_weight,
    step_weight,
    truncate,
    weight_from_dict,
    weight_to_dict,
    load_weight,
)
from weightlab import build as build_extremal
from weightlab import weights
from weightlab.solvers import _ops, _rise
from weightlab.weights import _closed_form, _log_span

from _strategies import COEFFS, CUTS, EXPONENTS


class TestConstruction:
    def test_pieces_must_cover_unit_interval(self):
        with pytest.raises(ParameterError):
            Weight((PowerPiece(Interval(0.0, 0.5), 1.0, 0.0),))
        with pytest.raises(ParameterError):
            Weight(
                (
                    PowerPiece(Interval(0.0, 0.4), 1.0, 0.0),
                    PowerPiece(Interval(0.5, 1.0), 1.0, 0.0),
                )
            )

    def test_zero_piece_rejects_nonintegrable_exponent(self):
        with pytest.raises(ParameterError):
            power_weight(1.0, -1.0)
        with pytest.raises(ParameterError):
            power_weight(1.0, -1.5)
        power_weight(1.0, -0.999)  # integrable, fine

    def test_coefficients_must_be_positive(self):
        with pytest.raises(ParameterError):
            constant_weight(0.0)
        with pytest.raises(ParameterError):
            constant_weight(-2.0)

    def test_step_weight_shape(self):
        w = step_weight((0.0, 0.25, 1.0), (4.0, 1.0))
        assert len(w.pieces) == 2
        assert all(p.exponent == 0.0 for p in w.pieces)
        with pytest.raises(ParameterError):
            step_weight((0.1, 1.0), (2.0,))
        with pytest.raises(ParameterError):
            step_weight((0.0, 0.5, 1.0), (2.0,))

    def test_interval_validation(self):
        with pytest.raises(DomainError):
            Interval(0.5, 0.5)
        with pytest.raises(DomainError):
            Interval(0.7, 0.2)
        assert Interval(0.25, 0.75).length == 0.5


class TestEvaluate:
    def test_power_values(self):
        w = power_weight(3.0, 0.5)
        assert evaluate_weight(w, 0.25) == pytest.approx(1.5, rel=1e-15)
        assert evaluate_weight(w, 1.0) == 3.0

    def test_right_piece_wins_at_breakpoint(self):
        w = step_weight((0.0, 0.5, 1.0), (2.0, 0.5))
        assert evaluate_weight(w, 0.5) == 0.5
        assert evaluate_weight(w, 0.49999) == 2.0

    def test_domain_checked(self):
        w = constant_weight(1.0)
        with pytest.raises(DomainError):
            evaluate_weight(w, 0.0)
        with pytest.raises(DomainError):
            evaluate_weight(w, 1.5)

    def test_value_past_the_double_range_is_refused(self):
        # t^-40 at t = 1e-10 is 1e400: the float power raised OverflowError; moment
        # refuses the integral over the same piece
        w = Weight((PowerPiece(Interval(0.0, 1e-12), 1.0, 0.0), PowerPiece(Interval(1e-12, 1.0), 1.0, -40.0)))
        with pytest.raises(DomainError):
            evaluate_weight(w, 1e-10)
        with pytest.raises(DomainError):
            moment(w, Interval(1e-12, 1.0), MomentKind.AVG_W)
        with pytest.raises(DomainError):  # a finite power times the coefficient overflows too
            evaluate_weight(power_weight(1e300, -0.5), 1e-20)
        assert evaluate_weight(w, 0.5) == 0.5**-40


class TestMoments:
    def test_linear_weight_averages(self):
        w = power_weight(1.0, 1.0)
        iv = Interval(0.0, 1.0)
        assert moment(w, iv, MomentKind.AVG_W) == pytest.approx(0.5, rel=1e-14)
        # int_0^1 t log t = -1/4
        assert moment(w, iv, MomentKind.AVG_W_LOG_W) == pytest.approx(-0.25, rel=1e-14)
        assert moment(w, iv, MomentKind.AVG_LOG_W) == pytest.approx(-1.0, rel=1e-14)
        assert moment(w, iv, MomentKind.AVG_W_POW, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_pow_requires_parameter(self):
        w = constant_weight(1.0)
        with pytest.raises(ParameterError):
            moment(w, Interval(0.0, 1.0), MomentKind.AVG_W_POW)

    @pytest.mark.parametrize("kind", ["avg_w", None, 3])
    def test_unknown_kind_is_refused(self, kind):
        # on constant and power pieces alike, by moment and cumulative_moment
        for w in (constant_weight(2.0), power_weight(1.0, 0.5)):
            with pytest.raises(ParameterError, match="unknown moment kind"):
                moment(w, Interval(0.2, 0.6), kind)
            with pytest.raises(ParameterError, match="unknown moment kind"):
                cumulative_moment(w, np.array([0.1, 0.5]), kind)

    def test_divergent_pow_moment_is_inf(self):
        w = power_weight(1.0, -0.6)
        assert moment(w, Interval(0.0, 1.0), MomentKind.AVG_W_POW, 2.0) == math.inf
        # away from zero the same moment is finite
        assert math.isfinite(moment(w, Interval(0.1, 1.0), MomentKind.AVG_W_POW, 2.0))
        # and log moments stay finite even with the singularity at 0
        assert math.isfinite(moment(w, Interval(0.0, 1.0), MomentKind.AVG_LOG_W))

    def test_additivity(self, corpus):
        rng = np.random.default_rng(3)
        for w in corpus[:8]:
            a, m, b = np.sort(rng.uniform(0.0, 1.0, size=3))
            if m - a < 1e-4 or b - m < 1e-4:
                continue
            whole = moment(w, Interval(a, b), MomentKind.AVG_W) * (b - a)
            split = moment(w, Interval(a, m), MomentKind.AVG_W) * (m - a) + moment(
                w, Interval(m, b), MomentKind.AVG_W
            ) * (b - m)
            assert whole == pytest.approx(split, rel=1e-12, abs=1e-12)

    def test_jensen_inequality_random_pairs(self, corpus):
        # avg(log w) <= log(avg w) strictly unless w is constant on the interval
        rng = np.random.default_rng(12)
        for _ in range(1000):
            w = corpus[int(rng.integers(0, len(corpus)))]
            a, b = np.sort(rng.uniform(0.0, 1.0, size=2))
            if b - a < 1e-4:
                continue
            iv = Interval(float(a), float(b))
            lhs = moment(w, iv, MomentKind.AVG_LOG_W)
            rhs = math.log(moment(w, iv, MomentKind.AVG_W))
            assert lhs <= rhs + 1e-12

    def test_against_scipy_quadrature(self, corpus):
        for w in corpus[:6]:
            pts = breakpoints(w)
            ref, _ = scipy.integrate.quad(
                lambda t: evaluate_weight(w, t), 0.125, 1.0, points=pts, limit=200
            )
            got = moment(w, Interval(0.125, 1.0), MomentKind.AVG_W) * 0.875
            assert got == pytest.approx(ref, rel=1e-10)

    def test_near_critical_exponent_stays_accurate(self):
        # p * alpha + 1 of order 1e-16 must not lose digits to cancellation
        alpha = -0.6821555671006273
        p = 1.0 / -alpha
        w = power_weight(1.0, alpha)
        for delta in (1e-3, 1e-6, 1e-9):
            got = moment(w, Interval(delta, 1.0), MomentKind.AVG_W_POW, p) * (1 - delta)
            assert got == pytest.approx(math.log(1.0 / delta), rel=1e-12)

    def test_subnormal_piece_start_overflows_no_ratio(self):
        # e / s overflows at s = 5e-324, its logs do not: the t^-1 piece's mass is
        # log(e / s) = 1074 log 2, and its avg(w log w) is (log s)^2 / 2
        w = weight_from_dict({"pieces": [{"a": 0.0, "b": 5e-324, "coeff": 1.0, "exponent": 0.0},
                                         {"a": 5e-324, "b": 1.0, "coeff": 1.0, "exponent": -1.0}]})
        mass = 1074.0 * math.log(2.0)
        assert moment(w, Interval(0.0, 1.0), MomentKind.AVG_W) == pytest.approx(mass, rel=1e-15)
        assert moment(w, Interval(0.0, 1.0), MomentKind.AVG_W_LOG_W) == pytest.approx(mass * mass / 2.0, rel=1e-15)
        cum = cumulative_moment(w, np.array([0.0, 0.5, 1.0]), MomentKind.AVG_W)
        assert cum.tolist() == pytest.approx([0.0, mass - math.log(2.0), mass], rel=1e-15)

    def test_cumulative_matches_moment(self, corpus):
        # the ainf extremals are spikes t^(g - 1) with g down to 4e-16 on [0, x]
        spikes = [build_extremal(ExtremalSpec(Family.AINF_UPPER, 10.0**k)) for k in (4, 6, 8, 10, 12, 15)]
        kinds = ((MomentKind.AVG_W, None), (MomentKind.AVG_LOG_W, None), (MomentKind.AVG_W_LOG_W, None),
                 (MomentKind.AVG_W_POW, 1.7), (MomentKind.AVG_W_POW, -0.6))
        for w in corpus + spikes:
            pts = np.unique([0.0, 0.5 * w.pieces[0].support.b, 0.2, 0.55, 1.0])
            for kind, p in kinds:
                cum = cumulative_moment(w, pts, kind, p)
                for i in range(len(pts) - 1):
                    direct = moment(w, Interval(pts[i], pts[i + 1]), kind, p)
                    step = (cum[i + 1] - cum[i]) / (pts[i + 1] - pts[i])
                    assert step == pytest.approx(direct, rel=1e-13, abs=1e-300), (kind, p, i)

    def test_moment_matches_the_walk_over_every_piece(self, corpus):
        # moment stops at the first piece past the interval; the reference visits them all
        def walk_all(w, iv, kind, p):
            total = 0.0
            for piece in w.pieces:
                s, e = max(iv.a, piece.support.a), min(iv.b, piece.support.b)
                if e > s:
                    val = weights._piece_integral(piece, s, e, kind, p)
                    if val == math.inf:
                        return math.inf
                    total += val
            return total / iv.length

        many = step_weight([0.0, 0.1, 0.25, 0.4, 0.55, 0.7, 0.9, 1.0], [1.5, 0.3, 4.0, 2.2, 0.7, 6.0, 1.1])
        kinds = ((MomentKind.AVG_W, None), (MomentKind.AVG_LOG_W, None), (MomentKind.AVG_W_LOG_W, None),
                 (MomentKind.AVG_W_POW, 1.7), (MomentKind.AVG_W_POW, -0.6))
        ends = (0.0, 0.05, 0.1, 0.25, 0.33, 0.5, 0.7, 0.95, 1.0)
        for w in corpus + [many]:
            for a in ends:
                for b in (e for e in ends + (w.pieces[0].support.b,) if e > a):
                    for kind, p in kinds:
                        assert moment(w, Interval(a, b), kind, p) == walk_all(w, Interval(a, b), kind, p)

    def test_moment_over_the_least_subnormal_length_is_refused(self):
        # c (e - s) rounds to a multiple of 5e-324 before the division: it read 1.0
        with pytest.raises(DomainError, match="subnormal length"):
            moment(constant_weight(1.4932217896051503), Interval(0.0, 5e-324), MomentKind.AVG_W)

    def test_moment_over_a_subnormal_length_of_1e_310_is_refused(self):
        # c * 1e-310 keeps ~44 bits: it read 1.493221789605168
        with pytest.raises(DomainError, match="subnormal length"):
            moment(constant_weight(1.4932217896051503), Interval(0.0, 1e-310), MomentKind.AVG_W)

    def test_moment_over_the_least_normal_length_is_exact(self):
        c = 1.4932217896051503
        for a in (0.0, 2.0**-1022):
            iv = Interval(a, a + 2.0**-1022)
            assert moment(constant_weight(c), iv, MomentKind.AVG_W) == c
            assert moment(constant_weight(c), iv, MomentKind.AVG_LOG_W) == math.log(c)

    @pytest.mark.parametrize(
        "pts", [[0.5, 0.2], [0.0, 0.6, 0.4, 1.0], [-0.1, 0.5], [0.5, 1.5], [0.2, math.nan]],
        ids=["unsorted", "unsorted-inside", "below-0", "above-1", "nan"],
    )
    def test_cumulative_points_validated(self, pts):
        with pytest.raises(DomainError):
            cumulative_moment(step_weight((0.0, 0.5, 1.0), (1.0, 2.0)), np.array(pts), MomentKind.AVG_W)


class TestTruncate:
    def test_constant_above_level(self):
        w = constant_weight(3.0)
        wn = truncate(w, 2.0)
        assert evaluate_weight(wn, 0.5) == 2.0

    def test_linear_weight_clamped_both_sides(self):
        wn = truncate(power_weight(1.0, 1.0), 2.0)
        assert evaluate_weight(wn, 0.25) == 0.5  # below 1/n, clamped up
        assert evaluate_weight(wn, 0.75) == 0.75  # untouched in the middle

    def test_pointwise_median_formula(self, corpus):
        for w in corpus[:8]:
            for n in (1.5, 4.0):
                wn = truncate(w, n)
                for t in np.linspace(0.01, 1.0, 57):
                    want = min(max(evaluate_weight(w, float(t)), 1.0 / n), n)
                    assert evaluate_weight(wn, float(t)) == pytest.approx(want, rel=1e-12)

    def test_crossings_past_the_double_range(self):
        # (level / coeff) ** (1 / alpha): 1e300^2 overflowed (OverflowError), and
        # 1e-300 / 1e300 underflowed to 0, which a negative power divides by (ZeroDivisionError)
        assert truncate(power_weight(1.0, -0.5), 1e300) == power_weight(1.0, -0.5)
        assert truncate(power_weight(1e300, -0.5), 1e300) == constant_weight(1e300)
        # a crossing inside: 1e-300 t^-1/2 = 1e-299 at t = 0.01
        wn = truncate(power_weight(1e-300, -0.5), 1e299)
        assert [p.coeff for p in wn.pieces] == [1e-300, 1e-299]
        assert wn.pieces[0].support.b == pytest.approx(0.01, rel=1e-15)

    def test_level_validation(self):
        with pytest.raises(ParameterError):
            truncate(constant_weight(1.0), 1.0)
        with pytest.raises(ParameterError):
            truncate(constant_weight(1.0), 0.5)


class TestRescale:
    def test_scales_pointwise(self):
        w = rescale(power_weight(2.0, 0.5), 3.0)
        assert evaluate_weight(w, 0.25) == pytest.approx(3.0, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            rescale(constant_weight(1.0), 0.0)


class TestSerialization:
    def test_round_trip(self, tmp_path, corpus):
        for w in corpus[:8]:
            path = tmp_path / "w.json"
            save_weight(w, path)
            back = load_weight(path)
            assert back == w

    def test_dict_schema(self):
        d = weight_to_dict(step_weight((0.0, 0.5, 1.0), (2.0, 0.5)))
        assert d == {
            "pieces": [
                {"a": 0.0, "b": 0.5, "coeff": 2.0, "exponent": 0.0},
                {"a": 0.5, "b": 1.0, "coeff": 0.5, "exponent": 0.0},
            ]
        }
        assert weight_from_dict(d) == step_weight((0.0, 0.5, 1.0), (2.0, 0.5))

    def test_malformed_payloads_rejected(self):
        with pytest.raises(ParameterError):
            weight_from_dict({})
        with pytest.raises(ParameterError):
            weight_from_dict({"pieces": [{"a": 0.0, "b": 1.0}]})
        with pytest.raises(ParameterError):
            weight_from_dict({"pieces": [{"a": 0.0, "b": 1.0, "coeff": "x", "exponent": 0}]})

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ParameterError):
            load_weight(path)

    def test_json_file_is_plain_json(self, tmp_path):
        path = tmp_path / "w.json"
        save_weight(power_weight(1.0, 0.5), path)
        data = json.loads(path.read_text())
        assert list(data) == ["pieces"]


class TestCorpus:
    def test_deterministic(self):
        a = reference_corpus()
        b = reference_corpus()
        assert a == b

    def test_count_and_validity(self):
        corpus = reference_corpus(count=12, seed=3)
        assert len(corpus) == 12
        for w in corpus:
            assert w.pieces[0].support.a == 0.0
            assert w.pieces[-1].support.b == 1.0


def _outcome(f):
    """f()'s numbers by their bits, or the type and message of what it raises."""
    try:
        return [v.hex() for v in f()]
    except Exception as exc:  # the comparison is the point: any exception must match
        return type(exc), str(exc)


# interval ends: 0, subnormal ones (subnormal lengths), tiny ones, two adjacent doubles, 1
_ENDS = st.sampled_from((0.0, 5e-324, 1e-310, 2e-310, 1e-300, 1e-12, 0.3, 0.30000000000000004, 1.0 - 2**-53, 1.0))


@st.composite
def _huge_weight(draw):
    """One to four pieces, coefficient and exponent each over the double range (tests/_strategies.py)."""
    cuts = sorted({c for c in (draw(CUTS) for _ in range(draw(st.integers(0, 3)))) if 0.0 < c < 1.0})
    bounds = [0.0, *cuts, 1.0]
    return Weight(tuple(
        PowerPiece(Interval(a, b), draw(COEFFS.filter(lambda c: 0.0 < c < math.inf)),
                   draw(EXPONENTS.filter(lambda e, a=a: math.isfinite(e) and (a > 0.0 or e > -1.0))))
        for a, b in zip(bounds, bounds[1:])
    ))


class TestMomentPair:
    """weights._moment_pair is the two moment calls it stands for, in values and in exceptions."""

    @staticmethod
    def _check(w, iv):
        for kind in (MomentKind.AVG_LOG_W, MomentKind.AVG_W_LOG_W):
            want = _outcome(lambda: (moment(w, iv, MomentKind.AVG_W), moment(w, iv, kind)))
            assert _outcome(lambda: weights._moment_pair(w, iv, kind)) == want, (w, iv, kind)

    def test_corpus_intervals(self):
        ends = [0.0, 5e-324, 1e-310, 1e-300, 1e-12, 0.1, 0.25, 0.3, 0.5, 0.7, 1.0 - 2**-53, 1.0]
        for w in reference_corpus(40):
            for a, b in {(a, b) for a in ends + breakpoints(w) for b in ends + breakpoints(w) if a < b}:
                self._check(w, Interval(a, b))

    @given(_huge_weight(), _ENDS | st.floats(0.0, 1.0), _ENDS | st.floats(0.0, 1.0))
    # w log w: +inf on the first piece, where moment stops, and -inf on the second
    @example(Weight((PowerPiece(Interval(0.0, 0.5), 1e300, -0.9999999), PowerPiece(Interval(0.5, 1.0), 1e300, 1e10))),
             0.0, 1.0)
    def test_drawn_weights(self, w, a, b):
        if a != b:
            self._check(w, Interval(min(a, b), max(a, b)))


# a power of exponent -1100 on [0.5, 1]: its pass overflows on [0.5, 1] alone, so [0.9, 1]
# falls back with it; and w log w +inf on one piece, -inf on the next
_STEEP = Weight((PowerPiece(Interval(0.0, 0.5), 1.0, 0.0), PowerPiece(Interval(0.5, 1.0), 1e-300, -1100.0)))
_HUGE = Weight((PowerPiece(Interval(0.0, 0.5), 1e300, -0.9999999), PowerPiece(Interval(0.5, 1.0), 1e300, 1e10)))


class TestMomentPairs:
    """weights._moment_pairs is _moment_pair row by row: its bits, or the type and message it raises.

    Below _PASS_ROWS rows it takes them from _moment_pair itself; these tests lower it
    to 1, so that every row set they pass, however few its rows, takes the array pass.
    """

    def setup_method(self):
        self._pass_rows, weights._PASS_ROWS = weights._PASS_ROWS, 1

    def teardown_method(self):
        weights._PASS_ROWS = self._pass_rows

    @staticmethod
    def _check(w, ends):
        a, b = (np.array(v, dtype=float) for v in zip(*ends))
        for kind in (MomentKind.AVG_LOG_W, MomentKind.AVG_W_LOG_W):
            xy, errors = weights._moment_pairs(w, a, b, kind)
            assert xy.shape == (len(ends), 2) and set(errors) <= set(range(len(ends)))
            for i, (s, e) in enumerate(ends):
                want = _outcome(lambda: weights._moment_pair(w, Interval(s, e), kind))
                got = (type(errors[i]), str(errors[i])) if i in errors else [v.hex() for v in xy[i].tolist()]
                assert got == want, (w, s, e, kind)

    def test_corpus_intervals(self):
        # ends at 0, subnormal starts and lengths, piece ends
        ends = [0.0, 5e-324, 1e-310, 1e-300, 1e-12, 0.1, 0.25, 0.3, 0.5, 0.7, 1.0 - 2**-53, 1.0]
        for w in reference_corpus(40):
            points = sorted(set(ends + breakpoints(w)))
            self._check(w, [(a, b) for a in points for b in points if a < b])

    @pytest.mark.parametrize("alpha", [-0.999, -0.5, -1e-9, 0.0, 1e-9, 0.7, 3.0])
    def test_the_rows_of_a_dyadic_tree(self, alpha):
        # the level-order intervals build_partition passes: halves of [0, 1] down to 2^-9
        ends = [(j / 2**k, (j + 1) / 2**k) for k in range(10) for j in range(2**k)]
        self._check(power_weight(1.7, alpha), ends)
        glued = Weight((PowerPiece(Interval(0.0, 0.3), 1.2, alpha), PowerPiece(Interval(0.3, 1.0), 1.2 * 0.3**alpha, 0.0)))
        self._check(glued, ends)

    @given(_huge_weight(), st.lists(st.tuples(_ENDS | st.floats(0.0, 1.0), _ENDS | st.floats(0.0, 1.0))
                                    .filter(lambda ab: ab[0] != ab[1]), min_size=1, max_size=12))
    @example(_STEEP, [(0.5, 1.0), (0.9, 1.0), (0.0, 0.25), (0.0, 1.0)])
    @example(_HUGE, [(0.0, 1.0), (0.0, 0.5), (0.5, 1.0), (0.25, 0.75)])
    def test_drawn_weights(self, w, ends):
        self._check(w, [(min(ab), max(ab)) for ab in ends])

    def test_rows_from_zero_take_the_array_pass(self, monkeypatch):
        # L = +inf at s = 0 as on the float path, without log(0): no row falls back
        def scalar(w, iv, kind):
            raise AssertionError(f"[{iv.a}, {iv.b}] fell back")

        monkeypatch.setattr(weights, "_moment_pair", scalar)
        ends = np.array([0.0, 0.0, 0.0, 0.25, 0.5]), np.array([1.0, 0.5, 1e-300, 0.5, 1.0])
        for w in (power_weight(1.7, -0.5), power_weight(1.7, 0.7), reference_corpus(4)[3]):
            for kind in (MomentKind.AVG_LOG_W, MomentKind.AVG_W_LOG_W):
                assert weights._moment_pairs(w, *ends, kind)[1] == {}

    def test_few_rows_take_the_scalar_loop(self, monkeypatch):
        calls = []
        monkeypatch.setattr(weights, "_moment_pair", lambda *args: calls.append(args) or (1.0, 0.0))
        w, ends = power_weight(1.7, 0.7), np.linspace(0.0, 1.0, 17)
        weights._PASS_ROWS = self._pass_rows  # teardown_method lowers it back
        for rows in (self._pass_rows - 1, self._pass_rows):
            calls.clear()
            weights._moment_pairs(w, ends[:rows], ends[1:rows + 1], MomentKind.AVG_LOG_W)
            assert len(calls) == (rows if rows < self._pass_rows else 0)

    def test_a_raising_pass_leaves_its_other_rows_to_the_scalar_loop(self):
        xy, errors = weights._moment_pairs(_STEEP, np.array([0.5, 0.9]), np.array([1.0, 1.0]), MomentKind.AVG_LOG_W)
        assert list(errors) == [0] and isinstance(errors[0], DomainError)
        assert tuple(xy[1].tolist()) == weights._moment_pair(_STEEP, Interval(0.9, 1.0), MomentKind.AVG_LOG_W)


def _two_term_closed_form(c, alpha, s, e, kind):
    """_closed_form's AVG_LOG_W and AVG_W_LOG_W as two terms, the alpha one added even at alpha = 0.

    The reference for the constant-piece forms, which return the first term
    alone.  The mass int t^alpha is _closed_form's AVG_W, exactly e - s at alpha = 0.
    """
    d, big = e - s, _log_span(s, e)
    xp = np if isinstance(d, np.ndarray) else math
    if kind is MomentKind.AVG_LOG_W:
        return d * math.log(c) + alpha * (d * xp.log(e) - e * _rise(big, -xp.expm1(-big)))
    a1 = alpha + 1.0  # alpha near 0: anchored at e
    z = a1 * big
    head = -xp.expm1(-z)
    tlog = e**a1 / a1 * (xp.log(e) * head - _rise(z, head) / a1)
    return c * math.log(c) * _closed_form(1.0, alpha, s, e, MomentKind.AVG_W) + c * alpha * tlog


class TestConstantPieceForms:
    """On a constant piece _closed_form skips the alpha term, 0.0 times a finite number.

    Its bits are the two-term sum's, the sign of a zero included: the skipped
    term is 0.0 times int log t or int t^alpha log t, both negative on an
    interval inside (0, 1], so it is -0.0, which leaves every sum as it was.
    """

    CS = (1.0, 5e-324, 1e-300, 1e300)
    KINDS = (MomentKind.AVG_LOG_W, MomentKind.AVG_W_LOG_W)
    # from 0 and not, subnormal to 1, near and far ratios e / s, and ends an ulp apart
    ENDS = [1.0, 0.5, 1e-3, 1e-12, 1e-300, 1e-310, 5e-324]
    SPANS = [(s, e) for e in ENDS for s in (0.0, 0.5 * e, 0.999 * e, 1e-9 * e) if s < e] + [
        (1.0 - 2.0**-53, 1.0), (0.5, 0.5 + 2.0**-53), (0.3, 0.7), (1e-300, 1.0), (5e-324, 1.0), (5e-324, 1e-323)]
    ARRAYS = [np.geomspace(1e-320, 1.0, 40), np.linspace(0.01, 1.0, 40), np.array([1e-310, 0.5, 1.0 - 2.0**-53, 1.0])]

    @staticmethod
    def _mismatches(closed_form, alpha):
        """The cases where closed_form's bits differ from the two-term sum's."""
        bad = []
        calls = list(TestConstantPieceForms.SPANS)
        calls += [(s, e[e > s]) for e in TestConstantPieceForms.ARRAYS for s in (0.0, 1e-320, 0.005)]
        with np.errstate(all="ignore"):
            for c in TestConstantPieceForms.CS:
                for kind in TestConstantPieceForms.KINDS:
                    for s, e in calls:
                        got = np.asarray(closed_form(c, alpha, s, e, kind), dtype=float)
                        want = np.asarray(_two_term_closed_form(c, alpha, s, e, kind), dtype=float)
                        assert got.shape == want.shape
                        if not np.all(got.view(np.int64) == want.view(np.int64)):
                            bad.append((c, kind, s, e))
        return bad

    def test_constant_piece_matches_the_two_term_sum_bit_for_bit(self):
        assert self._mismatches(_closed_form, 0.0) == []

    def test_tiny_exponent_still_adds_its_term(self):
        assert self._mismatches(_closed_form, 1e-300) == []

    def test_a_shortcut_that_also_fires_at_1e_300_fails(self):
        # the negative control: at c = 1 the first term is 0 and the skipped alpha term is all there is
        def loose(c, alpha, s, e, kind):
            return _closed_form(c, 0.0 if abs(alpha) <= 1e-300 else alpha, s, e, kind)

        bad = self._mismatches(loose, 1e-300)
        assert bad and {c for c, *_ in bad} >= {1.0}

    def test_the_two_term_sum_leaves_moment_bits_unchanged(self, monkeypatch):
        # c log(c) (e - s) underflows to -0.0, and so does 0.0 times the t log t integral
        c, s, e = 5e-324, 1.0 - 2.0**-53, 1.0
        got = _closed_form(c, 0.0, s, e, MomentKind.AVG_W_LOG_W)
        want = _two_term_closed_form(c, 0.0, s, e, MomentKind.AVG_W_LOG_W)
        assert (got, math.copysign(1.0, got), math.copysign(1.0, want)) == (0.0, -1.0, -1.0)
        w = step_weight([0.0, 0.5, 1.0], [3.0, c])
        pts = np.array([0.0, 0.25, 0.5, s, 1.0])
        ivs = [Interval(s, e), Interval(0.5, s), Interval(0.25, 1.0), Interval(0.0, 1.0)]

        def values():
            return [cumulative_moment(w, pts, kind).tobytes() for kind in self.KINDS] + [
                np.float64(moment(w, iv, kind)).tobytes() for iv in ivs for kind in self.KINDS]

        shortcut = values()
        monkeypatch.setattr(weights, "_closed_form", _two_term_closed_form)
        assert values() == shortcut


EPS = sys.float_info.epsilon
KINDS3 = (MomentKind.AVG_W, MomentKind.AVG_LOG_W, MomentKind.AVG_W_LOG_W)


def _mp_piece_integral(c, alpha, s, e, kind):
    """(integral, S) of the kind's integrand on c t^alpha over [s, e], at the caller's precision.

    S is the integral of its two parts (log c and alpha log t, or c log c t^alpha
    and c alpha t^alpha log t) taken in absolute value; AVG_W has one part.
    """
    c, alpha, s, e = map(mpmath.mpf, (c, alpha, s, e))
    a1, d, log_c = alpha + 1, e - s, mpmath.log(c)
    if a1 == 0:
        mass, tlog = mpmath.log(e / s), (mpmath.log(e) ** 2 - mpmath.log(s) ** 2) / 2
    else:
        def prim(t):  # of t^alpha log t
            return t**a1 * (a1 * mpmath.log(t) - 1) / a1**2 if t else 0
        mass, tlog = (e**a1 - s**a1) / a1, prim(e) - prim(s)
    if kind is MomentKind.AVG_W:
        parts = (c * mass,)
    elif kind is MomentKind.AVG_LOG_W:
        parts = (d * log_c, alpha * (e * mpmath.log(e) - (s * mpmath.log(s) if s else 0) - d))
    else:
        parts = (c * log_c * mass, c * alpha * tlog)
    return sum(parts), sum(abs(x) for x in parts)


def _parent_closed_form(c, alpha, s, e, kind):
    """The forms the anchored ones replaced, kept as the negative control.

    log(e / s) from the rounded ratio e / s, a |z| < 1/2 switch between a
    series in z = (alpha + 1) log(e / s) and a difference of powers, and
    avg log w as e log e - s log s - (e - s).
    """
    xp, a1 = _ops(e - s), alpha + 1.0
    from_zero = not isinstance(s, np.ndarray) and s == 0.0

    def expm1_ratio(z):
        return np.where(z == 0.0, 1.0, np.expm1(z) / z) if xp is np else (math.expm1(z) / z if z else 1.0)

    def log_ratio():
        ratio = e / s
        if xp is not np:
            return math.log(ratio) if ratio < math.inf else math.log(e) - math.log(s)
        return np.where(ratio == math.inf, np.log(e) - np.log(s), np.log(ratio))

    def switch(z, near, far):  # near() where |z| < 1/2, else far(); a float evaluates one of them
        return np.where(abs(z) < 0.5, near(), far()) if xp is np else near() if abs(z) < 0.5 else far()

    def power_diff(g):
        if g == 1.0:
            return e - s
        z = g * log_ratio()
        return switch(z, lambda: s**g * log_ratio() * expm1_ratio(z), lambda: (e**g - s**g) / g)

    if kind is MomentKind.AVG_W:
        return (c * e**a1 / a1 if a1 > 0.0 else math.inf) if from_zero else c * power_diff(a1)
    if alpha == 0.0:
        return (c * math.log(c) if kind is MomentKind.AVG_W_LOG_W else math.log(c)) * (e - s)
    if kind is MomentKind.AVG_LOG_W:
        if from_zero:
            return e * math.log(c) + alpha * (e * xp.log(e) - e)
        return (e - s) * math.log(c) + alpha * (e * xp.log(e) - s * xp.log(s) - (e - s))
    if from_zero:
        ea1 = e**a1
        return c * math.log(c) * ea1 / a1 + c * alpha * ea1 * (xp.log(e) / a1 - 1.0 / (a1 * a1))
    big = log_ratio()
    z = a1 * big
    acc = 0.0
    for k in reversed(range(16)):  # L^2 sum_k z^k / (k! (k + 2))
        acc = acc * z + 1.0 / (math.factorial(k) * (k + 2))
    tlog = switch(z, lambda: s**a1 * (xp.log(s) * big * expm1_ratio(z) + big * big * acc),
                  lambda: (e**a1 * (a1 * xp.log(e) - 1.0) - s**a1 * (a1 * xp.log(s) - 1.0)) / (a1 * a1))
    return c * math.log(c) * power_diff(a1) + c * alpha * tlog


def _seeded_pieces(n=300, seed=2111):
    """(c, alpha, s, e): alpha in (-1, 5] on pieces from 0, in [-3, -1] away from 0.

    c in [1e-3, 1e3] and s in [1e-12, 1) are log-uniform, s = 0 one time in
    four from 0; d = e - s is log-uniform from 1 ulp of s (from 1e-12 where
    s = 0) to 1 - s.  Every tenth piece away from 0 has alpha = -1.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n):
        if i % 2 == 0:
            alpha = -float(rng.uniform(-5.0, 1.0))  # in (-1, 5]
            s = 0.0 if i % 8 == 0 else float(10.0 ** rng.uniform(-12.0, 0.0))
        else:
            alpha = -1.0 if i % 20 == 1 else float(rng.uniform(-3.0, -1.0))
            s = float(10.0 ** rng.uniform(-12.0, 0.0))
        c = float(10.0 ** rng.uniform(-3.0, 3.0))
        low = math.ulp(s) if s else 1e-12
        e = min(s + float(10.0 ** rng.uniform(math.log10(low), math.log10(1.0 - s))), 1.0)
        if e > s:
            cases.append((c, alpha, s, e))
    return cases


class TestAnchoredForms:
    """The anchored piece forms against 60-digit mpmath, and the parent forms as the negative control."""

    WEIGHT = power_weight(1.0, 0.5)
    BOUND = 8.0  # eps S (1 + |(alpha + 1) log A|); the forms read 1.5 here, 2.0 on 8,000 other seeded pieces

    @classmethod
    def _moment_errors(cls, s, e):
        """Relative error of each kind's moment on WEIGHT over [s, e]."""
        out = []
        with mpmath.workdps(60):
            for kind in KINDS3:
                want = _mp_piece_integral(1.0, 0.5, s, e, kind)[0] / (mpmath.mpf(e) - mpmath.mpf(s))
                out.append(float(abs(moment(cls.WEIGHT, Interval(s, e), kind) / want - 1)))
        return out

    def test_int_endpoints_give_the_float_endpoints_bits(self):
        # Interval takes ints, as a weight file holding 0 and 1 gives them; 1 / 0 raised at a from-zero piece
        int_weight = Weight((PowerPiece(Interval(0, 1), 1.0, 0.5),))
        pts = np.linspace(0.0, 1.0, 9)
        for kind, p in [(kind, None) for kind in KINDS3] + [(MomentKind.AVG_W_POW, 3.0)]:
            for a, b in ((0, 1), (0, 0.5), (0.5, 1)):
                got = moment(self.WEIGHT, Interval(a, b), kind, p)
                assert got == moment(self.WEIGHT, Interval(float(a), float(b)), kind, p)
            assert cumulative_moment(int_weight, pts, kind, p).tobytes() == cumulative_moment(
                self.WEIGHT, pts, kind, p).tobytes()
        assert moment(int_weight, Interval(0, 1), MomentKind.AVG_W) == pytest.approx(2.0 / 3.0, rel=4 * EPS)

    # log(e / s) from the rounded ratio e / s: 1.1e-8 and 6.7% off at the parent
    @pytest.mark.parametrize("s, e", [(0.3, 0.3 + 1e-9), (0.7, 0.7 + 3e-16)], ids=["0.3+1e-9", "0.7+3e-16"])
    def test_the_rounding_of_e_over_s_stays_out_of_narrow_moments(self, s, e):
        assert max(self._moment_errors(s, e)) <= 4 * EPS

    # e log e - s log s - (e - s) cancels: avg log w 1.6e-4 and 28% off at the parent
    @pytest.mark.parametrize("s, e", [(0.3, 0.3 + 1e-13), (0.5, 0.5 + 2.0**-53)], ids=["0.3+1e-13", "0.5+2^-53"])
    def test_avg_log_w_does_not_cancel_on_narrow_intervals(self, s, e):
        assert max(self._moment_errors(s, e)) <= 4 * EPS

    @pytest.fixture(scope="class")
    def seeded(self):
        """The seeded pieces, each kind's 60-digit integral, and its scale S (1 + |(alpha + 1) log A|).

        |(alpha + 1) log A| widens S for the rounding of alpha + 1, which
        A^(alpha + 1) carries.
        """
        out = []
        with mpmath.workdps(60):
            for c, alpha, s, e in _seeded_pieces():
                a1 = alpha + 1.0
                widen = 1.0 + abs(a1 * math.log(e if a1 > 0.0 else s))
                for kind in KINDS3:
                    want, scale = _mp_piece_integral(c, alpha, s, e, kind)
                    out.append((c, alpha, s, e, kind, want, scale * widen))
        return out

    @staticmethod
    def _property_worst(closed_form, seeded):
        """Worst error over the seeded pieces in units of eps times the scale, scalar and array ends."""
        worst = 0.0
        with np.errstate(all="ignore"), mpmath.workdps(60):
            for c, alpha, s, e, kind, want, scale in seeded:
                for got in (closed_form(c, alpha, s, e, kind), closed_form(c, alpha, s, np.array([e]), kind)[0]):
                    worst = max(worst, float(abs(float(got) - want) / (EPS * scale)))
        return worst

    def test_forms_hold_the_stated_bound_on_seeded_pieces(self, seeded):
        assert self._property_worst(_closed_form, seeded) <= self.BOUND

    def test_the_parent_forms_fail_the_stated_bound(self, seeded):
        assert self._property_worst(_parent_closed_form, seeded) > 1e3 * self.BOUND

    @pytest.fixture(scope="class")
    def dyadic_sweep(self):
        """3,000 seeded dyadic intervals, depth 1 to 10: {(s, e): each kind's 60-digit moment on WEIGHT}."""
        rng = np.random.default_rng(9903)
        cases = {}
        for _ in range(3000):
            depth = int(rng.integers(1, 11))
            j = int(rng.integers(0, 2**depth))
            s, e = j / 2**depth, (j + 1) / 2**depth
            if (s, e) not in cases:
                with mpmath.workdps(60):
                    cases[s, e] = [_mp_piece_integral(1.0, 0.5, s, e, kind)[0] / (e - s) for kind in KINDS3]
        return cases

    def _sweep_worst(self, sweep):
        with mpmath.workdps(60):
            return max(float(abs(moment(self.WEIGHT, Interval(s, e), kind) / want - 1))
                       for (s, e), wants in sweep.items() for kind, want in zip(KINDS3, wants))

    def test_dyadic_moments_within_4e_15(self, dyadic_sweep):
        assert self._sweep_worst(dyadic_sweep) <= 4e-15

    def test_the_parent_forms_fail_the_dyadic_sweep(self, dyadic_sweep, monkeypatch):
        monkeypatch.setattr(weights, "_closed_form", _parent_closed_form)
        assert self._sweep_worst(dyadic_sweep) > 1e-13
