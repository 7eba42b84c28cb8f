"""Piecewise power weights on the unit interval.

The model class is w(t) = c * t**alpha on finitely many pieces partitioning
[0, 1], closed under truncation and rescaling; a piece touching t = 0 needs
alpha > -1 to stay integrable.  Each moment kind (average of w, log w,
w log w, w**p) has one closed form per piece, anchored at the end where
t**(alpha + 1) is larger so that a narrow interval keeps its digits
(_closed_form); a constant piece is exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, ParameterError
from .solvers import _LIBM_OPS, _rise

__all__ = [
    "Interval",
    "PowerPiece",
    "Weight",
    "MomentKind",
    "evaluate",
    "moment",
    "cumulative_moment",
    "truncate",
    "rescale",
    "breakpoints",
    "weight_from_dict",
    "weight_to_dict",
    "load_weight",
    "save_weight",
    "constant_weight",
    "step_weight",
    "power_weight",
    "reference_corpus",
]


@dataclass(frozen=True)
class Interval:
    """Closed subinterval [a, b] of [0, 1] with a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not (0.0 <= self.a < self.b <= 1.0):
            raise DomainError(f"interval [{self.a}, {self.b}] not inside [0, 1]")

    @property
    def length(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class PowerPiece:
    """w(t) = coeff * t**exponent for t in [support.a, support.b]."""

    support: Interval
    coeff: float
    exponent: float

    def __post_init__(self):
        if not (self.coeff > 0.0 and math.isfinite(self.coeff)):
            raise ParameterError(f"piece coefficient must be positive, got {self.coeff}")
        if not math.isfinite(self.exponent):
            raise ParameterError(f"piece exponent must be finite, got {self.exponent}")
        if self.support.a == 0.0 and self.exponent <= -1.0:
            raise ParameterError(
                f"exponent {self.exponent} <= -1 on a piece touching 0 is not integrable"
            )


@dataclass(frozen=True)
class Weight:
    """Finite list of power pieces partitioning [0, 1]."""

    pieces: tuple[PowerPiece, ...]

    def __post_init__(self):
        if not self.pieces:
            raise ParameterError("weight needs at least one piece")
        if self.pieces[0].support.a != 0.0 or self.pieces[-1].support.b != 1.0:
            raise ParameterError("pieces must start at 0 and end at 1")
        for left, right in zip(self.pieces, self.pieces[1:]):
            if left.support.b != right.support.a:
                raise ParameterError(
                    f"gap or overlap at {left.support.b} vs {right.support.a}"
                )


class MomentKind(Enum):
    AVG_W = "avg_w"
    AVG_LOG_W = "avg_log_w"
    AVG_W_LOG_W = "avg_w_log_w"
    AVG_W_POW = "avg_w_pow"


# the members as module names for the piece forms: an Enum attribute lookup takes ~0.15 us
_AVG_W, _AVG_LOG_W, _AVG_W_LOG_W, _AVG_W_POW = MomentKind


def constant_weight(c: float) -> Weight:
    return Weight((PowerPiece(Interval(0.0, 1.0), c, 0.0),))


def power_weight(coeff: float, exponent: float) -> Weight:
    return Weight((PowerPiece(Interval(0.0, 1.0), coeff, exponent),))


def step_weight(cuts: list[float], values: list[float]) -> Weight:
    """Piecewise constant weight: values[i] on [cuts[i], cuts[i+1]].

    cuts must start with 0 and end with 1.
    """
    if len(values) != len(cuts) - 1:
        raise ParameterError("need one value per cell")
    pieces = tuple(
        PowerPiece(Interval(a, b), v, 0.0)
        for a, b, v in zip(cuts[:-1], cuts[1:], values)
    )
    return Weight(pieces)


def breakpoints(w: Weight) -> list[float]:
    """All piece endpoints, including 0 and 1."""
    pts = [p.support.a for p in w.pieces]
    pts.append(1.0)
    return pts


def evaluate(w: Weight, t: float) -> float:
    """Pointwise value w(t) for t in (0, 1]; the right piece wins at abutments.

    A value past the double range is refused with DomainError, as moment
    refuses the integral of such a piece.
    """
    if not (0.0 < t <= 1.0):
        raise DomainError(f"t = {t} outside (0, 1]")
    for p in reversed(w.pieces):  # a plain loop: next() over a generator doubled evaluate's time
        if t >= p.support.a:
            break
    try:
        value = p.coeff * t**p.exponent
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise DomainError(f"w({t}) = {p.coeff} * {t}^{p.exponent} overflows a double")
    return value


def _log_span(s, e, ops=None):
    """L = log(e / s) = log1p((e - s) / s) for 0 <= s < e: floats, or arrays by ops (numpy's by default).

    +inf at s = 0, with no log(0); where a subnormal s overflows (e - s) / s, log e - log s.
    """
    if not isinstance(s, np.ndarray) and not s:
        return math.inf
    ratio = (e - s) / s
    if not isinstance(ratio, np.ndarray):
        return math.log1p(ratio) if ratio < math.inf else math.log(e) - math.log(s)
    xp = ops or np
    big, over = xp.log1p(ratio), (ratio == np.inf) & (s > 0.0)  # s = 0: log1p(inf) = inf
    return np.where(over, xp.log(e) - xp.log(np.where(over, s, 1.0)), big) if over.any() else big


def _piece_integral(piece: PowerPiece, s, e, kind: MomentKind, p: float | None):
    """Integral of the kind's integrand over [s, e] inside the piece support.

    The one home of the closed forms (_closed_form holds them).  s and e
    are numbers (an Interval takes ints), or one of them an array with
    e > s throughout; s = 0 (not an array) integrates from 0 and gives +inf
    where that integral diverges.  A float power past the double range
    raises DomainError, and a kind that is not a MomentKind ParameterError.
    """
    c, alpha = piece.coeff, piece.exponent
    if kind is _AVG_W_POW:
        if p is None:
            raise ParameterError("AVG_W_POW requires the exponent p")
        try:  # w^p = c^p t^(p alpha) is again a power
            c, alpha, kind = c**p, p * alpha, _AVG_W
        except OverflowError:
            raise DomainError(f"coefficient {c} to the power {p} overflows a double") from None
        if alpha <= -1.0 and not isinstance(s, np.ndarray) and s == 0.0:
            return math.inf
    elif not isinstance(kind, MomentKind):
        raise ParameterError(f"unknown moment kind {kind}")
    try:
        return _closed_form(c, alpha, s, e, kind)
    except OverflowError:  # a float power past the double range (numpy's give inf)
        raise DomainError(f"the {kind.value} integral over [{s}, {e}] overflows a double") from None


def _closed_form(c: float, alpha: float, s, e, kind: MomentKind, pair: bool = False, ops=None):
    """_piece_integral on the piece c t^alpha, for any kind but AVG_W_POW.

    In d = e - s and L = log(e / s) (_log_span), with a1 = alpha + 1 and the
    anchor A the end where t^a1 is larger (e for a1 > 0, else s), z = |a1| L:
        int t^alpha       = A^a1 (1 - e^-z) / |a1|,
        int t^alpha log t = A^a1 (log A (1 - e^-z) - rise(z) / a1) / |a1|,
        int log t         = d log e - e rise(L),
    rise(z) = 1 - e^-z (1 + z).  The terms of the last two share a sign but
    for a1 < 0, where they cancel by about a factor 2 at most.  alpha = 0 is
    c, log c or c log c times d, exact; alpha = -1 takes L and L (log s + L / 2).
    With pair, (the AVG_W integral, the kind's), sharing d, L and the mass.
    Arrays take numpy's log, exp and power, or ops' (solvers._LIBM_OPS gives the float bits).
    """
    d = e - s
    if alpha == 0.0:
        if kind is _AVG_W:
            return c * d
        val = (math.log(c) if kind is _AVG_LOG_W else c * math.log(c)) * d
        return (c * d, val) if pair else val
    xp, big = ops or (np if isinstance(d, np.ndarray) else math), _log_span(s, e, ops)
    if kind is _AVG_LOG_W:
        val = d * math.log(c) + alpha * (d * xp.log(e) - e * _rise(big, -xp.expm1(-big), ops))
        if not pair:
            return val
    a1 = alpha + 1.0
    if a1 == 0.0:
        mass = big
    else:
        anchor, z = (e if a1 > 0.0 else s), abs(a1) * big
        scale, head = (anchor**a1 if ops is None else ops.pow(anchor, a1)) / abs(a1), -xp.expm1(-z)
        mass = scale * head
    if kind is _AVG_W:
        return c * mass
    if kind is _AVG_W_LOG_W:
        tlog = big * (xp.log(s) + 0.5 * big) if not a1 else scale * (xp.log(anchor) * head - _rise(z, head, ops) / a1)
        val = c * math.log(c) * mass + c * alpha * tlog
    return (c * mass, val) if pair else val


def moment(w: Weight, interval: Interval, kind: MomentKind, p: float | None = None) -> float:
    """Average of the kind's integrand over the interval.

    AVG_W_POW is +inf exactly where the interval touches 0 and the zero piece
    has p*alpha <= -1; the others are finite.  A subnormal length is refused.
    """
    if not (length := interval.length) >= 2.0**-1022:
        raise DomainError(f"interval [{interval.a}, {interval.b}] has a subnormal length")
    total, a, b = 0.0, interval.a, interval.b
    for piece in w.pieces:
        if piece.support.a >= b:  # the pieces are sorted: none from here meets the interval
            break
        s, e = max(a, piece.support.a), min(b, piece.support.b)
        if e > s:
            val = _piece_integral(piece, s, e, kind, p)
            if val == math.inf:
                return math.inf
            total += val
    return total / length


def _moment_pair(w: Weight, interval: Interval, kind: MomentKind) -> tuple[float, float]:
    """(moment(w, interval, AVG_W), moment(w, interval, kind)), kind AVG_LOG_W or AVG_W_LOG_W,
    from one loop over the pieces (_closed_form's pair); where that raises or an average is
    not finite, from those two calls, so that values and exceptions are moment's."""
    a, b = interval.a, interval.b
    mass = total = 0.0
    try:
        for piece in w.pieces:
            if piece.support.a >= b:
                break
            s, e = max(a, piece.support.a), min(b, piece.support.b)
            if e > s:
                m, val = _closed_form(piece.coeff, piece.exponent, s, e, kind, pair=True)
                mass, total = mass + m, total + val
        if b - a >= 2.0**-1022 and math.isfinite(x := mass / (b - a)) and math.isfinite(y := total / (b - a)):
            return x, y
    except (ArithmeticError, ValueError):
        pass
    return moment(w, interval, _AVG_W), moment(w, interval, kind)


# a pass costs about 40 numpy calls per piece whatever its rows (45-55 us on one or two pieces),
# the scalar loop 3-4 us a row: the loop is the faster below 16 to 24 rows
_PASS_ROWS = 16


def _moment_pairs(w: Weight, a: np.ndarray, b: np.ndarray, kind: MomentKind) -> tuple[np.ndarray, dict]:
    """_moment_pair on each [a[i], b[i]]: the points as an (n, 2) array, and each raising row's exception by
    index.  One pass per piece over the rows that meet it, in libm's functions (_LIBM_OPS) so every bit is
    the scalar loop's; a row that a pass raises on, or whose average is not finite, is _moment_pair's own,
    and so is every row of fewer than _PASS_ROWS."""
    if a.size < _PASS_ROWS:
        xy, rows = np.empty((a.size, 2)), zip(range(a.size), a.tolist(), b.tolist())
    else:
        acc, fail = np.zeros((2, a.size)), np.zeros(a.size, bool)  # acc: mass and total, as the scalar loop
        with np.errstate(all="ignore"):  # a row from 0 divides by zero in _log_span, which reads +inf there
            for p in w.pieces:
                s, e = np.maximum(a, p.support.a), np.minimum(b, p.support.b)
                try:
                    m, val = _closed_form(p.coeff, p.exponent, s[rows := e > s], e[rows], kind, pair=True, ops=_LIBM_OPS)
                except (ArithmeticError, ValueError):
                    fail |= rows
                else:
                    acc[:, rows] += (m, val)
            xy = (acc / (length := b - a)).T
        bad = (fail | ~(np.isfinite(xy).all(axis=1) & (length >= 2.0**-1022))).nonzero()[0]
        rows = zip(bad.tolist(), a[bad].tolist(), b[bad].tolist())
    errors = {}
    for i, s, e in rows:
        try:
            xy[i] = _moment_pair(w, Interval(s, e), kind)
        except (ArithmeticError, ValueError) as exc:
            xy[i], errors[i] = math.nan, exc
    return xy, errors


# F differences lose a factor ~1/(g + 1) to cancellation on a piece t^g anchored
# at 0, and ~(b/t)^(g + 1) near 0 when anchored at b; below this g + 1 the
# right end is the better anchor (both factors < 32 for t >= 1e-12)
_SPIKE = 0.125


def cumulative_moment(w: Weight, points: np.ndarray, kind: MomentKind, p: float | None = None) -> np.ndarray:
    """Values F(points[i]) with F(b) - F(a) the integral over [a, b].

    points must be sorted ascending inside [0, 1].  F is anchored at each
    piece's left end, F(t) = F(a) + int_a^t with F(0) = 0.  A piece at 0
    whose integrand is a spike t^g, g + 1 < _SPIKE, is anchored at its right
    end, F(t) = -int_t^b: F(0) = -int_0^b is -inf exactly where it diverges.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size and not (pts[0] >= 0.0 and pts[-1] <= 1.0 and np.all(np.diff(pts) >= 0.0)):
        raise DomainError("cumulative points must lie in [0, 1] sorted ascending")
    return _cumulative_moment(w, pts, kind, p)


def _cumulative_moment(w: Weight, pts: np.ndarray, kind: MomentKind, p: float | None = None) -> np.ndarray:
    """cumulative_moment on a float array of points already known to be sorted ascending inside [0, 1]."""
    # the integrand's exponent is lead * alpha (log w has none)
    lead = {MomentKind.AVG_W_POW: p, MomentKind.AVG_LOG_W: 0.0}.get(kind, 1.0)
    out = np.zeros_like(pts)
    left = 0.0  # F at the current piece's left end
    with np.errstate(all="ignore"):
        for piece in w.pieces:
            a, b = piece.support.a, piece.support.b
            lo, hi = np.searchsorted(pts, (a, b), side="right")
            whole = _piece_integral(piece, a, b, kind, p)
            if a == 0.0 and lead * piece.exponent + 1.0 < _SPIKE:
                out[:lo] = -whole
                out[lo:hi] = -_piece_integral(piece, pts[lo:hi], b, kind, p)
            else:
                out[lo:hi] = left + _piece_integral(piece, a, pts[lo:hi], kind, p)
                left += whole
    return out


def truncate(w: Weight, n: float) -> Weight:
    """Two-sided truncation min(max(w, 1/n), n), n > 1, as a new Weight.

    Crossing points t = (level/coeff)**(1/alpha) become new breakpoints; the
    clamped regions turn into constant pieces.  Both the crossings and the
    comparisons with the levels are made in logs, so no power overflows.
    """
    if not (n > 1.0 and math.isfinite(n)):
        raise ParameterError(f"truncation level must satisfy n > 1, got {n}")
    lo, hi = 1.0 / n, n
    log_n = math.log(n)
    pieces: list[PowerPiece] = []
    for piece in w.pieces:
        a, b = piece.support.a, piece.support.b
        log_c, alpha = math.log(piece.coeff), piece.exponent
        cuts = {a, b}
        if alpha != 0.0:
            for level, log_level in ((lo, -log_n), (hi, log_n)):
                ratio = level / piece.coeff  # its log keeps its digits, where the difference of logs cancels
                log_ratio = math.log(ratio) if 0.0 < ratio < math.inf else log_level - log_c
                t = math.exp(min(log_ratio / alpha, 0.0))
                if a < t < b:
                    cuts.add(t)
        for s, e in zip(sorted(cuts)[:-1], sorted(cuts)[1:]):
            mid = 0.5 * (s + e) or e  # a subnormal e may halve to 0
            log_val = log_c + alpha * math.log(mid)
            if log_val < -log_n:
                pieces.append(PowerPiece(Interval(s, e), lo, 0.0))
            elif log_val > log_n:
                pieces.append(PowerPiece(Interval(s, e), hi, 0.0))
            else:
                pieces.append(PowerPiece(Interval(s, e), piece.coeff, piece.exponent))
    return Weight(tuple(_merge_equal(pieces)))


def _merge_equal(pieces: list[PowerPiece]) -> list[PowerPiece]:
    """Merge adjacent pieces with identical coeff and exponent."""
    merged = [pieces[0]]
    for p in pieces[1:]:
        last = merged[-1]
        if p.coeff == last.coeff and p.exponent == last.exponent:
            merged[-1] = PowerPiece(Interval(last.support.a, p.support.b), p.coeff, p.exponent)
        else:
            merged.append(p)
    return merged


def rescale(w: Weight, c: float) -> Weight:
    """Multiply the weight by a positive constant."""
    if not (c > 0.0 and math.isfinite(c)):
        raise ParameterError(f"rescale factor must be positive, got {c}")
    return Weight(tuple(PowerPiece(p.support, c * p.coeff, p.exponent) for p in w.pieces))


# ---------------------------------------------------------------------------
# serialization

def weight_from_dict(data: dict) -> Weight:
    raw = data.get("pieces") if isinstance(data, dict) else None
    if not isinstance(raw, list):
        raise ParameterError("weight JSON needs a 'pieces' list")
    pieces = []
    for entry in raw:
        try:
            piece = PowerPiece(
                Interval(float(entry["a"]), float(entry["b"])),
                float(entry["coeff"]),
                float(entry["exponent"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParameterError(f"bad piece entry {entry!r}") from exc
        pieces.append(piece)
    return Weight(tuple(pieces))


def weight_to_dict(w: Weight) -> dict:
    return {
        "pieces": [
            {"a": p.support.a, "b": p.support.b, "coeff": p.coeff, "exponent": p.exponent}
            for p in w.pieces
        ]
    }


def load_weight(path: str) -> Weight:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"invalid weight JSON in {path}: {exc}") from exc
    return weight_from_dict(data)


def save_weight(w: Weight, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(weight_to_dict(w), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# deterministic test corpus

def reference_corpus(count: int = 20, seed: int = 7) -> list[Weight]:
    """Deterministic mix of steps, pure powers and glued power weights.

    Used by invariant suites (truncation monotonicity, dyadic chains).  The
    exponent range keeps every weight integrable with moderate constants.
    """
    if not (isinstance(seed, int) and seed >= 0):
        raise ParameterError(f"seed must be a nonnegative integer, got {seed}")
    rng = np.random.default_rng(seed)
    corpus: list[Weight] = []
    while len(corpus) < count:
        k = len(corpus) % 4
        if k == 0:
            corpus.append(constant_weight(float(rng.uniform(0.2, 5.0))))
        elif k == 1:
            ncells = int(rng.integers(2, 5))
            cuts = np.sort(rng.uniform(0.05, 0.95, size=ncells - 1))
            cuts = [0.0, *[float(c) for c in cuts], 1.0]
            vals = [float(v) for v in rng.uniform(0.2, 8.0, size=ncells)]
            corpus.append(step_weight(cuts, vals))
        elif k == 2:
            alpha = float(rng.uniform(-0.6, 1.5))
            corpus.append(power_weight(float(rng.uniform(0.3, 3.0)), alpha))
        else:
            # power near zero glued to a constant tail
            a = float(rng.uniform(0.15, 0.7))
            alpha = float(rng.uniform(-0.5, 1.2))
            v = float(rng.uniform(0.4, 3.0))
            c = v / a**alpha
            corpus.append(
                Weight(
                    (
                        PowerPiece(Interval(0.0, a), c, alpha),
                        PowerPiece(Interval(a, 1.0), v, 0.0),
                    )
                )
            )
    return corpus
