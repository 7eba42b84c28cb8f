"""Piecewise power weights on the unit interval.

The model class is w(t) = c * t**alpha on finitely many pieces partitioning
[0, 1].  It is closed under truncation and rescaling, all four moment kinds
used elsewhere (average of w, log w, w log w, w**p) have closed forms, and a
piece touching t = 0 stays integrable because its exponent is required to be
greater than -1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, ParameterError

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
    """Pointwise value w(t) for t in (0, 1]; the right piece wins at abutments."""
    if not (0.0 < t <= 1.0):
        raise DomainError(f"t = {t} outside (0, 1]")
    for p in reversed(w.pieces):
        if t >= p.support.a:
            return p.coeff * t**p.exponent
    raise AssertionError("unreachable: pieces cover (0, 1]")


def _coeff_pow(c: float, p: float) -> float:
    """c**p for the w^p moments, refusing a power beyond the double range."""
    try:
        return c**p
    except OverflowError:
        raise DomainError(f"coefficient {c} to the power {p} overflows a double") from None


def _antideriv(c: float, alpha: float, t: float, kind: MomentKind, p: float | None) -> float:
    """Antiderivative of the integrand for `kind` on the piece w = c t^alpha.

    Valid for t > 0; the per-piece constant is arbitrary (differences are
    taken within one piece).  At t = 0 use _antideriv_zero_limit.
    """
    if kind is MomentKind.AVG_W:
        if alpha == -1.0:
            return c * math.log(t)
        return c * t ** (alpha + 1.0) / (alpha + 1.0)
    if kind is MomentKind.AVG_LOG_W:
        # integrand log c + alpha log t
        return t * math.log(c) + alpha * (t * math.log(t) - t)
    if kind is MomentKind.AVG_W_LOG_W:
        # integrand c log(c) t^alpha + c alpha t^alpha log t
        if alpha == -1.0:
            lt = math.log(t)
            return c * math.log(c) * lt - c * lt * lt / 2.0
        a1 = alpha + 1.0
        ta1 = t**a1
        return c * math.log(c) * ta1 / a1 + c * alpha * ta1 * (math.log(t) / a1 - 1.0 / (a1 * a1))
    if kind is MomentKind.AVG_W_POW:
        if p is None:
            raise ParameterError("AVG_W_POW requires the exponent p")
        q = p * alpha
        if q == -1.0:
            return _coeff_pow(c, p) * math.log(t)
        return _coeff_pow(c, p) * t ** (q + 1.0) / (q + 1.0)
    raise ParameterError(f"unknown moment kind {kind}")


def _antideriv_zero_limit(c: float, alpha: float, kind: MomentKind, p: float | None) -> float:
    """Limit of the antiderivative as t -> 0+ on a piece touching 0.

    Returns -inf when the integral diverges there (only possible for
    AVG_W_POW with p*alpha <= -1).
    """
    if kind is MomentKind.AVG_W_POW:
        if p is None:
            raise ParameterError("AVG_W_POW requires the exponent p")
        if p * alpha <= -1.0:
            return -math.inf
        return 0.0
    # alpha > -1 is enforced on zero pieces; t^(alpha+1) and t log t vanish
    return 0.0


def _expm1_ratio(z: float) -> float:
    return math.expm1(z) / z if z != 0.0 else 1.0


def _power_diff(g: float, s: float, e: float) -> float:
    """(e^g - s^g)/g for 0 < s < e, continuous through g = 0 (-> log(e/s)).

    The naive difference loses every digit when g*log(e/s) is tiny (the
    near-critical exponents that the divergence diagnostics live on), so
    that regime is routed through expm1.
    """
    big = math.log(e / s)
    z = g * big
    if abs(z) < 0.5:
        return s**g * big * _expm1_ratio(z)
    return (e**g - s**g) / g


def _ulogu_series(z: float, big: float) -> float:
    """int_0^L u e^{z u / L} du = L^2 sum z^k / (k! (k+2)), |z| < 1."""
    acc = 0.0
    zk = 1.0
    for k in range(30):
        term = zk / (k + 2.0)
        acc += term
        if abs(term) < 1e-17 * abs(acc):
            break
        zk *= z / (k + 1.0)
    return big * big * acc


def _piece_integral(piece: PowerPiece, s: float, e: float, kind: MomentKind, p: float | None) -> float:
    """Integral of the kind's integrand over [s, e] inside the piece support."""
    if e <= s:
        return 0.0
    c, alpha = piece.coeff, piece.exponent
    if s == 0.0:
        lo = _antideriv_zero_limit(c, alpha, kind, p)
        if lo == -math.inf:
            return math.inf
        return _antideriv(c, alpha, e, kind, p) - lo
    if kind is MomentKind.AVG_W:
        return c * _power_diff(alpha + 1.0, s, e)
    if kind is MomentKind.AVG_W_POW:
        if p is None:
            raise ParameterError("AVG_W_POW requires the exponent p")
        return _coeff_pow(c, p) * _power_diff(p * alpha + 1.0, s, e)
    if kind is MomentKind.AVG_LOG_W:
        return (e - s) * math.log(c) + alpha * (
            e * math.log(e) - s * math.log(s) - (e - s)
        )
    if kind is not MomentKind.AVG_W_LOG_W:
        raise ParameterError(f"unknown moment kind {kind}")
    # c log(c) t^alpha + c alpha t^alpha log t; the second integral via
    # t = s e^u is s^{a1} (log(s) (e^{a1 L} - 1)/a1 + int_0^L u e^{a1 u} du)
    a1 = alpha + 1.0
    big = math.log(e / s)
    z = a1 * big
    out = c * math.log(c) * _power_diff(a1, s, e)
    if abs(z) < 0.5:
        tlog = s**a1 * (math.log(s) * big * _expm1_ratio(z) + _ulogu_series(z, big))
    else:
        tlog = (
            e**a1 * (a1 * math.log(e) - 1.0) - s**a1 * (a1 * math.log(s) - 1.0)
        ) / (a1 * a1)
    return out + c * alpha * tlog


def moment(w: Weight, interval: Interval, kind: MomentKind, p: float | None = None) -> float:
    """Average of the kind's integrand over the interval.

    AVG_W_POW may return +inf: exactly when the interval touches 0 and the
    zero piece has p*alpha <= -1.  The other kinds are always finite.
    """
    total = 0.0
    for piece in w.pieces:
        s = max(interval.a, piece.support.a)
        e = min(interval.b, piece.support.b)
        if e > s:
            val = _piece_integral(piece, s, e, kind, p)
            if val == math.inf:
                return math.inf
            total += val
    return total / interval.length


def cumulative_moment(w: Weight, points: np.ndarray, kind: MomentKind, p: float | None = None) -> np.ndarray:
    """Cumulative integrals F(points[i]) = integral over [0, points[i]].

    points must be sorted, inside [0, 1].  Where the integral from 0 diverges
    (AVG_W_POW on a singular zero piece) entries with points > 0 are -inf in
    the antiderivative sense: differences F(b) - F(a) then give +inf for
    a = 0 and the correct finite value for a > 0.  Concretely the returned
    array holds a continuous antiderivative anchored so F(0) = 0 when finite,
    and F(0) = -inf in the divergent case.
    """
    pts = np.asarray(points, dtype=float)
    out = np.empty_like(pts)
    idx = 0
    if idx < len(pts) and pts[idx] == 0.0:
        out[idx] = _antideriv_zero_limit(w.pieces[0].coeff, w.pieces[0].exponent, kind, p)
        idx += 1
    shift = 0.0  # additive constant making the antiderivative continuous across pieces
    for i, piece in enumerate(w.pieces):
        b = piece.support.b
        while idx < len(pts) and pts[idx] <= b:
            out[idx] = shift + _antideriv(piece.coeff, piece.exponent, pts[idx], kind, p)
            idx += 1
        if i + 1 < len(w.pieces):
            nxt = w.pieces[i + 1]
            shift += _antideriv(piece.coeff, piece.exponent, b, kind, p) - _antideriv(
                nxt.coeff, nxt.exponent, nxt.support.a, kind, p
            )
    if idx != len(pts):
        raise DomainError("cumulative points must lie in [0, 1] sorted ascending")
    return out


def truncate(w: Weight, n: float) -> Weight:
    """Two-sided truncation min(max(w, 1/n), n), n > 1, as a new Weight.

    Crossing points t = (level/coeff)**(1/alpha) become new breakpoints; the
    clamped regions turn into constant pieces.
    """
    if not (n > 1.0 and math.isfinite(n)):
        raise ParameterError(f"truncation level must satisfy n > 1, got {n}")
    lo, hi = 1.0 / n, n
    pieces: list[PowerPiece] = []
    for piece in w.pieces:
        a, b = piece.support.a, piece.support.b
        cuts = {a, b}
        if piece.exponent != 0.0:
            for level in (lo, hi):
                t = (level / piece.coeff) ** (1.0 / piece.exponent)
                if a < t < b:
                    cuts.add(t)
        for s, e in zip(sorted(cuts)[:-1], sorted(cuts)[1:]):
            mid = 0.5 * (s + e)
            val = piece.coeff * mid**piece.exponent
            if val < lo:
                pieces.append(PowerPiece(Interval(s, e), lo, 0.0))
            elif val > hi:
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
