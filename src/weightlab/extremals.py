"""Extremal weights attaining the Bellman surface values.

Every family glues a power spike t^{alpha} at the origin to a constant tail
(or is a single pure power).  The glue point and the spike exponent come
from the tangent-line construction, so that for the designated moment the
weight reproduces the surface value exactly, not just approximately.  An
attainment report takes its weight from one build, and its surface value from
the tangent abscissa that build solved, where the weight glues at one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bellman import _BLOCK, POINT_TOL, BellmanSurface, SurfaceKind, _evaluate_at, _inside_solve, evaluate, in_domain
from .errors import InfeasibleTargetError, ParameterError
from .solvers import _log_bound, gamma_entropy_roots
from .weights import (
    Interval,
    MomentKind,
    PowerPiece,
    Weight,
    constant_weight,
    moment,
)

__all__ = [
    "Family",
    "ExtremalSpec",
    "AttainmentReport",
    "build",
    "default_target",
    "attainment_check",
    "divergence_probe",
    "sharpness_sweep",
]

GLUE_TOL = 1e-12


class Family(Enum):
    AINF_UPPER = "ainf_upper"
    GEHRING_BOUNDARY = "gehring_boundary"
    GEHRING_INTERIOR = "gehring_interior"
    FUNNY = "funny"


@dataclass(frozen=True)
class ExtremalSpec:
    family: Family
    q: float
    target: tuple[float, float] | None = None
    eps: float | None = None

    def __post_init__(self):
        if self.family is Family.AINF_UPPER:
            if not (self.q > 1.0 and math.isfinite(self.q)):
                raise ParameterError(f"{self.family.value} needs q > 1, got {self.q}")
        elif not (self.q > 0.0 and math.isfinite(self.q)):
            raise ParameterError(f"{self.family.value} needs q > 0, got {self.q}")
        if self.eps is not None and not math.isfinite(self.eps):
            raise ParameterError(f"eps must be finite, got {self.eps}")


def _surface_for(spec: ExtremalSpec) -> BellmanSurface:
    if spec.family is Family.AINF_UPPER:
        return BellmanSurface(SurfaceKind.AINF_UPPER, spec.q)
    if spec.family is Family.FUNNY:
        return BellmanSurface(SurfaceKind.AINF_LOWER, spec.q)
    return BellmanSurface(SurfaceKind.GEHRING, spec.q, eps=spec.eps)


def default_target(spec: ExtremalSpec) -> tuple[float, float]:
    """Representative interior (or boundary) point for each family."""
    if spec.family is Family.AINF_UPPER:
        # mid-domain: x = 1, x e^{-y} = sqrt(Q)
        return 1.0, -0.5 * math.log(spec.q)
    if spec.family is Family.FUNNY:
        return 1.0, spec.q  # entropy point of the spike, on the upper boundary
    gp = gamma_entropy_roots(spec.q)[1].root
    if spec.family is Family.GEHRING_BOUNDARY:
        x = gp
        return x, x * math.log(x) + spec.q * x
    if spec.family is Family.GEHRING_INTERIOR:
        # midpoint of the tangent segment through v = 1
        x = 0.5 * (1.0 + gp)
        return x, gp * (x - 1.0)


def _power_spike(value: float, glue: float, exponent: float) -> Weight:
    """Weight equal to value * (t/glue)^exponent on [0, glue] and value after."""
    if glue >= 1.0 - GLUE_TOL:
        return Weight((PowerPiece(Interval(0.0, 1.0), value * glue**-exponent, exponent),))
    if glue <= 0.0:
        return constant_weight(value)
    c = value * glue**-exponent
    return Weight(
        (
            PowerPiece(Interval(0.0, glue), c, exponent),
            PowerPiece(Interval(glue, 1.0), value, 0.0),
        )
    )


def build(spec: ExtremalSpec) -> Weight:
    """Construct the extremal weight; raises InfeasibleTargetError off-domain."""
    return _build(spec, *(spec.target if spec.target is not None else default_target(spec)))[0]


def _build(spec: ExtremalSpec, x, y) -> tuple[Weight, BellmanSurface, float | None]:
    """The extremal weight at (x, y), its surface and the tangent abscissa v it glues at (None for FUNNY
    and GEHRING_BOUNDARY, whose weights take none); x and y are read as floats."""
    surface = _surface_for(spec)
    if spec.family is Family.FUNNY:
        gm = surface.gamma
        return Weight((PowerPiece(Interval(0.0, 1.0), 1.0 / gm, (1.0 - gm) / gm),)), surface, None
    x, y = float(x), float(y)
    if not in_domain(surface, x, y, tol=POINT_TOL):
        raise InfeasibleTargetError(
            f"target ({x}, {y}) outside the {surface.kind.value} domain for q = {spec.q}"
        )
    g = surface.gamma
    if spec.family is Family.GEHRING_BOUNDARY:
        base = x * math.log(x) + spec.q * x
        if abs(y - base) > 1e-9 * max(1.0, abs(base)):
            raise InfeasibleTargetError(
                f"target ({x}, {y}) is not on the upper boundary y = x log x + q x"
            )
        return Weight((PowerPiece(Interval(0.0, 1.0), x / g, (1.0 - g) / g),)), surface, None
    v = _inside_solve(surface, x, y)[0]  # tangent_point's root, in the domain tested above
    den = v * (g - 1.0)  # the glue point is (x - v) / den, g (v - x) / den on AINF_UPPER
    if den == 0.0:
        raise InfeasibleTargetError(f"target ({x}, {y}): v (gamma - 1) underflows to 0 at v = {v}")
    if spec.family is Family.AINF_UPPER:
        return _power_spike(v, min(max(g * (v - x) / den, 0.0), 1.0), g - 1.0), surface, v
    return _power_spike(v, min(max((x - v) / den, 0.0), 1.0), (1.0 - g) / g), surface, v


@dataclass(frozen=True)
class AttainmentReport:
    surface_value: float
    weight_value: float
    gap: float
    x: float
    y: float


def attainment_check(spec: ExtremalSpec, eps: float | None = None) -> AttainmentReport:
    """Compare the designated moment of the built weight with the surface value.

    AINF_UPPER compares avg(w log w); GEHRING families compare avg(w^{1+eps});
    FUNNY compares avg(log w) against the lower surface.  The gap is relative.
    The report is formed from the one built weight and its one tangent solve.
    The funny weight depends on q alone and attains only default_target: a
    target of that family elsewhere in the domain raises InfeasibleTargetError.
    """
    return _attain(spec, eps)[0]


def _attain(spec: ExtremalSpec, eps: float | None = None) -> tuple[AttainmentReport, Weight]:
    """attainment_check's report and the weight it measured."""
    eff_eps = eps if eps is not None else spec.eps
    if spec.family in (Family.GEHRING_BOUNDARY, Family.GEHRING_INTERIOR):
        if eff_eps is None:
            raise ParameterError("gehring attainment needs eps")
        spec = ExtremalSpec(spec.family, spec.q, spec.target, eff_eps)
    target = spec.target if spec.target is not None else default_target(spec)
    x, y = target
    w, surface, v = _build(spec, x, y)  # FUNNY and GEHRING_BOUNDARY take no v: they solve in evaluate
    value = evaluate(surface, x, y) if v is None else _evaluate_at(surface, float(x), float(y), v)
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
    scale = max(1.0, abs(value))
    return AttainmentReport(value, measured, (measured - value) / scale, x, y), w


def divergence_probe(w: Weight, p: float, deltas: tuple[float, ...]) -> list[float]:
    """Truncated integrals of w^p over [delta, 1] for a divergence diagnostic."""
    out = []
    for d in deltas:
        if not (0.0 < d < 1.0):
            raise ParameterError(f"delta must be in (0, 1), got {d}")
        iv = Interval(d, 1.0)
        out.append(moment(w, iv, MomentKind.AVG_W_POW, p=p) * (1.0 - d))
    return out


def sharpness_sweep(q_values: tuple[float, ...]) -> list[tuple[float, float, float]]:
    """Ratio-to-asymptote table for the sup-bound constants.

    Columns: q, (log g + 1/g - 1)/q for the exp-entropy bound, g = gamma_log(q)
    (NaN for q <= 1), and funny_bound_log(q) / (e^{q+1} - q - 2) for the
    tangent-construction lower bound.  Both numerators come from solvers._log_bound,
    one array root solve per column and block of bellman._BLOCK q's, the first given
    q, so its g is gamma_log's.  Each row's bits are its own: the solve takes one step at
    every c1 <= 745, and no c1 here is past it.  The funny ratio is 1.0 past q + 1 = 690:
    both sides grow like e^{q+1} and differ by less than (q + 2) e^{-(q+1)} relative,
    while the asymptote would soon overflow.
    A q with q + 1 == 1 is refused, as the roots collapse to 1.
    """
    qs = np.array(q_values, dtype=float)
    bad = ~((qs > 0.0) & (qs < math.inf))  # NaN too; the first offender is named
    if bad.any():
        raise ParameterError(f"sweep needs q > 0, got {q_values[bad.argmax()]}")
    bad = qs + 1.0 == 1.0
    if bad.any():
        raise ParameterError(f"q = {q_values[bad.argmax()]} below float resolution, roots collapse to 1")
    e_ratio = np.full(qs.size, math.nan)
    funny_ratio = np.ones(qs.size)
    for k in range(0, qs.size, _BLOCK):
        q = qs[k : k + _BLOCK]
        e, f = e_ratio[k : k + _BLOCK], funny_ratio[k : k + _BLOCK]
        big, mid = q > 1.0, q + 1.0 <= 690.0
        # q = 2m 2^(n-1), m in [1/2, 1): the power of two divides exactly
        m, n = np.frexp(q[big])
        e[big] = _log_bound(np.log(q[big]), np.ldexp(1.0, n - 1), q[big]) / (2.0 * m)
        f[mid] = _log_bound(q[mid]) / (math.e * np.exp(q[mid]) - q[mid] - 2.0)
    return list(zip(q_values, e_ratio.tolist(), funny_ratio.tolist()))
