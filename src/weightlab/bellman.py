"""Three explicit Bellman surfaces and their verification toolkit.

Each surface is built from tangent lines to the lower boundary curve of its
domain, touching the upper boundary; the tangent abscissa v of a point is a
branch root of u - log u = c (solvers' root kernel), after which the surface
value, gradient and second derivatives are closed forms.  The surfaces:

AINF_UPPER  domain 1 <= x e^{-y} <= Q (x = avg w, y = avg log w),
            value = sharp upper bound on avg(w log w);
GEHRING     domain x log x <= y <= x log x + Q x (y = avg w log w),
            value = sharp upper bound on avg(w^{1+eps});
AINF_LOWER  same entropy domain, value = sharp lower bound on avg(log w).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DomainError, ParameterError
from .solvers import RootResult, _bracket, _log_bound, _log_root, _ops, gamma_entropy_roots, gamma_log

__all__ = [
    "SurfaceKind",
    "BellmanSurface",
    "HessianResult",
    "BoundsReport",
    "in_domain",
    "tangent_point",
    "evaluate",
    "hessian",
    "hessian_signature",
    "tangent_linearity_excess",
    "interior_grid",
    "bounds_check_ainf",
]

DOMAIN_TOL = 1e-12
POINT_TOL, CHORD_TOL = 1e-9, 1e-12  # how far past the domain (by _excess) an admissible moment point and chord reach
# evaluate_many works in blocks, solved in place: one peaks at 10 arrays of its size (tracemalloc, one block of 8,192 points)
_BLOCK = 8192


class SurfaceKind(Enum):
    AINF_UPPER = "ainf_upper"
    GEHRING = "gehring"
    AINF_LOWER = "ainf_lower"


@dataclass(frozen=True)
class BellmanSurface:
    kind: SurfaceKind
    q: float
    eps: float | None = None

    def __post_init__(self):
        if self.kind is SurfaceKind.AINF_UPPER:
            if not (self.q > 1.0 and math.isfinite(self.q)):
                raise ParameterError(f"AINF_UPPER needs q > 1, got {self.q}")
        else:
            if not (self.q > 0.0 and math.isfinite(self.q)):
                raise ParameterError(f"{self.kind.value} needs q > 0, got {self.q}")
        if self.eps is not None:
            if self.kind is not SurfaceKind.GEHRING:
                raise ParameterError("eps only applies to the GEHRING surface")
            if not (0.0 < self.eps < 1.0 / (self.gamma - 1.0)):
                raise ParameterError(
                    f"GEHRING eps must lie in (0, {1.0 / (self.gamma - 1.0)}), got {self.eps}"
                )

    @cached_property
    def gamma(self) -> float:
        """Tangency slope parameter: the relevant root of t - log t = rhs."""
        if self.kind is SurfaceKind.AINF_UPPER:
            return gamma_log(self.q).root
        minus, plus = gamma_entropy_roots(self.q)
        return plus.root if self.kind is SurfaceKind.GEHRING else minus.root

    @property
    def entropy_coordinates(self) -> bool:
        return self.kind is not SurfaceKind.AINF_UPPER


@np.errstate(all="ignore")
def _excess(entropy: bool, q: float, x, y):
    """Gap past the nearer boundary of the q domain over its scale (float, x > 0, or array), <= 0
    inside.  Log coordinates: max(1 - r, r - q) / max(1, q), r = x e^{-y}; entropy coordinates:
    max(x log x - y, y - x log x - q x) / max(1, |x log x| + q x).  A point far outside
    overflows to inf, and a non-finite coordinate reads inf or nan, with no warning."""
    xp = _ops(x)
    if entropy:
        base = x * xp.log(x)
        return xp.maximum(base - y, y - base - q * x) / xp.maximum(1.0, abs(base) + q * x)
    if xp is np:
        r = np.asarray(x * np.exp(-y))
        deep = y < -700.0  # e^-y overflows past -709.8, while x e^-y may not
        if deep.any():
            r[deep] = np.exp(np.log(x[deep]) - y[deep])
    else:
        try:
            r = x * math.exp(-y) if y >= -700.0 else math.exp(math.log(x) - y)
        except OverflowError:  # x e^-y past the double range
            r = math.inf
    return xp.maximum(1.0 - r, r - q) / max(1.0, q)


def in_domain(surface: BellmanSurface, x, y, tol: float = DOMAIN_TOL):
    """Domain membership (bool or bool array): finite, x > 0 and _excess <= tol."""
    xp = _ops(x)
    if xp is not np:  # a numpy float32 or float16 would keep its precision through float arithmetic
        x, y = float(x), float(y)
    ok = (x > 0.0) & xp.isfinite(x) & xp.isfinite(y)
    if xp is not np:
        return bool(ok and _excess(surface.entropy_coordinates, surface.q, x, y) <= tol)
    x, y = np.where(ok, x, 1.0), np.where(ok, y, 0.0)  # float arrays, masked points at (1, 0)
    return ok & (_excess(surface.entropy_coordinates, surface.q, x, y) <= tol)


def _chord_excess(entropy: bool, q: float, p0, p1) -> np.ndarray:
    """Largest _excess along each chord p0[k] -> p1[k] ((n, 2) arrays or lists of pairs), exact up to rounding.

    Along a chord log(x e^{-y}) and y - x log x are concave: each boundary gap peaks at
    an end or at x = dx/dy (log coordinates), x = exp(dy/dx - 1 - q) (entropy), taken at
    its position s in (0, 1) on p0 + s (p1 - p0).  A non-finite coordinate reads inf or nan.
    """
    (x0, y0), (x1, y1) = (np.asarray(p, dtype=float).reshape(-1, 2).T for p in (p0, p1))
    with np.errstate(all="ignore"):  # once: _excess is called undecorated
        dx, dy = x1 - x0, y1 - y0
        s = ((np.exp(dy / dx - 1.0 - q) if entropy else dx / dy) - x0) / dx
        at = np.zeros((3, s.size))  # the ends, then the peak
        at[1], at[2] = 1.0, np.where((s > 0.0) & (s < 1.0), s, 0.0)
        return _excess.__wrapped__(entropy, q, x0 + at * dx, y0 + at * dy).max(axis=0)


def _tangent_solve(surface: BellmanSurface, x, y):
    """Tangent abscissa v (float or array) and the c1 solved for.

    u = g x / v (AINF_UPPER) or u = g v / x (GEHRING, AINF_LOWER) turns the
    tangent equation into u - log u = 1 + c1, GEHRING on the upper branch.
    By the gamma equation, c1 is c1_lower (log q or q) less the point's
    height above the lower boundary: c1_lower there (u = g), 0 on the upper
    boundary (u = 1).  u = g and v = x are exact on the lower boundary, where
    the value's error is v's error over g (~1e-8 at q = 1e6).  The solve is solvers._log_root
    (one Newton step from its start, Halley's in the series band), which forms u alone:
    evaluate_many, the array Hessian and through them the linearity and chain
    checks read only v, and tangent_point maps _bracket(c1) to v itself.  On
    arrays the height and c1 share one new buffer, and v is written over u's.
    """
    xp, g, entropy = _ops(x), surface.gamma, surface.entropy_coordinates
    c1 = xp.log(x)  # the height, log x - y or (y - x log x) / x, then c1
    if entropy:
        c1_lower = surface.q
        c1 *= x
        c1 = xp.subtract(y, c1, out=c1)  # y first: of two NaNs, y's is kept, as it always was
        c1 /= x
    else:
        c1_lower = math.log(surface.q)
        c1 -= y
    c1 = xp.minimum(xp.maximum(xp.subtract(c1_lower, c1, out=c1), 0.0, out=c1), c1_lower, out=c1)
    u = _log_root(c1, upper=surface.kind is SurfaceKind.GEHRING)[0]
    if xp is np:  # the lower boundary: u = g, and so v = x, exactly
        u[c1 == c1_lower] = g
    elif c1 == c1_lower:
        u = g
    u = xp.divide(u, g, out=u) if entropy else xp.divide(g, u, out=u)
    u *= x
    return u, c1


def _admissible_solve(surface: BellmanSurface, x, y):
    """_tangent_solve at admissible points (floats or arrays).  DomainError names the first
    point outside the domain, or (_inside_solve) whose tangent abscissa underflows to 0."""
    if not _ops(x).all(ok := in_domain(surface, x, y, tol=POINT_TOL)):
        k = np.argmin(ok)
        raise DomainError(f"point ({np.ravel(x)[k]}, {np.ravel(y)[k]}) outside the {surface.kind.value} domain")
    return _inside_solve(surface, x, y)


def _inside_solve(surface: BellmanSurface, x, y):
    """_tangent_solve at points in the domain.  DomainError names the first point whose
    tangent abscissa underflows to 0 (x near 5e-324)."""
    solved = _tangent_solve(surface, x, y)
    if not _ops(x).all(ok := solved[0] > 0.0):
        k = np.argmin(ok)
        raise DomainError(f"point ({np.ravel(x)[k]}, {np.ravel(y)[k]}) has a tangent abscissa underflowing to 0")
    return solved


def tangent_point(surface: BellmanSurface, x: float, y: float) -> RootResult:
    """Tangent abscissa v for the point (v = x on the lower boundary), residual at v."""
    x, y = float(x), float(y)
    v, c1 = _admissible_solve(surface, x, y)
    g, (lo, hi) = surface.gamma, _bracket(c1, upper=surface.kind is SurfaceKind.GEHRING)
    if surface.kind is SurfaceKind.AINF_UPPER:
        if c1 == math.log(surface.q):  # the lower boundary, where u is g: gamma_log's bracket holds it
            lo, hi = gamma_log(surface.q).bracket
        bracket = (x * (g / hi), x * (g / lo))
    else:
        bracket = (x * (lo / g), x * (hi / g))
    return RootResult(v, _tangent_y(surface, x, v) - y, bracket, 1)


def _tangent_y(surface: BellmanSurface, x, v):
    """Height at x of the tangent line through abscissa v."""
    g, log_v = surface.gamma, _ops(v).log(v)
    if surface.kind is SurfaceKind.AINF_UPPER:
        return g * x / v + log_v - g
    return (log_v + g) * x - g * v


def _value(surface: BellmanSurface, x: np.ndarray, y: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The value at (x, y) from the tangent abscissa v, which it spends: an array v is written over."""
    g = surface.gamma
    if surface.kind is SurfaceKind.GEHRING:  # v^eps (x (1 + eps) - eps g v) / (1 + eps - g eps)
        eps = _require_eps(surface)
        value, rest = v**eps, x * (1.0 + eps)
        v *= eps * g
        rest -= v
        value *= rest
        value /= 1.0 + eps - g * eps
        return value
    # numpy's log for a float too (its bits are the pinned ones), then float arithmetic,
    # where a value past the double range reads inf without a RuntimeWarning
    value = np.log(v) if isinstance(v, np.ndarray) else float(np.log(v))
    if surface.kind is SurfaceKind.AINF_UPPER:  # x log v + (x - v) / g
        value *= x
    else:  # log v + (x - v) / (g v)
        g = v * g
    v -= x
    v /= g
    value -= v
    return value


def _require_eps(surface: BellmanSurface) -> float:
    if surface.eps is None:
        raise ParameterError("GEHRING surface evaluation needs eps")
    return surface.eps


def evaluate(surface: BellmanSurface, x: float, y: float) -> float:
    """Surface value at an admissible point."""
    x, y = float(x), float(y)
    if surface.kind is SurfaceKind.GEHRING:
        _require_eps(surface)
    return _evaluate_at(surface, x, y, _admissible_solve(surface, x, y)[0])


def _evaluate_at(surface: BellmanSurface, x, y, v) -> float:
    """evaluate at (x, y) from its tangent abscissa v, solved already."""
    try:
        return float(_value(surface, x, y, v))
    except ZeroDivisionError:  # AINF_LOWER divides by g v, which a subnormal v underflows
        raise DomainError(f"point ({x}, {y}): its tangent abscissa times gamma underflows to 0") from None
    except OverflowError:  # GEHRING's v**eps on a float v past the double range
        raise DomainError(f"point ({x}, {y}): its value overflows a double") from None


@np.errstate(all="ignore")
def evaluate_many(surface: BellmanSurface, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized evaluate without per-point domain checks (grid verifications).

    A point outside the domain, or whose value passes the double range, reads
    inf or nan (AINF_LOWER grows like e^q), with no warning.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    out = np.empty(x.shape)
    xs, ys, vals = x.reshape(-1), y.reshape(-1), out.reshape(-1)
    for k in range(0, vals.size, _BLOCK):
        b = slice(k, k + _BLOCK)
        vals[b] = _value(surface, xs[b], ys[b], _tangent_solve(surface, xs[b], ys[b])[0])
    return out


@dataclass(frozen=True)
class HessianResult:
    matrix: np.ndarray
    eigenvalues: tuple
    det: float | np.ndarray
    boundary_warning: bool | np.ndarray


def _closed_hessian(surface: BellmanSurface, x, y, v) -> np.ndarray:
    g = surface.gamma
    if surface.kind is SurfaceKind.AINF_UPPER:
        bxx = g / (g * x - v)
        byy = -v * v / (g * (v - g * x))
        bxy = v / (v - g * x)
    else:
        a = _ops(v).log(v) + g
        if surface.kind is SurfaceKind.GEHRING:
            eps = _require_eps(surface)
            d = 1.0 + eps - g * eps
            scale = eps * eps * (1.0 + eps) * v**eps / (d * (x - g * v))
        else:
            scale = 1.0 / (g * v * (x - g * v))
        bxx, bxy, byy = scale * (a * a), scale * -a, scale
    return np.moveaxis(np.array([[bxx, bxy], [bxy, byy]]), (0, 1), (-2, -1))


@np.errstate(all="ignore")
def hessian(surface: BellmanSurface, x, y) -> HessianResult:
    """Second derivative matrix at an interior point, or (..., 2, 2) matrices at arrays of points.

    Closed forms by implicit differentiation (det is exactly zero in exact
    arithmetic for all three surfaces), on math for floats, batched for arrays.
    boundary_warning flags points within 1e-10 of the boundary, by the domain rule's scale.
    Where an entry passes the double range (on the boundary, or at extreme q:
    AINF_UPPER near q = 1e300, AINF_LOWER near q = 700) it reads +-inf, and
    the eigenvalues and det inf or nan, with no warning.
    """
    scalar = np.ndim(x) == 0 and np.ndim(y) == 0
    if scalar:
        x, y = float(x), float(y)
    else:
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    v = _admissible_solve(surface, x, y)[0]
    mat = _closed_hessian(surface, np.float64(x) if scalar else x, y, v)  # a denominator that underflows reads inf
    eigs, det = np.linalg.eigvalsh(mat), np.linalg.det(mat)
    lo, hi = eigs[..., 0], eigs[..., 1]
    if scalar:
        lo, hi, det = float(lo), float(hi), float(det)
    warn = _excess(surface.entropy_coordinates, surface.q, x, y) > -1e-10
    return HessianResult(matrix=mat, eigenvalues=(lo, hi), det=det, boundary_warning=warn)


@np.errstate(all="ignore")
def hessian_signature(surface: BellmanSurface, x, y) -> tuple[np.ndarray, float, HessianResult]:
    """Excess over the Hessian's signature at each point, its threshold, and the Hessian.

    Each surface solves det = 0 (homogeneous Monge-Ampere) with a fixed sign.  With m =
    max(1, largest |entry|) at a point, the excess is max(|det| / m^2, B_yy) on AINF_UPPER
    (threshold 1e-6), max eigenvalue / m on GEHRING and -min eigenvalue / m on AINF_LOWER (1e-8).
    A non-finite Hessian gives an inf or nan excess, with no warning.
    """
    res = hessian(surface, x, y)
    m = np.maximum(1.0, np.max(np.abs(res.matrix), axis=(-2, -1)))
    if surface.kind is SurfaceKind.AINF_UPPER:
        return np.maximum(np.abs(res.det) / m**2, res.matrix[..., 1, 1]), 1e-6, res
    if surface.kind is SurfaceKind.GEHRING:
        return res.eigenvalues[1] / m, 1e-8, res
    return -res.eigenvalues[0] / m, 1e-8, res


def _tangent_segment(surface: BellmanSurface, v):
    """x-range of the tangent segment through abscissa v inside the domain."""
    g = surface.gamma
    if surface.kind is SurfaceKind.AINF_UPPER:
        return v, v / g
    if surface.kind is SurfaceKind.GEHRING:
        return v, g * v
    return g * v, v


@np.errstate(all="ignore")
def tangent_linearity_excess(surface: BellmanSurface, v, n_samples: int = 33):
    """Excess over affinity on each tangent segment, its threshold 1e-9, and the deviations.

    The deviation is rounding in evaluate, which grows with the surface's size
    (e^q on AINF_LOWER), so, as hessian_signature scales by the entries, the
    excess is the deviation over max(1, max |B| on the segment).  A non-finite
    deviation or scale (a value past the double range, at extreme q) gives an
    infinite excess; the deviation itself is then inf or nan.  No warning is raised.
    """
    v = np.asarray(v, dtype=float)
    if not np.all((v > 0.0) & np.isfinite(v)):
        raise ParameterError(f"tangent abscissa must be positive, got {v}")
    if n_samples < 2:
        raise ParameterError("need at least 2 samples")
    xs = np.linspace(*_tangent_segment(surface, v), n_samples, axis=-1)
    vals = evaluate_many(surface, xs, _tangent_y(surface, xs, v[..., None]))
    tau = (xs - xs[..., :1]) / (xs[..., -1:] - xs[..., :1])
    affine = vals[..., :1] * (1.0 - tau) + vals[..., -1:] * tau  # exact at both ends
    dev, top = np.max(np.abs(vals - affine), axis=-1), np.max(np.abs(vals), axis=-1)
    finite = np.isfinite(dev) & np.isfinite(top)
    return np.where(finite, dev, np.inf) / np.maximum(1.0, np.where(finite, top, 1.0)), 1e-9, dev


def interior_grid(surface: BellmanSurface, n_x: int, n_f: int) -> tuple[np.ndarray, np.ndarray]:
    """n_f-by-n_x grid, flattened: x in [0.3, 3], y 2% ... 98% of the way up the domain."""
    xs = np.linspace(0.3, 3.0, n_x)
    fracs = np.linspace(0.02, 0.98, n_f)
    xg, fg = np.meshgrid(xs, fracs)
    if surface.entropy_coordinates:
        yg = xg * np.log(xg) + fg * surface.q * xg
    else:
        yg = np.log(xg) - fg * math.log(surface.q)
    return xg.ravel(), yg.ravel()


@dataclass(frozen=True)
class BoundsReport:
    grid: int
    max_lower_violation: float
    max_upper_violation: float
    ratio_max: float
    ratio_bound: float
    passed: bool


@np.errstate(all="ignore")
def bounds_check_ainf(q: float, grid: int = 100) -> BoundsReport:
    """Check x log x <= B <= x log x + e q x on a grid of the log domain.

    Violations are reported as positive excesses (0 means the bound holds), and
    the check passes when both are at most 1e-9.  ratio_max is the grid maximum
    of (B - x log x)/x, mathematically equal to ratio_bound = log g + 1/g - 1,
    attained on the upper boundary; ratio_bound is solvers._log_bound at q, the
    one home of that bound, which keeps the digits the direct form cancels near q = 1.
    At extreme q (about 1e300 up) the grid values overflow, the violations and
    ratio_max read inf or nan, and the check fails, with no warning.
    """
    surface = BellmanSurface(SurfaceKind.AINF_UPPER, q)
    if grid < 2:
        raise ParameterError("grid must be >= 2")
    xs = np.linspace(0.25, 4.0, grid)
    rs = np.geomspace(1.0, q, grid)
    xg, rg = np.meshgrid(xs, rs)
    yg = np.log(xg) - np.log(rg)
    vals = evaluate_many(surface, xg.ravel(), yg.ravel())
    base = (xg * np.log(xg)).ravel()
    xflat = xg.ravel()
    lower = float(max(np.max(base - vals), 0.0))
    upper = float(max(np.max(vals - base - math.e * q * xflat), 0.0))
    ratio = np.max((vals - base) / xflat)
    return BoundsReport(
        grid=grid,
        max_lower_violation=lower,
        max_upper_violation=upper,
        ratio_max=float(ratio),
        ratio_bound=_log_bound(math.log(q), q=q),
        passed=lower <= 1e-9 and upper <= 1e-9,
    )
