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
    "tangent_linearity_check",
    "tangent_linearity_excess",
    "interior_grid",
    "bounds_check_ainf",
]

DOMAIN_TOL = 1e-12
# evaluate_many works in blocks: a tangent solve holds ~15 arrays of its input's size
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


def _excess(entropy: bool, q: float, x, y):
    """Gap past the nearer boundary of the q domain over its scale (float, x > 0, or array), <= 0
    inside.  Log coordinates: max(1 - r, r - q) / max(1, q), r = x e^{-y}; entropy coordinates:
    max(x log x - y, y - x log x - q x) / max(1, |x log x| + q x)."""
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
    ok = (x > 0.0) & xp.isfinite(x) & xp.isfinite(y)
    if xp is not np:
        return ok and _excess(surface.entropy_coordinates, surface.q, x, y) <= tol
    x, y = np.where(ok, x, 1.0), np.where(ok, y, 0.0)  # float arrays, masked points at (1, 0)
    with np.errstate(all="ignore"):  # a point far outside overflows its excess to inf
        return ok & (_excess(surface.entropy_coordinates, surface.q, x, y) <= tol)


def _tangent_solve(surface: BellmanSurface, x, y):
    """Tangent abscissa v (float or array), the kernel's steps and the c1 solved for.

    u = g x / v (AINF_UPPER) or u = g v / x (GEHRING, AINF_LOWER) turns the
    tangent equation into u - log u = 1 + c1, GEHRING on the upper branch.
    By the gamma equation, c1 is c1_lower (log q or q) less the point's
    height above the lower boundary: c1_lower there (u = g), 0 on the upper
    boundary (u = 1).  u = g and v = x are exact on the lower boundary, where
    the value's error is v's error over g (~1e-8 at q = 1e6).  The solve is
    solvers._log_root, which forms u alone: evaluate_many, the array Hessian
    and through them the linearity and chain checks read only v, and
    tangent_point maps _bracket(c1) to v itself.
    """
    xp = _ops(x)
    g = surface.gamma
    if surface.kind is SurfaceKind.AINF_UPPER:
        c1_lower, height = math.log(surface.q), xp.log(x) - y
    else:
        c1_lower, height = surface.q, (y - x * xp.log(x)) / x
    c1 = xp.minimum(xp.maximum(c1_lower - height, 0.0), c1_lower)
    u, _, _, steps = _log_root(c1, upper=surface.kind is SurfaceKind.GEHRING)
    u = xp.where(c1 == c1_lower, g, u)
    return (x * (g / u) if surface.kind is SurfaceKind.AINF_UPPER else x * (u / g)), steps, c1


def tangent_point(surface: BellmanSurface, x: float, y: float) -> RootResult:
    """Tangent abscissa v for the point (v = x on the lower boundary), residual at v."""
    if not in_domain(surface, x, y, tol=1e-9):
        raise DomainError(f"point ({x}, {y}) outside the {surface.kind.value} domain")
    x, y = float(x), float(y)
    v, steps, c1 = _tangent_solve(surface, x, y)
    g, (lo, hi) = surface.gamma, _bracket(c1, upper=surface.kind is SurfaceKind.GEHRING)
    if surface.kind is SurfaceKind.AINF_UPPER:
        bracket = (x * (g / hi), x * (g / lo))
    else:
        bracket = (x * (lo / g), x * (hi / g))
    return RootResult(v, _tangent_y(surface, x, v) - y, bracket, steps)


def _tangent_y(surface: BellmanSurface, x, v):
    """Height at x of the tangent line through abscissa v."""
    g, log_v = surface.gamma, _ops(v).log(v)
    if surface.kind is SurfaceKind.AINF_UPPER:
        return g * x / v + log_v - g
    return (log_v + g) * x - g * v


def _value(surface: BellmanSurface, x: np.ndarray, y: np.ndarray, v: np.ndarray) -> np.ndarray:
    g = surface.gamma
    if surface.kind is SurfaceKind.GEHRING:
        eps = _require_eps(surface)
        d = 1.0 + eps - g * eps
        return v**eps * (x * (1.0 + eps) - eps * g * v) / d
    # numpy's log for a float too (its bits are the pinned ones), then float arithmetic,
    # where a value past the double range reads inf without a RuntimeWarning
    log_v = np.log(v) if isinstance(v, np.ndarray) else float(np.log(v))
    if surface.kind is SurfaceKind.AINF_UPPER:
        return x * log_v + (x - v) / g
    return log_v + (x - v) / (g * v)


def _require_eps(surface: BellmanSurface) -> float:
    if surface.eps is None:
        raise ParameterError("GEHRING surface evaluation needs eps")
    return surface.eps


def _evaluate_raw(surface: BellmanSurface, x: float, y: float) -> float:
    return float(_value(surface, x, y, _tangent_solve(surface, x, y)[0]))


def evaluate(surface: BellmanSurface, x: float, y: float) -> float:
    """Surface value at an admissible point."""
    if surface.kind is SurfaceKind.GEHRING:
        _require_eps(surface)
    if not in_domain(surface, x, y, tol=1e-9):
        raise DomainError(f"point ({x}, {y}) outside the {surface.kind.value} domain")
    try:
        return _evaluate_raw(surface, x, y)
    except ZeroDivisionError:  # AINF_LOWER divides by g v, which a subnormal v underflows
        raise DomainError(f"point ({x}, {y}): its tangent abscissa times gamma underflows to 0") from None


def evaluate_many(surface: BellmanSurface, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized evaluate without per-point domain checks (grid verifications)."""
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
    method: str
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


def _boundary_margin(surface: BellmanSurface, x, y):
    """Safe coordinate step keeping x +- h, y +- h inside the domain."""
    xp = _ops(x)
    if surface.entropy_coordinates:
        base = x * xp.log(x)
        lower = y - base
        upper = base + surface.q * x - y
        slope = abs(xp.log(x)) + 1.0 + surface.q
        return xp.minimum(lower, upper) / (2.0 * xp.maximum(slope, 1.0))
    lr = xp.log(x) - y  # = log r in [0, log Q]
    margin = xp.minimum(lr, math.log(surface.q) - lr)
    return margin / 2.0 * xp.minimum(1.0, x)


def _fd_hessian(surface: BellmanSurface, x: float, y: float, h: float) -> np.ndarray:
    f = lambda xx, yy: _evaluate_raw(surface, xx, yy)

    def second(h_: float) -> np.ndarray:
        fxx = (f(x + h_, y) - 2.0 * f(x, y) + f(x - h_, y)) / (h_ * h_)
        fyy = (f(x, y + h_) - 2.0 * f(x, y) + f(x, y - h_)) / (h_ * h_)
        fxy = (
            f(x + h_, y + h_) - f(x + h_, y - h_) - f(x - h_, y + h_) + f(x - h_, y - h_)
        ) / (4.0 * h_ * h_)
        return np.array([[fxx, fxy], [fxy, fyy]])

    coarse = second(h)
    fine = second(h / 2.0)
    return (4.0 * fine - coarse) / 3.0  # Richardson: O(h^4) truncation


def hessian(surface: BellmanSurface, x, y, method: str = "closed") -> HessianResult:
    """Second derivative matrix at an interior point, or (..., 2, 2) matrices at arrays of points.

    "closed" uses implicit-differentiation formulas (det is exactly zero in exact
    arithmetic for all three surfaces), on math for floats, batched for arrays.
    "fd", the reference for "closed", takes one point: central differences with one
    Richardson step at h = 1e-5 * max(1, |x|), shrunk near the boundary with a warning flag.
    """
    scalar = np.ndim(x) == 0 and np.ndim(y) == 0
    if scalar:
        x, y = float(x), float(y)
    else:
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    inside = in_domain(surface, x, y, tol=1e-9)
    if not np.all(inside):
        x, y = np.ravel(x)[np.argmin(inside)], np.ravel(y)[np.argmin(inside)]
        raise DomainError(f"point ({x}, {y}) outside the {surface.kind.value} domain")
    margin = _boundary_margin(surface, x, y)
    if method == "closed":
        v = _tangent_solve(surface, x, y)[0]
        warn = margin < 1e-10 * _ops(x).maximum(1.0, abs(x))
        mat = _closed_hessian(surface, x, y, v)
    elif method == "fd":
        h = 1e-5 * max(1.0, abs(x))
        if margin <= 0.0:
            raise DomainError("point is on the boundary; finite differences need interior room")
        warn = margin < 2.0 * h
        if warn:
            h = margin / 4.0
        mat = _fd_hessian(surface, x, y, h)
    else:
        raise ParameterError(f"unknown hessian method {method!r}")
    eigs, det = np.linalg.eigvalsh(mat), np.linalg.det(mat)
    lo, hi = eigs[..., 0], eigs[..., 1]
    if scalar:
        lo, hi, det = float(lo), float(hi), float(det)
    return HessianResult(
        matrix=mat,
        eigenvalues=(lo, hi),
        det=det,
        method=method,
        boundary_warning=warn,
    )


def hessian_signature(surface: BellmanSurface, x, y) -> tuple[np.ndarray, float, HessianResult]:
    """Excess over the Hessian's signature at each point, its threshold, and the Hessian.

    Each surface solves det = 0 (homogeneous Monge-Ampere) with a fixed sign.  With m =
    max(1, largest |entry|) at a point, the excess is max(|det| / m^2, B_yy) on AINF_UPPER
    (threshold 1e-6), max eigenvalue / m on GEHRING and -min eigenvalue / m on AINF_LOWER (1e-8).
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


def tangent_linearity_check(surface: BellmanSurface, v, n_samples: int = 33):
    """Max deviation of the evaluated surface from affine along the tangent line through v.

    The surface is linear on tangent segments by construction, so this
    measures how well evaluate() inverts the tangent equation.  An array of
    v gives one deviation per v from one evaluate_many call.
    """
    dev = tangent_linearity_excess(surface, v, n_samples)[2]
    return float(dev) if dev.ndim == 0 else dev


def tangent_linearity_excess(surface: BellmanSurface, v, n_samples: int = 33):
    """Excess over affinity on each tangent segment, its threshold 1e-9, and the deviations.

    The deviation is rounding in evaluate, which grows with the surface's size
    (e^q on AINF_LOWER), so, as hessian_signature scales by the entries, the
    excess is the deviation over max(1, max |B| on the segment).  A non-finite
    deviation or scale gives an infinite excess.
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


def bounds_check_ainf(q: float, grid: int = 100) -> BoundsReport:
    """Check x log x <= B <= x log x + e q x on a grid of the log domain.

    Violations are reported as positive excesses (0 means the bound holds), and
    the check passes when both are at most 1e-9.  ratio_max is the grid maximum
    of (B - x log x)/x, mathematically equal to ratio_bound = log g + 1/g - 1,
    attained on the upper boundary; for g > 1/4 (q below ~1.89) ratio_bound is
    solvers._log_bound, which keeps the digits the direct form cancels near q = 1.
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
    g = surface.gamma
    return BoundsReport(
        grid=grid,
        max_lower_violation=lower,
        max_upper_violation=upper,
        ratio_max=float(ratio),
        ratio_bound=_log_bound(math.log(q)) if g > 0.25 else math.log(g) + 1.0 / g - 1.0,
        passed=lower <= 1e-9 and upper <= 1e-9,
    )
