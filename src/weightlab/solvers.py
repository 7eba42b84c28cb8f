"""Scalar transcendental equations behind the sharp constants.

The tangency slopes gamma_- and gamma_+, the sharp Gehring gap eps_minus and
(in bellman) the surfaces' tangent abscissae are all branch roots of
t - log t = c.  One kernel, _branch_root on its one step _log_root, solves
that equation for a float or an array: one Newton step in s = log t, Halley's
in the series band near s = 0, lands below rounding from a start within 1e-9
of the root, a cubic Hermite table per branch in sqrt(c - 1), built at import,
up to c = 746, and past it on the upper branch six passes of s = log1p(c - 1 + s).
gehring_sharp_eps takes Newton steps in log eps, from below its root.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "RootResult",
    "gamma_log",
    "gamma_entropy_roots",
    "eps_minus",
    "gehring_sharp_eps",
    "gehring_dim_n_eps",
    "good_lambda_params",
    "good_lambda_verify",
    "p_gehring_via_one",
    "funny_bound",
    "funny_bound_log",
]

@dataclass(frozen=True)
class RootResult:
    root: float
    residual: float
    bracket: tuple[float, float]
    iterations: int


# float arithmetic for code taking a float or an array (the root kernel, the Bellman
# domain and Hessian), where a float call costs microseconds; arrays use numpy.  Where
# array code writes into a buffer it owns by numpy's out=, a float result is a new float
# (min and max as the builtins pick, without their call)
_FLOAT_OPS = SimpleNamespace(
    expm1=lambda x, out=None: math.expm1(x), exp=lambda x, out=None: math.exp(x), log1p=math.log1p, log=math.log,
    sqrt=math.sqrt, add=lambda a, b, out=None: a + b, subtract=lambda a, b, out=None: a - b,
    divide=lambda a, b, out=None: a / b, minimum=lambda a, b, out=None: b if b < a else a,
    maximum=lambda a, b, out=None: b if b > a else a, where=lambda c, a, b: a if c else b, all=bool,
    isfinite=math.isfinite,
)
# e^s - 1 - s = s^2 sum_k s^k / (k + 2)!, k < 12: 1e-18 relative at |s| < 1/4,
# where expm1(s) - s has lost 3 bits or more to cancellation
_EXCESS_SERIES = tuple(1.0 / math.factorial(k + 2) for k in reversed(range(12)))
_EXCESS_SERIES_S = 0.25
# _log_root's start: per branch, _START_N + 1 rows of a cubic in z = sqrt(c1) _START_SCALE, to c1 = 745
_START_N = 1024
_START_SCALE = _START_N / math.sqrt(745.0)


# the float path's libm functions over a float array, for array code that keeps its bits (numpy's SIMD ones may not)
_LIBM_OPS = SimpleNamespace(**{
    f.__name__: lambda x, *c, f=f: np.fromiter(map(f, x.tolist(), *([v] * x.size for v in c)), float, x.size)
    for f in (math.expm1, math.log1p, math.exp, math.log, pow)})


def _ops(x):
    return np if isinstance(x, np.ndarray) else _FLOAT_OPS


def _halley(h, em1):
    """Halley step for h(s) = e^s - 1 - s - c1 from h and h'(s) = em1; h'' = h' + 1."""
    d = h / em1
    return d / (1.0 - 0.5 * d * (1.0 + 1.0 / em1))


def _excess(s):
    """e^s - 1 - s from its series, for |s| < _EXCESS_SERIES_S."""
    acc = 0.0
    for coeff in _EXCESS_SERIES:
        acc = acc * s + coeff
    return s * s * acc


def _rise(z, head, ops=None):
    """1 - e^-z (1 + z) = int_0^z u e^-u du, z >= 0, from head = 1 - e^-z; floats, or arrays by ops (numpy's).

    Below _EXCESS_SERIES_S the difference head - z e^-z cancels, and it is
    e^-z _excess(z).  z is capped at 1e3, where e^-z is 0, so z = inf gives head.
    """
    if not isinstance(z, np.ndarray):
        z = min(z, 1e3)
        e_z = math.exp(-z)
        return e_z * _excess(z) if z < _EXCESS_SERIES_S else head - z * e_z
    z = np.minimum(z, 1e3)
    e_z = (ops or np).exp(-z)
    out, small = head - z * e_z, z < _EXCESS_SERIES_S
    if small.any():
        out[small] = e_z[small] * _excess(z[small])
    return out


def _series_step(s, em1, c1, d):
    """The last step d, redone where |s| < _EXCESS_SERIES_S with h from _excess.

    There h = em1 - (s + c1) is ~1e-16 |s| off, which leaves s ~1e-16 off
    in absolute terms, while t - 1 ~ s near the double root needs relative.
    """
    if not isinstance(s, np.ndarray):
        return _halley(_excess(s) - c1, em1) if abs(s) < _EXCESS_SERIES_S else d
    small = np.abs(s) < _EXCESS_SERIES_S
    if small.any():
        d[small] = _halley(_excess(s[small]) - c1[small], em1[small])
    return d


def _log_root(c1, upper: bool):
    """_branch_root's one step on h(s) = e^s - 1 - s - c1: (t, s, dt), t = e^s + dt the root.

    At every c1, and at a NaN, one step d from _start lands below rounding:
    Newton's, h/em1 from the em1 = expm1(s) h read, and Halley's, h from _excess,
    where |s| < _EXCESS_SERIES_S (from the start's 1e-9, Halley's factor moves d
    by under 1% of an ulp of s past that band).  Upper, t = (1 + em1) e^-d, so
    em1's rounding cancels; lower, down to e^-746, t = e^s1 (1 + expm1(r)),
    s1 + r = s - d; past c1 = 745, e^s ~ 0 makes h linear in s, and the step
    lands on s1 = -1 - c1 and t = 0.  t - 1 = expm1(s) + dt and the bracket are
    left to the callers.
    On an array the step runs in place.  The caller's c1 is only read.  The
    kernel makes four arrays, its c1 + 5e-324, _start's s, em1 and d (s + c1, h,
    then d), and writes every later result into one of them by augmented
    assignment or out= (a float is rebound): upper, d's takes expm1(-d), c1's
    1 + em1 then dt, em1's t; lower, em1's takes s1, s's r then dt, c1's e^s1
    then t.  What it returns is the caller's to write over.
    """
    xp = _ops(c1)
    c1 = c1 + 5e-324  # keeps h'(s) = e^s - 1 off zero at the start
    s = _start(c1, upper)
    em1 = xp.expm1(s)
    d = s + c1
    d = xp.subtract(em1, d, out=d)
    d /= em1
    d = _series_step(s, em1, c1, d)
    if upper:
        dt = xp.add(em1, 1.0, out=c1)
        d *= -1.0
        dt *= xp.expm1(d, out=d)
        em1 += dt
        em1 += 1.0
        return em1, s, dt
    s1 = xp.subtract(s, d, out=em1)  # s - s1 is exact, and so is r = (s - s1) - d, as |d| << |s|
    s -= s1
    s -= d
    dt = xp.expm1(s, out=s)
    e_s = xp.exp(s1, out=c1)
    dt *= e_s
    e_s += dt
    return e_s, s1, dt


def _start(c1, upper: bool):
    """_log_root's start s ~ log t (float or array): _START's cubic at z = sqrt(c1) _START_SCALE.  Its last row,
    constant, the s of c1 = 745, serves past it on the lower branch and at a NaN; past it on the upper, found by
    one fmax reduction (which passes over a NaN), s = log1p(c1 + s) six times from 0, each pass dividing the error
    by 1 + c1 + s > 750, is at the root to rounding.  On an array the cubic runs in z's buffer and one more (in the
    taken rows, strided, numpy's loops are slower)."""
    xp = _ops(c1)
    z = xp.sqrt(c1)
    z *= _START_SCALE
    if xp is np:
        k = np.fmin(z, _START_N).astype(np.intp)  # before the cast, which takes a NaN or 1e150 out of range
        a, b, c, d = np.take(_START[upper], k, axis=0).T
    else:
        k = math.floor(z) if z < _START_N else _START_N
        a, b, c, d = _START[upper][k].tolist()
    z -= k  # t, and then a + t (b + t (c + t d))
    d = d * z
    d += c
    d *= z
    d += b
    z *= d
    z += a
    if upper and (np.fmax.reduce(c1, initial=0.0) if xp is np else c1) > 745.0:
        s = 0.0
        for _ in range(6):
            s = xp.log1p(c1 + s)
        z = xp.where(c1 > 745.0, s, z)
    return z


def _start_table(upper: bool) -> np.ndarray:
    """_START's (_START_N + 1, 4) rows: row k the cubic in z - k with s and ds/dz of nodes k and k + 1 (Hermite's).
    Nodes w = z / _START_SCALE take three Halley steps from s = +-sqrt(2) w, each clipped to s in [-1 - c1, -c1]
    (lower) or t in [c, 2c] (upper), c1 = w^2; slopes ds/dw = 2 w ds/dc1 = 2 w / (e^s - 1), +-sqrt(2) at w = 0;
    between nodes the cubic is within 1e-9 of s.  The last row is the last node's s."""
    sign, w = (1.0 if upper else -1.0), np.arange(1, _START_N + 1) / _START_SCALE
    c1 = w * w + 5e-324
    lo = np.log1p(c1) if upper else -1.0 - c1
    hi = lo + math.log(2.0) if upper else -c1
    s = np.minimum(np.maximum(sign * math.sqrt(2.0) * w, lo), hi)
    for _ in range(3):
        em1 = np.expm1(s)
        s = np.minimum(np.maximum(s - _halley(em1 - (s + c1), em1), lo), hi)
    s = np.append(0.0, s)
    m = np.append(sign * math.sqrt(2.0), 2.0 * w / np.expm1(s[1:])) / _START_SCALE
    ds, m0, m1 = np.diff(s), m[:-1], m[1:]
    return np.vstack([np.stack([s[:-1], m0, 3.0 * ds - 2.0 * m0 - m1, m0 + m1 - 2.0 * ds], axis=1), [s[-1], 0, 0, 0]])


_START = {upper: _start_table(upper) for upper in (False, True)}


def _branch_root(c1, upper: bool, q=None):
    """Root of t - log t = 1 + c1 (c1 >= 0, float or array) in (0, 1], or in [1, inf) if upper.

    c1 = c - 1 keeps the digits of c near 1, where the roots meet at t = 1.
    _log_root takes one step on h(s) = e^s - 1 - s - c1, s = log t, from _start:
    Newton's, or Halley's from _series_step near s = 0, applied without rounding
    s - d, so t and t - 1 keep full precision.  Returns (t, t - 1, (t_lo, t_hi)),
    _bracket's.  The array callers in bellman read t alone: they call _log_root,
    and form neither t - 1 nor the bracket.
    A lower root of c1 = log q may be given q: the rounding of log q (ulp/2) is
    relative error in t ~ e^{-1-c1}, and where t <= 1/4 one step of t = e^{t-1}/q,
    in q itself, contracts it by a factor t.  The step is increasing in t, so the
    bracket's ends, mapped through it, hold the new t; t - 1 is the kernel's, within an ulp.
    """
    t, s, dt = _log_root(c1, upper)
    xp, bracket = _ops(t), _bracket(c1, upper)
    if q is not None:
        far = t <= 0.25
        t, *bracket = (xp.where(far, xp.exp(u - 1.0) / q, u) for u in (t, *bracket))
    return t, xp.expm1(s) + dt, tuple(bracket)


def _bracket(c1, upper: bool):
    """_branch_root's bracket in t: [c, 2c] (upper) or [e^{-c}, e^{1-c}], c = 1 + c1."""
    c1 = c1 + 5e-324  # the c1 _log_root solves for
    exp = _ops(c1).exp
    return (1.0 + c1, 2.0 + 2.0 * c1) if upper else (exp(-1.0 - c1), exp(-c1))


@functools.lru_cache(maxsize=256)  # RootResult is frozen; default_target and each surface re-solve one q
def _root_result(c1: float, upper: bool, q: float | None = None) -> RootResult:
    t, _, bracket = _branch_root(c1, upper, q)
    return RootResult(t, t - math.log(t) - (1.0 + c1), bracket, 1)


def gamma_log(q: float) -> RootResult:
    """Root in (0, 1) of t - log t = 1 + log q; requires q > 1.

    The left side decreases from +inf to 1 on (0, 1], so a root below 1
    exists exactly when 1 + log q > 1.  The kernel is given q, so a root at
    or below 1/4 is freed from the rounding of log q (see _branch_root).
    """
    if not (q > 1.0 and math.isfinite(q)):
        raise ParameterError(f"gamma_log needs q > 1, got {q}")
    c1 = math.log(q)
    if c1 > 743.0:
        raise ParameterError(f"q = {q} too large: the root in (0, 1) underflows")
    return _root_result(c1, False, q)


def _check_entropy_q(q: float) -> None:
    if not (q > 0.0 and math.isfinite(q)):
        raise ParameterError(f"gamma_entropy_roots needs q > 0, got {q}")
    if q > 743.0:
        # the small root ~ e^{-(q+1)} drops below the least subnormal double
        raise ParameterError(f"q = {q} too large: the root in (0, 1) underflows")
    if q + 1.0 == 1.0:
        raise ParameterError(f"q = {q} below float resolution, roots collapse to 1")


def gamma_entropy_roots(q: float) -> tuple[RootResult, RootResult]:
    """Both roots of t - log t = q + 1 for q > 0: (minus in (0,1), plus > 1)."""
    _check_entropy_q(q)
    return _root_result(q, False), _root_result(q, True)


def eps_minus(q: float) -> RootResult:
    """Smallest positive solution of 1/t - log(1/t + 1) = q, q > 0.

    With u = 1/t it reads (1 + u) - log(1 + u) = 1 + q: 1 + u is gamma_plus(q),
    from the same kernel, so the tests and selftest check the result against
    solves that do not use it.
    """
    if not (q > 0.0 and math.isfinite(q)):
        raise ParameterError(f"eps_minus needs q > 0, got {q}")
    u = _branch_root(q, upper=True)[1]
    residual = u - math.log1p(u) - q
    return RootResult(1.0 / u, residual, (1.0 / (1.0 + 2.0 * q), 1.0 / q), 1)


def gehring_sharp_eps(p: float, k: float) -> RootResult:
    """Sharp self-improvement gap for a p-average ratio bound of k.

    Root in eps of
        (1/(p-1)) log((p+eps-1)/eps) - log((p+eps)/(p+eps-1)) = (p/(p-1)) log k.
    The left side falls strictly from +inf to 0 on eps > 0, so k > 1 gives a
    unique root; k <= 1 returns root = +inf (nothing to improve).  In u = log eps
    the left side is convex, f'(u) = -p/((p+eps-1)(p+eps)) rising to 0, so
    Newton steps from u_lo, the root of its small-eps asymptote
    (log(p-1) - u)/(p-1) - log(p/(p-1)), which it exceeds, climb to the root
    inside [u_lo, u_hi], u_hi = -log of the right side, where 1/eps bounds
    it; a step back is rounding, and ends the loop.  The last step is applied
    as a factor e^-d, so eps keeps full relative precision.  A root below
    e^-800 underflows to 0.
    """
    if not (p > 1.0 and math.isfinite(p)):
        raise ParameterError(f"gehring_sharp_eps needs p > 1, got {p}")
    if not (k > 0.0 and math.isfinite(k)):
        raise ParameterError(f"gehring_sharp_eps needs k > 0, got {k}")
    if k <= 1.0:
        return RootResult(math.inf, 0.0, (math.inf, math.inf), 0)
    pm1 = p - 1.0
    rhs = (p / pm1) * math.log(k)

    def f(u: float, eps: float) -> float:
        # log1p of the two ratios minus 1 keeps digits where they are near 1;
        # where (p - 1)/eps overflows, log((p - 1)/eps) is log(p - 1) - u
        ratio = pm1 / eps if eps else math.inf
        head = math.log1p(ratio) if ratio < math.inf else math.log(pm1) - u
        return head / pm1 - math.log1p(1.0 / (p + eps - 1.0)) - rhs

    u = max(math.log(pm1) - p * math.log(k) - pm1 * math.log1p(1.0 / pm1), -800.0)
    bracket = (math.exp(u), 1.0 / rhs)
    for steps in range(1, 81):
        eps = math.exp(u)
        d = -f(u, eps) * (p + eps - 1.0) * ((p + eps) / p)  # the Newton step is u - d
        if d >= -4.0 * sys.float_info.epsilon * (1.0 + abs(u)):
            break
        u -= d
    root = eps + eps * math.expm1(-d)
    return RootResult(root, f(u - d, root), bracket, steps)


def gehring_dim_n_eps(n: int, q: float) -> float:
    """Dimensional self-improvement exponent log 4 / (n log 2 + 8 q)."""
    if not (isinstance(n, int) and n >= 1):
        raise ParameterError(f"dimension must be a positive integer, got {n}")
    if not (q > 0.0 and math.isfinite(q)):
        raise ParameterError(f"gehring_dim_n_eps needs q > 0, got {q}")
    return math.log(4.0) / (n * math.log(2.0) + 8.0 * q)


def good_lambda_params(q: float) -> tuple[float, float]:
    """Good-lambda pair (alpha, beta) = (1/(e^{8q} - 1), 1/4)."""
    if not (q > 0.0 and math.isfinite(q)):
        raise ParameterError(f"good_lambda_params needs q > 0, got {q}")
    try:
        return 1.0 / math.expm1(8.0 * q), 0.25
    except OverflowError:  # past log(max double), 1/(e^x - 1) = e^-x (1 + e^-x + ...) rounds to e^-x
        return math.exp(-8.0 * q), 0.25


def good_lambda_verify(n: int, q: float) -> float:
    """Certified log of (2^n/alpha)^eps * beta; negative means the bound closes.

    Direct float evaluation is useless here: with eps = log4/(n log2 + 8q)
    the product equals exp(eps*log1p(-e^{-8q})), i.e. 1 minus a margin as
    small as e^{-8q}, far below double rounding for large q.  The returned
    gap is that exponent with the exact cancellation performed analytically;
    nan where it is no negative normal double (subnormal from q ~ 88, then -0.0).
    Below 8q = log 2, log(1 - e^{-8q}) is log(-expm1(-8q)): there e^{-8q}
    rounds toward 1, and to 1 itself, a log1p(-1) domain error, once 8q < 1.1e-16.
    """
    eps = gehring_dim_n_eps(n, q)  # validates n and q before q is used
    x = 8.0 * q
    log_margin = math.log1p(-math.exp(-x)) if x >= math.log(2.0) else math.log(-math.expm1(-x))
    gap = eps * log_margin
    return gap if gap <= -sys.float_info.min else math.nan


def p_gehring_via_one(n: int, p: float, k: float) -> tuple[float, float]:
    """Route a p-average ratio bound through the entropy constant.

    Returns (entropy_bound, delta): entropy_bound = 6^n k^p 2^p p/(p-1) and
    delta = p * eps_minus(entropy_bound), the integrability gain for w^p.  A
    bound past the double range is refused with DomainError.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ParameterError(f"dimension must be a positive integer, got {n}")
    if not (p > 1.0 and math.isfinite(p)):
        raise ParameterError(f"p_gehring_via_one needs p > 1, got {p}")
    if not (k >= 1.0 and math.isfinite(k)):
        raise ParameterError(f"p_gehring_via_one needs k >= 1, got {k}")
    try:
        bound = 6.0**n * k**p * 2.0**p * p / (p - 1.0)
    except OverflowError:  # a float power past the double range
        bound = math.inf
    if bound == math.inf:
        raise DomainError(f"entropy bound 6^{n} k^p 2^p p/(p-1) at p = {p}, k = {k} overflows a double")
    delta = p * eps_minus(bound).root
    return bound, delta


def _log_bound(c1, scale=1.0, q=None):
    """(log t + 1/t - 1) / scale at the lower root t of t - log t = 1 + c1 (float or array).

    The one home of the sharp bound F(q) on RH_1 by A_infty: c1 = log q and q give g = gamma_log(q).
    On the root log t = t - 1 - c1, so log t + 1/t - 1 = (t - 1)^2/t - c1.  Near
    t = 1 the direct form cancels log t ~ -sqrt(2 c1) against 1/t - 1 and keeps
    only ~1e-16/c1 relative; the root form keeps the kernel's full-precision
    t - 1 and cancels a factor 2 at most.  Where 1/t dominates (t <= 1/4) the
    direct form is used: it takes one rounding fewer than squaring t - 1 ~ -1.
    A power-of-two scale divides exactly and before 1/t, which would overflow
    past c1 ~ 708 while the scaled value is still a double.
    """
    t, tm1 = _branch_root(c1, False, q)[:2]
    xp, ts = _ops(t), t * scale
    near = tm1 * (tm1 / ts) - c1 / scale
    return xp.where(t > 0.25, near, xp.log(t) / scale + (1.0 / ts - 1.0 / scale))


def funny_bound(q: float) -> float:
    """Sharp entropy-to-A_infty bound gamma_minus * exp((1-gamma_minus)/gamma_minus).

    Overflows to +inf for q beyond ~5.6; use funny_bound_log for asymptotics.
    """
    _check_entropy_q(q)
    g = _root_result(q, False).root
    try:
        return g * math.exp((1.0 - g) / g)
    except OverflowError:
        return math.inf


def funny_bound_log(q: float) -> float:
    """log of funny_bound(q): log g + (1 - g)/g at the small root g of t - log t = 1 + q.

    Computed by _log_bound, as (g - 1)^2/g - q near g = 1, the numerator the
    sharpness sweep uses too, so it keeps full relative precision from
    q ~ 1e-16 up.  Past q ~ 708 the value itself, ~e^{q+1}, overflows a
    double, and the q is refused.
    """
    _check_entropy_q(q)
    value = _log_bound(q)
    if value == math.inf:
        raise DomainError(f"q = {q} too large: log funny_bound ~ e^(q+1) overflows a double")
    return value
