"""Scalar transcendental equations behind the sharp constants.

The tangency slopes gamma_- and gamma_+, the sharp Gehring gap eps_minus and
(in bellman) the surfaces' tangent abscissae are all branch roots of
t - log t = c.  One kernel, _branch_root, solves that equation for a float or
an array: Halley steps in s = log t inside closed-form brackets, started from
the Lambert W series of Corless, Gonnet, Hare, Jeffrey and Knuth, "On the
Lambert W function" (1996).  gehring_sharp_eps is solved by bisection.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ParameterError

__all__ = [
    "RootResult",
    "bisect",
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


def bisect(f, lo: float, hi: float, max_iter: int = 600) -> RootResult:
    """Bisection on [lo, hi] assuming a sign change; runs to float exhaustion.

    Stops at an exact zero, once the bracket has collapsed to adjacent floats,
    or after max_iter steps.  Raises if the endpoints do not bracket a root.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return RootResult(lo, 0.0, (lo, hi), 0)
    if fhi == 0.0:
        return RootResult(hi, 0.0, (lo, hi), 0)
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise ParameterError(f"no sign change on bracket [{lo}, {hi}]")
    a, b, fa = lo, hi, flo
    it = 0
    while it < max_iter:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        fm = f(mid)
        it += 1
        if fm == 0.0:
            return RootResult(mid, 0.0, (lo, hi), it)
        if math.copysign(1.0, fm) == math.copysign(1.0, fa):
            a, fa = mid, fm
        else:
            b = mid
    root = 0.5 * (a + b)
    return RootResult(root, f(root), (lo, hi), it)


# the kernel's arithmetic on a float, where a solve costs microseconds; arrays use numpy
_FLOAT_OPS = SimpleNamespace(
    expm1=math.expm1, log1p=math.log1p, exp=math.exp, log=math.log, sqrt=math.sqrt,
    clip=lambda x, lo, hi: min(max(x, lo), hi), where=lambda c, a, b: a if c else b, all=bool,
)
_MAX_STEPS = 40
# e^s - 1 - s = s^2 sum_k s^k / (k + 2)!, k < 12: 1e-18 relative at |s| < 1/4,
# where expm1(s) - s has lost 3 bits or more to cancellation
_EXCESS_SERIES = tuple(1.0 / math.factorial(k + 2) for k in reversed(range(12)))
_EXCESS_SERIES_S = 0.25


def _ops(x):
    return _FLOAT_OPS if isinstance(x, float) else np


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


def _series_step(s, em1, c1, d):
    """The last step d, redone where |s| < _EXCESS_SERIES_S with h from _excess.

    There h = (-s - c1) + em1 is ~1e-16 |s| off, which leaves s ~1e-16 off
    in absolute terms, while t - 1 ~ s near the double root needs relative.
    """
    if isinstance(s, float):
        return _halley(_excess(s) - c1, em1) if abs(s) < _EXCESS_SERIES_S else d
    small = np.abs(s) < _EXCESS_SERIES_S
    if small.any():
        d[small] = _halley(_excess(s[small]) - c1[small], em1[small])
    return d


def _branch_root(c1, upper: bool):
    """Root of t - log t = 1 + c1 (c1 >= 0, float or array) in (0, 1], or in [1, inf) if upper.

    c1 = c - 1 keeps the digits of c near 1, where the roots meet at t = 1.
    Halley steps on h(s) = e^s - 1 - s - c1, s = log t, start from the Lambert
    W branch-point series, stay clipped to the bracket s in [-1 - c1, -c1]
    (lower) or t in [c, 2c] (upper), and take at most four steps.  The last
    one, within 4 ulp of 1 + |s| (redone by _series_step near s = 0), is
    applied as a factor e^{-d}, so t and t - 1 keep full precision.  Returns
    (t, t - 1, steps, (t_lo, t_hi)).
    """
    c1 = c1 + 5e-324  # keeps every iterate, and so h'(s) = e^s - 1, off zero
    xp = _ops(c1)
    log_c = xp.log1p(c1)
    lo, hi = (log_c, log_c + math.log(2.0)) if upper else (-1.0 - c1, -c1)
    # t = -W(-e^{-c}) = 1 + p + p^2/3 + 11 p^3/72 + ..., p = -+sqrt(2 (1 - e^{-c1})),
    # so s = p - p^2/6 + 11 p^3/72 + ...; far from c = 1 the clip takes over
    p = (1.0 if upper else -1.0) * xp.sqrt(-2.0 * xp.expm1(-c1))
    s = xp.clip(p - p * p / 6.0 + (11.0 / 72.0) * p * p * p, lo, hi)
    for steps in range(1, _MAX_STEPS + 1):
        em1 = xp.expm1(s)
        d = _halley((-s - c1) + em1, em1)
        if xp.all(abs(d) <= 4.0 * sys.float_info.epsilon * (1.0 + abs(s))):
            break
        s = xp.clip(s - d, lo, hi)
    d = _series_step(s, em1, c1, d)
    bracket = (1.0 + c1, 2.0 + 2.0 * c1) if upper else (xp.exp(lo), xp.exp(hi))
    e_s = xp.exp(s)
    dt = e_s * xp.expm1(-d)  # e^{s - d} - e^s, without rounding s - d
    return e_s + dt, xp.expm1(s) + dt, steps, bracket


def _root_result(c1: float, upper: bool) -> RootResult:
    t, _, steps, bracket = _branch_root(c1, upper)
    return RootResult(t, t - math.log(t) - (1.0 + c1), bracket, steps)


def gamma_log(q: float) -> RootResult:
    """Root in (0, 1) of t - log t = 1 + log q; requires q > 1.

    The left side decreases from +inf to 1 on (0, 1], so a root below 1
    exists exactly when 1 + log q > 1.
    """
    if not (q > 1.0 and math.isfinite(q)):
        raise ParameterError(f"gamma_log needs q > 1, got {q}")
    c1 = math.log(q)
    if c1 > 743.0:
        raise ParameterError(f"q = {q} too large: the root in (0, 1) underflows")
    return _root_result(c1, upper=False)


def gamma_entropy_roots(q: float) -> tuple[RootResult, RootResult]:
    """Both roots of t - log t = q + 1 for q > 0: (minus in (0,1), plus > 1)."""
    if not (q > 0.0 and math.isfinite(q)):
        raise ParameterError(f"gamma_entropy_roots needs q > 0, got {q}")
    if q > 743.0:
        # the small root ~ e^{-(q+1)} drops below the least subnormal double
        raise ParameterError(f"q = {q} too large: the root in (0, 1) underflows")
    if q + 1.0 == 1.0:
        raise ParameterError(f"q = {q} below float resolution, roots collapse to 1")
    return _root_result(q, upper=False), _root_result(q, upper=True)


def eps_minus(q: float) -> RootResult:
    """Smallest positive solution of 1/t - log(1/t + 1) = q, q > 0.

    With u = 1/t it reads (1 + u) - log(1 + u) = 1 + q: 1 + u is gamma_plus(q),
    from the same kernel, so the tests and selftest check the result against
    solves that do not use it.
    """
    if not (q > 0.0 and math.isfinite(q)):
        raise ParameterError(f"eps_minus needs q > 0, got {q}")
    u, steps = _branch_root(q, upper=True)[1:3]
    residual = u - math.log1p(u) - q
    return RootResult(1.0 / u, residual, (1.0 / (1.0 + 2.0 * q), 1.0 / q), steps)


def gehring_sharp_eps(p: float, k: float) -> RootResult:
    """Sharp self-improvement gap for a p-average ratio bound of k.

    Root in eps of
        (1/(p-1)) log((p+eps-1)/eps) - log((p+eps)/(p+eps-1)) = (p/(p-1)) log k.
    The left side falls strictly from +inf to 0 on eps > 0, so k > 1 gives a
    unique root; k <= 1 returns root = +inf (nothing to improve).
    """
    if not (p > 1.0 and math.isfinite(p)):
        raise ParameterError(f"gehring_sharp_eps needs p > 1, got {p}")
    if not (k > 0.0 and math.isfinite(k)):
        raise ParameterError(f"gehring_sharp_eps needs k > 0, got {k}")
    if k <= 1.0:
        return RootResult(math.inf, 0.0, (math.inf, math.inf), 0)
    rhs = (p / (p - 1.0)) * math.log(k)

    def f(eps: float) -> float:
        # log1p of the two ratios minus 1 keeps digits where they are near 1;
        # (p - 1)/eps overflows to inf at denormal eps, where f is +inf
        return math.log1p((p - 1.0) / eps) / (p - 1.0) - math.log1p(1.0 / (p + eps - 1.0)) - rhs

    hi = 1.0
    while f(hi) > 0.0:  # f falls to -rhs < 0 as eps grows
        hi *= 2.0
    return bisect(f, 5e-324, hi)


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
    return 1.0 / math.expm1(8.0 * q), 0.25


def good_lambda_verify(n: int, q: float) -> float:
    """Certified log of (2^n/alpha)^eps * beta; negative means the bound closes.

    Direct float evaluation is useless here: with eps = log4/(n log2 + 8q)
    the product equals exp(eps*log1p(-e^{-8q})), i.e. 1 minus a margin as
    small as e^{-8q}, far below double rounding for large q.  The returned
    gap is that exponent with the exact cancellation performed analytically.
    """
    eps = gehring_dim_n_eps(n, q)
    return eps * math.log1p(-math.exp(-8.0 * q))


def p_gehring_via_one(n: int, p: float, k: float) -> tuple[float, float]:
    """Route a p-average ratio bound through the entropy constant.

    Returns (entropy_bound, delta): entropy_bound = 6^n k^p 2^p p/(p-1) and
    delta = p * eps_minus(entropy_bound), the integrability gain for w^p.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ParameterError(f"dimension must be a positive integer, got {n}")
    if not (p > 1.0 and math.isfinite(p)):
        raise ParameterError(f"p_gehring_via_one needs p > 1, got {p}")
    if not (k >= 1.0 and math.isfinite(k)):
        raise ParameterError(f"p_gehring_via_one needs k >= 1, got {k}")
    bound = 6.0**n * k**p * 2.0**p * p / (p - 1.0)
    delta = p * eps_minus(bound).root
    return bound, delta


def funny_bound(q: float) -> float:
    """Sharp entropy-to-A_infty bound gamma_minus * exp((1-gamma_minus)/gamma_minus).

    Overflows to +inf for q beyond ~5.6; use funny_bound_log for asymptotics.
    """
    g = gamma_entropy_roots(q)[0].root
    try:
        return g * math.exp((1.0 - g) / g)
    except OverflowError:
        return math.inf


def funny_bound_log(q: float) -> float:
    """log of funny_bound(q), stable for large q."""
    g = gamma_entropy_roots(q)[0].root
    return math.log(g) + (1.0 - g) / g
