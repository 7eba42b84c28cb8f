"""Frozen reference values shared across the test modules.

Each constant was computed independently of the package code: either from a
closed form, or by 40-digit mpmath bisection on the defining scalar equation,
then rounded to the nearest double.  Tests compare library output against
these doubles, so regressions in the solvers or scans cannot hide behind a
recomputed oracle.  The six values the selftest checks too are literals in
weightlab.selftest and are imported from there, not repeated.
"""

import math

# GAMMA_MINUS_1: root of t - log t = 2 in (0, 1); also the q = 1 entropy
#   minus-root and the q = e log-equation root (1 + log e = 1 + 1 = 2)
# GAMMA_PLUS_1: root of t - log t = 2 in (1, inf)
# EPS_MINUS_1: smallest eps > 0 with 1/eps - log(1/eps + 1) = 1
# FUNNY_BOUND_1: gamma * exp((1 - gamma)/gamma) at gamma = GAMMA_MINUS_1
# GEHRING_B_1_03: upper entropy surface value at x = GAMMA_PLUS_1 on the upper
#   boundary, q = 1, eps = 0.3: gamma_plus / (1 + eps - gamma_plus * eps)
# GEHRING_DIM_1_1: log 4 / (1 * log 2 + 8 * 1)
from weightlab.selftest import (  # noqa: F401
    EPS_MINUS_1,
    FUNNY_BOUND_1,
    GAMMA_MINUS_1,
    GAMMA_PLUS_1,
    GEHRING_B_1_03,
    GEHRING_DIM_1_1,
)

# log g + 1/g - 1 at g = GAMMA_MINUS_1: the envelope ratio bound at Q = e,
# which also equals log(FUNNY_BOUND_1)
RATIO_BOUND_E = 3.4639896188347305

# power exponent (1 - GAMMA_PLUS_1)/GAMMA_PLUS_1 of the q = 1 boundary weight
ALPHA_BOUNDARY_1 = -0.6821555671006273

# entropy ratio of w(t) = sqrt(t): -1/3 - log(2/3)
RH1_SQRT = 0.07213177477483105

# (2/3)^(1/2) / (4/5), the p = 2 average ratio of w(t) = t^(1/4)
RHP_QUARTER_2 = math.sqrt(2.0 / 3.0) / 0.8

# lambda solving (1/lambda) log(e + 1/lambda) = 1 (L log L norm of w = 1)
LUX_LLOGL_CONST = 1.2567506185377672

# exponential-class norms: constants give 1/log 2; a {1, 1e-12} two-step
# weight on half the interval gives 1/log 3 up to the tiny level
LUX_EXP_CONST = 1.0 / math.log(2.0)
LUX_EXP_CHI = 1.0 / math.log(3.0)

# entropy ratio limit for w(t) = t
RH1_LINEAR = math.log(2.0) - 0.5

# regression pins: grid-scan outputs at a fixed resolution, frozen from a
# verified run; they guard the scan plumbing, not a mathematical constant
RH1_PRIME_LINEAR_200 = 1.4974874371859295
RH1_DOUBLEPRIME_LINEAR_200 = 1.3126414521419447

# rh1_doubleprime at resolution 24 of reference_corpus() weights whose piece at
# 0 has exponent >= 0, by index, as the graded-quadrature bisection scan read
# them before the Newton kernel and its exact substitution at 0; the two agree
# on them to 4.9e-14
RH1_DOUBLEPRIME_CORPUS_24 = {
    0: 1.2567506185377681,
    1: 1.522749262857597,
    2: 1.2711657263104819,
    4: 1.2567506185377688,
    5: 1.3549350163780507,
    6: 1.2907619181199361,
    7: 1.2707361578754939,
    8: 1.2567506185377706,
    9: 1.3946610762467238,
    10: 1.2607300281399638,
    12: 1.25675061853777,
    13: 1.414287110775712,
    14: 1.2807308264738233,
    15: 1.2585853251246464,
    16: 1.2567506185377681,
    17: 1.2922421304743845,
    18: 1.2875438407112578,
    19: 1.2882868381671697,
}
