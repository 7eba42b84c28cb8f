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

# luxemburg_norm of rescale(reference_corpus()[k], c) on [0, 0.7] (L log L) and
# [0.1, 0.7] (L log L, exp L - 1), by (k, c), as read before the norm centred
# the weight; centring by a power of two keeps them bit-identical
LUX_CORPUS_07 = {
    (1, 1e-200): (7.829812168610482e-200, 7.663833768082124e-200, 8.93110884526917e-200),
    (3, 1.0): (2.0185558178001384, 1.97763342833366, 2.270413911432822),
    (11, 1e200): (1.770278594594098e200, 1.5815243273949198e200, 1.8216507390153538e200),
    (19, 1.0): (0.7301494778719161, 0.8058534836426259, 0.9364017812666839),
}

# `weightlab constants --which rh1,ainf,rhp,ap --p-values 1.5,3 --resolution R`
# stdout for reference_corpus()[k], by (k, R), frozen from the per-constant
# scans that preceded the shared pair walk; it must stay byte-identical
CONSTANTS_STDOUT = {
    (1, 201): """\
{
  "resolution": 201,
  "rh1": {
    "value": 1.24043693240148,
    "interval": [
      0.25,
      0.28
    ]
  },
  "ainf": {
    "value": 3.45674109379232,
    "interval": [
      0.245,
      0.275
    ]
  },
  "rh_p": {
    "1.5": {
      "value": 1.77211488929959,
      "interval": [
        0.25,
        0.3
      ]
    },
    "3.0": {
      "value": 4.72569384122239,
      "interval": [
        0.25,
        0.320149656420103
      ]
    }
  },
  "a_p": {
    "1.5": {
      "value": 11.408676082513,
      "interval": [
        0.125,
        0.32
      ]
    },
    "3.0": {
      "value": 5.56678218113152,
      "interval": [
        0.22,
        0.305
      ]
    }
  }
}
""",
    (1, 2001): """\
{
  "resolution": 2001,
  "rh1": {
    "value": 1.24046293800957,
    "interval": [
      0.2475,
      0.306
    ]
  },
  "ainf": {
    "value": 3.4572135696018,
    "interval": [
      0.2365,
      0.2985
    ]
  },
  "rh_p": {
    "1.5": {
      "value": 1.77229189014222,
      "interval": [
        0.249,
        0.32
      ]
    },
    "3.0": {
      "value": 5.06785271465632,
      "interval": [
        0.2525,
        0.263
      ]
    }
  },
  "a_p": {
    "1.5": {
      "value": 11.4086983014404,
      "interval": [
        0.2045,
        0.278
      ]
    },
    "3.0": {
      "value": 5.56680211116327,
      "interval": [
        0.2205,
        0.304
      ]
    }
  }
}
""",
    (2, 201): """\
{
  "resolution": 201,
  "rh1": {
    "value": 0.0472534637447788,
    "interval": [
      0.0,
      0.005
    ]
  },
  "ainf": {
    "value": 1.06040590191039,
    "interval": [
      0.0,
      0.39
    ]
  },
  "rh_p": {
    "1.5": {
      "value": 1.02183525612896,
      "interval": [
        0.0,
        0.01
      ]
    },
    "3.0": {
      "value": 1.07161561967319,
      "interval": [
        0.0,
        0.005
      ]
    }
  },
  "a_p": {
    "1.5": {
      "value": 1.49297242641768,
      "interval": [
        0.0,
        0.56
      ]
    },
    "3.0": {
      "value": 1.10596834121641,
      "interval": [
        0.0,
        0.245
      ]
    }
  }
}
""",
    (2, 2001): """\
{
  "resolution": 2001,
  "rh1": {
    "value": 0.0472534637447788,
    "interval": [
      0.0,
      0.005
    ]
  },
  "ainf": {
    "value": 1.06040590191039,
    "interval": [
      0.0,
      0.014
    ]
  },
  "rh_p": {
    "1.5": {
      "value": 1.02183525612896,
      "interval": [
        0.0,
        0.001
      ]
    },
    "3.0": {
      "value": 1.07161561967319,
      "interval": [
        0.0,
        0.001
      ]
    }
  },
  "a_p": {
    "1.5": {
      "value": 1.49297242641768,
      "interval": [
        0.0,
        0.207
      ]
    },
    "3.0": {
      "value": 1.10596834121641,
      "interval": [
        0.0,
        0.392
      ]
    }
  }
}
""",
    (3, 201): """\
{
  "resolution": 201,
  "rh1": {
    "value": 0.00243991373888395,
    "interval": [
      0.0,
      0.02
    ]
  },
  "ainf": {
    "value": 1.00233285446216,
    "interval": [
      0.0,
      0.065
    ]
  },
  "rh_p": {
    "1.5": {
      "value": 1.00125043839962,
      "interval": [
        0.0,
        0.005
      ]
    },
    "3.0": {
      "value": 1.00541274144118,
      "interval": [
        0.0,
        0.005
      ]
    }
  },
  "a_p": {
    "1.5": {
      "value": 1.00644237314119,
      "interval": [
        0.0,
        0.015
      ]
    },
    "3.0": {
      "value": 1.00342478583561,
      "interval": [
        0.0,
        0.235
      ]
    }
  }
}
""",
    (3, 2001): """\
{
  "resolution": 2001,
  "rh1": {
    "value": 0.002439913738884,
    "interval": [
      0.0,
      0.0005
    ]
  },
  "ainf": {
    "value": 1.00233285446216,
    "interval": [
      0.0,
      0.0405
    ]
  },
  "rh_p": {
    "1.5": {
      "value": 1.00125043839962,
      "interval": [
        0.0,
        0.0005
      ]
    },
    "3.0": {
      "value": 1.00541274144118,
      "interval": [
        0.0,
        0.0005
      ]
    }
  },
  "a_p": {
    "1.5": {
      "value": 1.00644237314119,
      "interval": [
        0.0,
        0.0065
      ]
    },
    "3.0": {
      "value": 1.00342478583561,
      "interval": [
        0.0,
        0.1655
      ]
    }
  }
}
""",
}

# sharpness_sweep rows (q, e_ratio, funny_ratio) from 40-digit mpmath, q the
# double as written: g = -W0(-e^{-1-c}) is the root in (0, 1) of t - log t = 1 + c,
# e_ratio = (log g + 1/g - 1)/q at c = log q (nan for q <= 1) and funny_ratio =
# (log g + 1/g - 1)/(e^{q+1} - q - 2) at c = q; at q = 100 and up funny_ratio is
# 1 - O(q e^{-q}), which rounds to 1.0
SWEEP_ROWS = (
    (1e-15, math.nan, 1.3922112326850486e-15),
    (1e-09, math.nan, 1.3922526964930959e-09),
    (0.05, math.nan, 0.07734532905439861),
    (1 + 1e-09, 1.0000298961503985e-09, 0.7892333891429723),
    (2.0, 0.9249420897137971, 0.9394343892492105),
    (100.0, 2.642248565870668, 1.0),
    (689.0, 2.704442968938413, 1.0),
    (689.5, 2.7044519519838204, 1.0),
    (700.0, 2.7046378034991956, 1.0),
)
