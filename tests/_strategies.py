"""Hypothesis strategies shared by the CLI and library contract properties.

The numbers are drawn from the values that break floating point (signed
zeros, the smallest subnormal, exp's overflow edges, inf, nan) and from a
log-uniform spread over the whole double range.  Strategies are built once
here: building one per example costs more than most calls.
"""

import math

from hypothesis import strategies as st

SPECIAL = (0.0, 1.0, -1.0, -0.0, 5e-324, 1e-300, 708.9, 743.0, 1e300, math.inf, -math.inf, math.nan)

# sign * 10^e over every exponent a double holds, subnormals included
LOG_UNIFORM = st.builds(
    lambda sign, e: sign * 10.0**e, st.sampled_from((1.0, -1.0)), st.floats(-323.0, 308.0)
)
NUMBERS = st.sampled_from(SPECIAL) | LOG_UNIFORM

CUTS = st.floats(1e-12, 0.999) | NUMBERS
COEFFS = st.floats(1e-300, 1e300) | NUMBERS
EXPONENTS = st.floats(-40.0, 40.0) | NUMBERS
FRACTION = st.floats(0.0, 1.0)
NOT_A_WEIGHT = st.sampled_from(([], {}, {"pieces": 1}, {"pieces": []}, "w", {"pieces": [{"a": 0.0}]}))


@st.composite
def weight_json(draw):
    """Weight-file JSON: one to four pieces, or a value that is no weight at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(NOT_A_WEIGHT)
    cuts = [draw(CUTS) for _ in range(draw(st.integers(0, 3)))]
    bounds = [0.0, *sorted(set(c for c in cuts if not math.isnan(c))), 1.0]
    return {
        "pieces": [
            {"a": a, "b": b, "coeff": draw(COEFFS), "exponent": draw(EXPONENTS)}
            for a, b in zip(bounds, bounds[1:])
        ]
    }


def point(draw, q):
    """An (x, y) anywhere, or inside a domain of constant q, log or entropy coordinates."""
    x = draw(NUMBERS)
    if not (x > 0.0 and math.isfinite(x) and q > 0.0 and math.isfinite(q)) or draw(st.booleans()):
        return x, draw(NUMBERS)
    f = draw(FRACTION)
    if draw(st.booleans()):
        return x, math.log(x) - f * math.log(q)
    return x, x * math.log(x) + f * q * x
