"""The library contract, fuzzed as one property over every name weightlab exports.

Each exported callable, dataclass and enum constructors included, given
arguments built on tests/_strategies.py's numbers, either returns (a documented
inf or nan counts) or raises WeightLabError.  No other exception escapes, and a
warning is an error.  The arguments are of the documented types; objects a
call expects (weights, intervals, surfaces, specs, trees) are drawn valid, and
the numbers inside them and beside them range over the whole double range.

A plain run takes 3 examples per name (about 1 s for the 70 names), and
``pytest tests/test_api_contract.py --hypothesis-profile=contract`` 2,000.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import weightlab as wl
from weightlab import WeightLabError

from _strategies import COEFFS, CUTS, EXPONENTS, FRACTION, NUMBERS, point, weight_json

# Left out: the CLI property runs them, through weight files and selftest --only.
CLI_COVERED = ("load_weight", "run_selftest", "save_weight")

# the contract profile's count, else a plain run's
EXAMPLES = settings().max_examples if settings().max_examples >= 2000 else 3

POSITIVE = st.sampled_from((5e-324, 1e-300, 1.0, 708.9, 743.0, 1e300, 1.7976931348623157e308)) | st.builds(
    lambda e: 10.0**e, st.floats(-323.0, 308.0)
)
FINITE_EXPONENTS = st.floats(-40.0, 40.0) | st.sampled_from((0.0, -0.0, 5e-324, -0.999999, 1e-300, 300.0, -300.0))
# a piece touching 0 needs an exponent above -1
ZERO_EXPONENTS = st.floats(-1.0, 40.0, exclude_min=True) | st.sampled_from((0.0, 5e-324, -0.999999, 300.0))
UNIT = st.sampled_from((0.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0 - 2**-53, 1.0)) | st.floats(0.0, 1.0)
INTS = st.integers(-3, 64) | st.sampled_from((400, 10**6))
SIZES = st.integers(-1, 24)


def _enum(cls):
    return st.tuples(st.sampled_from([m.value for m in cls]))


@st.composite
def _interval(draw):
    a, b = sorted(draw(st.tuples(UNIT, UNIT)))
    return wl.Interval(a, b if b > a else 1.0) if a < 1.0 else wl.Interval(0.0, 1.0)


@st.composite
def _piece(draw, support=None):
    support = support or draw(INTERVALS)
    return wl.PowerPiece(support, draw(POSITIVE), draw(ZERO_EXPONENTS if support.a == 0.0 else FINITE_EXPONENTS))


@st.composite
def _weight(draw):
    cuts = sorted(set(c for c in draw(st.lists(UNIT, max_size=3)) if 0.0 < c < 1.0))
    bounds = [0.0, *cuts, 1.0]
    return wl.Weight(tuple(draw(_piece(wl.Interval(a, b))) for a, b in zip(bounds, bounds[1:])))


INTERVALS = _interval()
WEIGHTS = _weight()
MOMENT_KINDS, ORLICZ_KINDS = st.sampled_from(wl.MomentKind), st.sampled_from(wl.OrliczKind)
P = st.none() | NUMBERS | st.floats(0.5, 4.0)


@st.composite
def _surface(draw):
    kind, q = draw(st.sampled_from(wl.SurfaceKind)), draw(NUMBERS | POSITIVE | st.floats(1.0, 30.0))
    if kind is wl.SurfaceKind.GEHRING and draw(st.booleans()):
        try:  # eps a fraction of its range (0, 1/(gamma_plus - 1))
            eps = draw(FRACTION) / (wl.gamma_entropy_roots(q)[1].root - 1.0)
        except WeightLabError:
            eps = draw(NUMBERS)
    else:
        eps = draw(st.none() | NUMBERS)
    for args in ((kind, q, eps), (kind, q), (kind, 2.0)):
        try:
            return wl.BellmanSurface(*args)
        except WeightLabError:
            pass


SURFACES = _surface()


@st.composite
def _surface_point(draw, most=4):
    """A surface and a point, or 2 to most points as arrays."""
    surface = draw(SURFACES)
    pts = [point(draw, surface.q) for _ in range(draw(st.integers(1, most)))]
    if len(pts) == 1:
        return surface, *pts[0]
    return surface, *np.array(pts).T


@st.composite
def _config(draw):
    q = draw(NUMBERS | st.floats(0.5, 20.0))
    q1 = q * draw(st.floats(1.0, 3.0)) if draw(st.booleans()) else draw(NUMBERS)
    try:
        return wl.SplitConfig(q, q1, draw(st.floats(0.001, 0.45)))
    except WeightLabError:
        return wl.SplitConfig(2.0, 2.5)


CONFIGS = _config()
MODES = st.sampled_from(wl.SplitMode)


@st.composite
def _tree(draw):
    w, cfg, mode = draw(WEIGHTS), draw(CONFIGS), draw(MODES)
    try:
        return w, wl.build_partition(w, cfg, mode, draw(st.integers(0, 3)))
    except WeightLabError:  # a one-node tree at the weight's point, or anywhere
        return w, wl.PartitionTree(np.array([(0.0, 1.0)]), np.array([(draw(NUMBERS), draw(NUMBERS))]), mode, cfg)


@st.composite
def _tree_arrays(draw):
    """PartitionTree's arguments: level-order ends and points of 1 to 15 rows, or of a row count no tree has or
    each its own; ends sorted pairs in [0, 1] or any numbers."""
    n = draw(st.sampled_from((1, 3, 7, 15)) | st.integers(0, 4))
    ends = draw(st.lists(st.tuples(UNIT, UNIT).map(sorted) | st.tuples(NUMBERS, NUMBERS), min_size=n, max_size=n))
    points = draw(st.lists(st.tuples(NUMBERS, NUMBERS), min_size=n, max_size=n + draw(st.integers(0, 1))))
    return np.array(ends, dtype=float).reshape(-1, 2), np.array(points, dtype=float).reshape(-1, 2), draw(MODES), draw(CONFIGS)


@st.composite
def _chain(draw):
    w, tree = draw(_tree())
    return draw(SURFACES), w, tree


@st.composite
def _spec(draw):
    family, q = draw(st.sampled_from(wl.Family)), draw(NUMBERS | st.floats(0.1, 30.0))
    target = point(draw, q) if draw(st.booleans()) else None
    for args in ((family, q, target, draw(st.none() | NUMBERS | st.floats(0.01, 1.0))), (family, 2.0)):
        try:
            return wl.ExtremalSpec(*args)
        except WeightLabError:
            pass


SPECS = _spec()


@st.composite
def _points(draw):
    pts = draw(st.lists(UNIT, max_size=6))
    return np.array(sorted(pts) if draw(st.integers(0, 4)) else pts, dtype=float)


ARGS = {
    # bellman
    "BellmanSurface": st.tuples(st.sampled_from(wl.SurfaceKind), NUMBERS, st.none() | NUMBERS),
    "BoundsReport": st.tuples(SIZES, NUMBERS, NUMBERS, NUMBERS, NUMBERS, st.booleans()),
    "HessianResult": st.tuples(st.just(np.eye(2)), st.tuples(NUMBERS, NUMBERS), NUMBERS, st.booleans()),
    "SurfaceKind": _enum(wl.SurfaceKind),
    "bounds_check_ainf": st.tuples(NUMBERS | st.floats(1.0, 1e6), SIZES),
    "evaluate_surface": _surface_point(most=1),
    "hessian": _surface_point(),
    "in_domain": st.tuples(_surface_point(), NUMBERS).map(lambda a: (*a[0], a[1])),
    "tangent_point": _surface_point(most=1),
    # constants
    "ConstantsReport": st.tuples(SIZES),
    "OrliczKind": _enum(wl.OrliczKind),
    "ainf_constant": st.tuples(WEIGHTS, SIZES),
    "ap_constant": st.tuples(WEIGHTS, NUMBERS | st.floats(1.0, 4.0), SIZES),
    "compute_report": st.tuples(
        WEIGHTS, SIZES, st.lists(st.sampled_from(("rh1", "ainf", "rhp", "ap", "rh1_prime", "rh1_doubleprime")),
                                 max_size=3, unique=True).map(tuple),
        st.lists(NUMBERS | st.floats(1.0, 4.0), max_size=2).map(tuple), st.integers(-1, 8),
    ),
    "luxemburg_norm": st.tuples(WEIGHTS, INTERVALS, ORLICZ_KINDS),
    "maximal_function": st.tuples(WEIGHTS, INTERVALS, NUMBERS | UNIT, SIZES),
    "rh1_constant": st.tuples(WEIGHTS, SIZES),
    "rh1_doubleprime_constant": st.tuples(WEIGHTS, st.integers(-1, 8)),
    "rh1_limit_check": st.tuples(WEIGHTS, INTERVALS, NUMBERS | st.floats(1.0, 2.0)),
    "rh1_prime_constant": st.tuples(WEIGHTS, st.integers(-1, 12)),
    "rhp_constant": st.tuples(WEIGHTS, NUMBERS | st.floats(0.5, 4.0), SIZES),
    # dyadic
    "ChainReport": st.tuples(st.lists(NUMBERS).map(tuple), NUMBERS, st.booleans(), st.booleans(), NUMBERS),
    "PartitionTree": _tree_arrays(),
    "SplitConfig": st.tuples(NUMBERS, NUMBERS, NUMBERS),
    "SplitMode": _enum(wl.SplitMode),
    "build_partition": st.tuples(WEIGHTS, CONFIGS, MODES, st.integers(-1, 3)),
    "chain_verify": _chain(),
    "split": st.tuples(WEIGHTS, INTERVALS, CONFIGS, MODES),
    # errors
    "DomainError": st.tuples(st.text(max_size=8)),
    "InfeasibleTargetError": st.tuples(st.text(max_size=8)),
    "ParameterError": st.tuples(st.text(max_size=8)),
    "SplitError": st.tuples(st.text(max_size=8), NUMBERS, NUMBERS),
    "WeightLabError": st.tuples(st.text(max_size=8)),
    # extremals
    "AttainmentReport": st.tuples(NUMBERS, NUMBERS, NUMBERS, NUMBERS, NUMBERS),
    "ExtremalSpec": st.tuples(st.sampled_from(wl.Family), NUMBERS, st.none() | st.tuples(NUMBERS, NUMBERS),
                              st.none() | NUMBERS),
    "Family": _enum(wl.Family),
    "attainment_check": st.tuples(SPECS, st.none() | NUMBERS | st.floats(0.01, 1.0)),
    "build": st.tuples(SPECS),
    "default_target": st.tuples(SPECS),
    "divergence_probe": st.tuples(WEIGHTS, NUMBERS | st.floats(0.5, 4.0), st.lists(NUMBERS | UNIT, max_size=3).map(tuple)),
    "sharpness_sweep": st.tuples(st.lists(NUMBERS | st.floats(0.0, 800.0), max_size=5).map(tuple)),
    # solvers
    "RootResult": st.tuples(NUMBERS, NUMBERS, st.tuples(NUMBERS, NUMBERS), SIZES),
    "eps_minus": st.tuples(NUMBERS),
    "funny_bound": st.tuples(NUMBERS),
    "funny_bound_log": st.tuples(NUMBERS),
    "gamma_entropy_roots": st.tuples(NUMBERS),
    "gamma_log": st.tuples(NUMBERS),
    "gehring_dim_n_eps": st.tuples(INTS, NUMBERS),
    "gehring_sharp_eps": st.tuples(NUMBERS, NUMBERS),
    "good_lambda_params": st.tuples(NUMBERS),
    "good_lambda_verify": st.tuples(INTS, NUMBERS),
    "p_gehring_via_one": st.tuples(INTS, NUMBERS | st.floats(1.0, 4.0), NUMBERS | st.floats(1.0, 100.0)),
    # weights
    "Interval": st.tuples(NUMBERS | UNIT, NUMBERS | UNIT),
    "MomentKind": _enum(wl.MomentKind),
    "PowerPiece": st.tuples(INTERVALS, COEFFS, EXPONENTS),
    "Weight": st.tuples(WEIGHTS.map(lambda w: w.pieces) | st.lists(_piece(), max_size=3).map(tuple)),
    "breakpoints": st.tuples(WEIGHTS),
    "constant_weight": st.tuples(NUMBERS),
    "cumulative_moment": st.tuples(WEIGHTS, _points(), MOMENT_KINDS, P),
    "evaluate_weight": st.tuples(WEIGHTS, NUMBERS | UNIT),
    "moment": st.tuples(WEIGHTS, INTERVALS, MOMENT_KINDS, P),
    "power_weight": st.tuples(COEFFS, EXPONENTS),
    "reference_corpus": st.tuples(st.integers(-1, 8), st.integers(-1, 2**64)),
    "rescale": st.tuples(WEIGHTS, NUMBERS),
    "step_weight": st.tuples(st.lists(CUTS, max_size=4), st.lists(COEFFS, max_size=4)),
    "truncate": st.tuples(WEIGHTS, NUMBERS | st.floats(1.0, 100.0)),
    "weight_from_dict": st.tuples(weight_json()),
    "weight_to_dict": st.tuples(WEIGHTS),
}


def test_every_exported_callable_is_fuzzed_or_listed():
    exported = {name for name in dir(wl) if not name.startswith("_") and callable(getattr(wl, name))}
    assert exported - set(CLI_COVERED) == set(ARGS)
    assert set(CLI_COVERED) <= exported


@pytest.mark.parametrize("name", sorted(ARGS))
@settings(max_examples=EXAMPLES, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(data=st.data())
def test_every_call_returns_or_raises_weightlab_error(name, data):
    args = data.draw(ARGS[name], label="args")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            getattr(wl, name)(*args)
        except WeightLabError:
            pass
