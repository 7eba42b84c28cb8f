"""Numerical laboratory for one-dimensional weight constants and Bellman bounds."""

from .bellman import (
    BellmanSurface,
    BoundsReport,
    HessianResult,
    SurfaceKind,
    bounds_check_ainf,
    hessian,
    in_domain,
    tangent_point,
)
from .bellman import evaluate as evaluate_surface
from .constants import (
    ConstantsReport,
    OrliczKind,
    ainf_constant,
    ap_constant,
    compute_report,
    luxemburg_norm,
    maximal_function,
    rh1_constant,
    rh1_doubleprime_constant,
    rh1_limit_check,
    rh1_prime_constant,
    rhp_constant,
)
from .dyadic import (
    ChainReport,
    PartitionTree,
    SplitConfig,
    SplitMode,
    build_partition,
    chain_verify,
    split,
)
from .errors import (
    DomainError,
    InfeasibleTargetError,
    ParameterError,
    SplitError,
    WeightLabError,
)
from .extremals import (
    AttainmentReport,
    ExtremalSpec,
    Family,
    attainment_check,
    build,
    default_target,
    divergence_probe,
    sharpness_sweep,
)
from .solvers import (
    RootResult,
    eps_minus,
    funny_bound,
    funny_bound_log,
    gamma_entropy_roots,
    gamma_log,
    gehring_dim_n_eps,
    gehring_sharp_eps,
    good_lambda_params,
    good_lambda_verify,
    p_gehring_via_one,
)
from .weights import (
    Interval,
    MomentKind,
    PowerPiece,
    Weight,
    breakpoints,
    constant_weight,
    cumulative_moment,
    load_weight,
    moment,
    power_weight,
    reference_corpus,
    rescale,
    save_weight,
    step_weight,
    truncate,
    weight_from_dict,
    weight_to_dict,
)
from .weights import evaluate as evaluate_weight
from .selftest import run as run_selftest

__version__ = "0.1.0"
