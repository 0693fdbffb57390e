"""Critical-point geometry and error-bound verification for regularized deep linear networks."""

from .network import (
    DimChain,
    RegParams,
    ShapeError,
    WeightStack,
    grad_f,
    grad_g,
    loss_f,
    loss_g,
    partial_product,
    rescale_f_to_g,
    rescale_g_to_f,
    value_and_grad,
)
from .spectrum import (
    Instance,
    TargetSpectrum,
    analyze_target,
    build_root_value_set,
)
from .critical import (
    AssumptionError,
    ComponentDistance,
    CriticalParams,
    CriticalPoint,
    ProfileEnumeration,
    ScalarRoots,
    SetDistance,
    SigmaProfile,
    SolverError,
    construct_critical_point,
    distance_to_component,
    distance_to_critical_set,
    enumerate_sigma_profiles,
    mirsky_lower_bound,
    optimal_profile,
    profile_from_choices,
    saddle_profile,
    sample_random_params,
    solve_scalar_equation,
    zero_profile,
)
from .constants import (
    AssumptionReport,
    EbConstantsLedger,
    check_assumptions,
    compute_ledger,
    degenerate_sigma,
    excluded_lambda,
    phi,
    phi_prime,
)
from .verify import (
    RadiusSweepConfig,
    VerificationReport,
    build_counterexample,
    check_balance_inequalities,
    check_first_order_conditions,
    counterexample_family,
    fit_counterexample_scaling,
    verify_error_bound,
    verify_pl_qg,
)
from .training import (
    ModelSpec,
    TrainConfig,
    Trajectory,
    estimate_linear_rate,
    reproduce_section4,
    train,
    train_runs,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
