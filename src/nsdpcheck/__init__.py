"""Verification toolkit for second-order sufficient optimality conditions in
nonlinear semidefinite optimization."""

from .cone import (
    dist_psd,
    dist_psd_batch,
    normal_cone_contains,
    normal_cone_residual,
    project_normal_cone,
    tangent_cone_contains,
)
from .nlsdp import (
    NlsdpProblem,
    QuadraticMatrixMap,
    QuadraticScalar,
    adjoint_dF,
    dF,
    d2F,
    eval_F,
    eval_F_batch,
    eval_f,
    eval_f_batch,
    grad_f,
    lagrangian_grad,
    lagrangian_hess_form,
    problem_from_json,
)
from .sosc import (
    CRITICAL_CONE_TRIVIAL,
    FAILED_AT_DIRECTION,
    INCONCLUSIVE,
    VERIFIED_SAMPLED,
    GrowthReport,
    InfeasiblePointError,
    MultiplierCandidate,
    SoscReport,
    check_sosc,
    critical_cone_contains,
    find_multiplier,
    require_feasible,
    sample_critical_directions,
    sosc_margin,
    verify_growth,
)
from .subderivative import (
    HypothesisViolation,
    NoFeasibleSampleError,
    PivotNotPositiveDefinite,
    ToleranceAnomalyError,
    estimate_from_trace,
    estimate_subderivative_sampling,
    recovery_sequence,
    second_subderivative,
    subderivative_sampling_trace,
)
from .symmat import (
    OrderedEigenDecomposition,
    SymMat,
    block,
    conjugate,
    eigen_decompose,
    frobenius_inner,
    lower_to_dense,
    pseudoinverse,
)

__version__ = "0.1.0"
