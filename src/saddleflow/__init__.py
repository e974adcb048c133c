"""Primal-dual gradient flows with exponential stability certificates.

The package builds continuous-time saddle dynamics for equality,
inequality and two-sided constrained convex programs, constructs
quadratic Lyapunov certificates for them, verifies the certificates by
matrix-inequality sweeps, integrates the flows with a contraction-rate
guarantee for the explicit Euler step, and measures decay rates against
the exact spectral abscissa on linear instances.
"""

from .certificates import (
    CertificateVariant,
    LmiReport,
    LyapunovCertificate,
    RankCertificateAux,
    build_certificate_eq,
    build_certificate_ineq,
    build_certificate_rank,
    build_p_matrix,
    condition_number,
    lmi_check,
    lmi_sweep,
    rank_inequality_margins,
    solve_c_rank,
    xi_bound,
)
from .dynamics import (
    AffineVectorField,
    vector_field,
)
from .equilibrium import Equilibrium, KktResidual, kkt_residual, solve_equilibrium
from .errors import (
    DimensionMismatchError,
    DivergedError,
    InfeasibleError,
    InvalidBandError,
    InvalidInputError,
    MaxIterationsError,
    NoSlackError,
    NotSymmetricError,
    ProblemFileError,
    RankDeficientError,
    SaddleflowError,
)
from .experiments import (
    certificate_for,
    fit_decay_rate,
    gen_equality_qp,
    gen_logistic_ineq,
    pick_step_size,
    run_experiment,
)
from .fileio import load_problem, save_problem, write_csv, write_metadata
from .integrator import (
    StepCertificate,
    Trajectory,
    choose_step_size,
    lipschitz_bound,
    simulate,
    step_size_admissible,
)
from .problem import (
    ConstrainedProblem,
    DynamicsParams,
    EqualityConstraints,
    InequalityConstraints,
    LogisticObjective,
    ObjectiveOracle,
    QuadraticObjective,
    SpectralBounds,
    TwoSidedConstraints,
    ValidationReport,
    spectral_bounds,
    validate_problem,
)
from .spectral import (
    EtaSweepResult,
    LtiSystem,
    certified_rate,
    eta_sweep,
    lti_matrix,
    saturation_knee,
)

__version__ = "0.1.0"

__all__ = [
    "AffineVectorField",
    "CertificateVariant",
    "ConstrainedProblem",
    "DimensionMismatchError",
    "DivergedError",
    "DynamicsParams",
    "EqualityConstraints",
    "Equilibrium",
    "EtaSweepResult",
    "InequalityConstraints",
    "InfeasibleError",
    "InvalidBandError",
    "InvalidInputError",
    "KktResidual",
    "LmiReport",
    "LogisticObjective",
    "LtiSystem",
    "LyapunovCertificate",
    "MaxIterationsError",
    "NoSlackError",
    "NotSymmetricError",
    "ObjectiveOracle",
    "ProblemFileError",
    "QuadraticObjective",
    "RankCertificateAux",
    "RankDeficientError",
    "SaddleflowError",
    "SpectralBounds",
    "StepCertificate",
    "Trajectory",
    "TwoSidedConstraints",
    "ValidationReport",
    "build_certificate_eq",
    "build_certificate_ineq",
    "build_certificate_rank",
    "build_p_matrix",
    "certificate_for",
    "certified_rate",
    "choose_step_size",
    "condition_number",
    "eta_sweep",
    "fit_decay_rate",
    "gen_equality_qp",
    "gen_logistic_ineq",
    "kkt_residual",
    "lipschitz_bound",
    "lmi_check",
    "lmi_sweep",
    "load_problem",
    "lti_matrix",
    "pick_step_size",
    "rank_inequality_margins",
    "run_experiment",
    "saturation_knee",
    "save_problem",
    "simulate",
    "solve_c_rank",
    "solve_equilibrium",
    "spectral_bounds",
    "step_size_admissible",
    "validate_problem",
    "vector_field",
    "write_csv",
    "write_metadata",
    "xi_bound",
]
