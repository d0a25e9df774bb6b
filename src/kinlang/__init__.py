"""Kinetic Langevin dynamics with matrix-valued friction.

Tools for studying the second-order Langevin sampler whose friction is a
matrix tied to the curvature of the potential, Gamma(q) = s * sqrt(Hess V):
exact Gaussian propagation and chi-square decay oracles for quadratic
potentials, machine-checkable convergence-rate certificates for the general
strongly convex case, a Lyapunov-functional decay audit, a counter-based
deterministic Euler-Maruyama simulator, and a CLI harness that ties the
pieces into reproducible experiments.
"""

from .certificates import (
    DiagQuadraticWitness,
    LyapunovCoefficients,
    RateCertificate,
    certificate,
    coefficient_family,
    compare_to_constant_friction,
    diag_quadratic_certificate,
    lambda_dms,
    lambda_dms_sup,
    optimal_coefficients,
    optimize_m1,
)
from .config import ExperimentConfig, build_friction, build_potential, load_config
from .errors import (
    ConfigError,
    DegenerateS,
    InvalidCoefficients,
    KinlangError,
    NotPositiveDefinite,
    NotSymmetric,
    NumericalBlowup,
    WitnessNotFound,
)
from .friction import FrictionSpec, constant_matrix, constant_scalar, hessian_sqrt
from .gaussian import (
    GaussianMoments,
    LinearDynamics,
    chi2_along,
    diagonal_system_rate,
    fit_decay_rate,
    gaussian_chi2,
    kinetic_dynamics,
    ou_rate_closed_form,
    propagate,
    stationary_moments,
)
from .linalg import spd_sqrt, spd_sqrt_directional_derivative
from .lyapunov import WeightMatrixS, build_s, decay_audit, lyapunov_value_gaussian
from .potentials import (
    AssumptionConstants,
    Potential,
    perturbed_diagonal,
    quadratic_diagonal,
    quadratic_general,
)
from .simulate import (
    Ensemble,
    SimConfig,
    attach_chi2_proxies,
    ensemble_at_point,
    ensemble_from_moments,
    philox_normals,
    run,
    step,
    write_trajectory_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionConstants",
    "ConfigError",
    "DegenerateS",
    "DiagQuadraticWitness",
    "Ensemble",
    "ExperimentConfig",
    "FrictionSpec",
    "GaussianMoments",
    "InvalidCoefficients",
    "KinlangError",
    "LinearDynamics",
    "LyapunovCoefficients",
    "NotPositiveDefinite",
    "NotSymmetric",
    "NumericalBlowup",
    "Potential",
    "RateCertificate",
    "SimConfig",
    "WeightMatrixS",
    "WitnessNotFound",
    "attach_chi2_proxies",
    "build_friction",
    "build_potential",
    "build_s",
    "certificate",
    "coefficient_family",
    "compare_to_constant_friction",
    "constant_matrix",
    "chi2_along",
    "constant_scalar",
    "decay_audit",
    "diag_quadratic_certificate",
    "diagonal_system_rate",
    "ensemble_at_point",
    "ensemble_from_moments",
    "fit_decay_rate",
    "gaussian_chi2",
    "hessian_sqrt",
    "kinetic_dynamics",
    "lambda_dms",
    "lambda_dms_sup",
    "load_config",
    "lyapunov_value_gaussian",
    "optimal_coefficients",
    "optimize_m1",
    "ou_rate_closed_form",
    "perturbed_diagonal",
    "philox_normals",
    "propagate",
    "quadratic_diagonal",
    "quadratic_general",
    "run",
    "spd_sqrt",
    "spd_sqrt_directional_derivative",
    "stationary_moments",
    "step",
    "write_trajectory_csv",
]
