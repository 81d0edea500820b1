"""Multivariate von Mises (sine) distributions on the p-torus.

Evaluation of the unnormalized log-density and its derivatives, sufficient
unimodality certificates, exhaustive mode discovery and classification,
exact rejection sampling in the concentrated regime, and quadrature-based
ground truth for partition functions and marginals.
"""

__version__ = "0.1.0"

from .model import (
    DimensionMismatchError,
    MvmParams,
    TorusPoint,
    angular_distance,
    exponent_f,
    exponent_many,
    grad_f,
    grad_many,
    hessian_f,
    hessian_many,
    log_density,
    wrap_angles,
)
from .spectral import (
    GershgorinReport,
    SymEigen,
    determinant,
    gershgorin,
    is_positive_definite,
    sym_eigen,
)
from .modes import (
    CriticalPoint,
    ModeReport,
    PointKind,
    SearchConfig,
    UnimodalityCertificate,
    Verdict,
    certify_unimodal,
    classify_critical,
    critical_points,
)
from .sampler import (
    AcceptanceForecast,
    AcceptanceStallError,
    BoundViolationError,
    NotPositiveDefiniteError,
    ProposalSpec,
    SampleBatch,
    acceptance_probability,
    bessel_i0,
    forecast_acceptance,
    sample_mvm,
    sample_proposal_g,
    sample_vm1,
)
from .oracle import (
    CubeAnalysis,
    density_grid,
    high_concentration_log_partition,
    kappa_zero_analysis,
    log_partition,
    marginal_density,
)

__all__ = [
    "__version__",
    "DimensionMismatchError",
    "MvmParams",
    "TorusPoint",
    "angular_distance",
    "exponent_f",
    "exponent_many",
    "grad_f",
    "grad_many",
    "hessian_f",
    "hessian_many",
    "log_density",
    "wrap_angles",
    "GershgorinReport",
    "SymEigen",
    "determinant",
    "gershgorin",
    "is_positive_definite",
    "sym_eigen",
    "CriticalPoint",
    "ModeReport",
    "PointKind",
    "SearchConfig",
    "UnimodalityCertificate",
    "Verdict",
    "certify_unimodal",
    "classify_critical",
    "critical_points",
    "AcceptanceForecast",
    "AcceptanceStallError",
    "BoundViolationError",
    "NotPositiveDefiniteError",
    "ProposalSpec",
    "SampleBatch",
    "acceptance_probability",
    "bessel_i0",
    "forecast_acceptance",
    "sample_mvm",
    "sample_proposal_g",
    "sample_vm1",
    "CubeAnalysis",
    "density_grid",
    "high_concentration_log_partition",
    "kappa_zero_analysis",
    "log_partition",
    "marginal_density",
]
