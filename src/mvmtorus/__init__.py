"""Multivariate von Mises (sine) distributions on the p-torus.

Evaluation of the unnormalized log-density and its derivatives, sufficient
unimodality certificates, exhaustive mode discovery and classification,
exact rejection sampling in the concentrated regime, and quadrature-based
ground truth for partition functions and marginals.

``import mvmtorus`` loads no submodule and so no numpy.  Each exported name
(and each submodule, as ``mvmtorus.sampler`` and so on) is imported on
first use through the module ``__getattr__`` (PEP 562), so
``mvmtorus.X``, ``from mvmtorus import X`` and ``from mvmtorus import *``
work as if everything had been imported up front.  This is what lets the
``mvmtorus`` command set up its process before numpy loads, and load only
the modules its subcommand uses.
"""

import importlib

__version__ = "0.1.0"

#: the public names of each submodule, imported on first use
_EXPORTS_BY_MODULE = {
    "model": (
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
    ),
    "spectral": (
        "GershgorinReport",
        "SymEigen",
        "UnimodalityCertificate",
        "Verdict",
        "certify_unimodal",
        "gershgorin",
        "is_positive_definite",
        "sym_eigen",
    ),
    "modes": (
        "CriticalPoint",
        "ModeReport",
        "PointKind",
        "SearchConfig",
        "classify_critical",
        "critical_points",
    ),
    "sampler": (
        "AcceptanceForecast",
        "AcceptanceStallError",
        "BoundViolationError",
        "NotPositiveDefiniteError",
        "ProposalSpec",
        "SampleBatch",
        "acceptance_probability",
        "forecast_acceptance",
        "sample_blocks",
        "sample_mvm",
    ),
    "oracle": (
        "CubeAnalysis",
        "density_grid",
        "high_concentration_log_partition",
        "kappa_zero_analysis",
        "log_partition",
        "marginal_density",
    ),
}

_SOURCE = {name: module for module, names in _EXPORTS_BY_MODULE.items() for name in names}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name: str):
    if name in _EXPORTS_BY_MODULE:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
