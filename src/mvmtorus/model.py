"""Core types and evaluation routines for the multivariate von Mises (sine)
distribution on the p-torus.

The distribution MVM(mu, kappa, Lambda) has unnormalized log-density

    f(theta) = kappa^T c(theta) + 0.5 * s(theta)^T Lambda s(theta)

with c_i = cos(theta_i - mu_i) and s_i = sin(theta_i - mu_i).  This module
holds the parameter and point types, f, its gradient and its Hessian,
:func:`lattice_rows` (the one product-grid builder), and the sampler's
error types (so the CLI maps them to exit codes without importing
:mod:`mvmtorus.sampler`).  Normalization constants live in
:mod:`mvmtorus.oracle`.  Functions here are pure and nothing is mutated
after construction, so every operation is safe to call concurrently.

One value per point: the kernels take their products by ``np.einsum`` (no
BLAS call), which sums a row's terms in one order in any batch, so a point
gets the same bits alone or in a batch of any size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

#: absolute tolerance for validating symmetry / zero diagonal of Lambda
LAMBDA_ATOL = 1e-12

__all__ = [
    "TWO_PI",
    "LAMBDA_ATOL",
    "DimensionMismatchError",
    "NotPositiveDefiniteError",
    "BoundViolationError",
    "AcceptanceStallError",
    "TorusPoint",
    "MvmParams",
    "wrap_angles",
    "angular_distance",
    "as_torus_point",
    "lattice_rows",
    "exponent_f",
    "grad_f",
    "hessian_f",
    "log_density",
    "exponent_many",
    "grad_many",
    "hessian_many",
]


class DimensionMismatchError(ValueError):
    """A point or vector does not match the dimension p of the distribution."""


class NotPositiveDefiniteError(ValueError):
    """P = diag(kappa) - Lambda fails the certificate's definiteness test;
    the rejection sampler does not apply.  Run spectral.certify_unimodal."""


class BoundViolationError(RuntimeError):
    """An acceptance probability exceeded 1, signalling an invalid
    eigenvalue lower bound."""


class AcceptanceStallError(RuntimeError):
    """The rejection loop exceeded the proposal budget; the eigenvalue
    bound is likely far too small for this distribution."""


def wrap_angles(angles) -> np.ndarray:
    """Reduce angles to [0, 2*pi) by the floating remainder; a value that
    rounds up to 2*pi (a tiny negative input) maps to 0."""
    a = np.mod(np.asarray(angles, dtype=float), TWO_PI)
    return np.where(a >= TWO_PI, 0.0, a)


def angular_distance(a, b) -> float:
    """Sup-metric distance on the torus: max_i of the shorter arc |a_i - b_i|."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"angle vectors have shapes {a.shape} and {b.shape}")
    d = np.abs(wrap_angles(a) - wrap_angles(b))
    return float(np.max(np.minimum(d, TWO_PI - d))) if a.size else 0.0


@dataclass(frozen=True, eq=False)
class TorusPoint:
    """A point on the flat torus [0, 2*pi)^p.

    Angles must be finite.  They are wrapped once, on construction, and
    never re-wrapped inside evaluations (re-wrapping intermediate results
    loses precision near 2*pi).  The stored array is read-only.
    """

    angles: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.angles, dtype=float))
        if a.ndim != 1:
            raise ValueError("TorusPoint requires a 1-d vector of angles")
        if a.size == 0:
            raise ValueError("TorusPoint requires at least one angle")
        if not np.all(np.isfinite(a)):
            raise ValueError(f"angles must be finite, got {a.tolist()}")
        a = wrap_angles(a)
        a.setflags(write=False)
        object.__setattr__(self, "angles", a)

    @property
    def p(self) -> int:
        return self.angles.size

    def __len__(self) -> int:
        return self.angles.size

    def __add__(self, delta) -> "TorusPoint":
        delta = delta.angles if isinstance(delta, TorusPoint) else np.asarray(delta)
        return TorusPoint(self.angles + delta)

    def __sub__(self, other) -> "TorusPoint":
        other = other.angles if isinstance(other, TorusPoint) else np.asarray(other)
        return TorusPoint(self.angles - other)

    def antipode(self) -> "TorusPoint":
        """The point shifted by pi in every coordinate."""
        return self + np.pi

    def distance(self, other) -> float:
        """Sup-metric angular distance to another point."""
        other = other.angles if isinstance(other, TorusPoint) else other
        return angular_distance(self.angles, other)

    def __repr__(self) -> str:  # keeps reprs short in reports
        return f"TorusPoint({np.array2string(self.angles, separator=', ')})"


def as_torus_point(theta) -> TorusPoint:
    return theta if isinstance(theta, TorusPoint) else TorusPoint(np.asarray(theta))


def lattice_rows(axis_nodes, p: int) -> np.ndarray:
    """Rows of the product grid ``axis_nodes ** p`` in C order (last
    coordinate fastest): row k holds the nodes at the base-m digits of k."""
    nodes = np.asarray(axis_nodes)
    m = nodes.size
    return nodes[np.arange(m**p)[:, None] // m ** np.arange(p - 1, -1, -1) % m]


@dataclass(frozen=True, eq=False)
class MvmParams:
    """Parameter triple (mu, kappa, Lambda) of an MVM distribution.

    Invariants enforced on construction:

    * ``kappa`` is a length-p vector with every entry >= 0 (zero allowed),
    * ``lam`` is a symmetric p x p matrix with zero diagonal; asymmetry or
      a nonzero diagonal beyond ``LAMBDA_ATOL`` is a hard error, never
      silently repaired,
    * ``mu`` is finite and wrapped to [0, 2*pi) via :class:`TorusPoint`,
    * the range of the exponent, sum(kappa) + 0.5 * sum |lam_ij|, is a
      finite float, so no evaluation of f overflows; it is kept as the
      float attribute ``f_range`` (a bound on |f|, the scale of f's
      roundoff).

    Below the tolerance the upper triangle of ``lam`` is mirrored and the
    diagonal zeroed, so the stored matrix, and the Hessian, are exactly
    symmetric.
    """

    mu: TorusPoint
    kappa: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        try:
            mu = as_torus_point(self.mu)
        except ValueError as exc:
            raise ValueError(f"mu: {exc}") from None
        kappa = np.atleast_1d(np.asarray(self.kappa, dtype=float))
        lam = np.asarray(self.lam, dtype=float)

        p = kappa.size
        if mu.p != p:
            raise DimensionMismatchError(
                f"mu has length {mu.p} but kappa has length {p}"
            )
        if not np.all(np.isfinite(kappa)):
            raise ValueError("kappa entries must be finite")
        if np.any(kappa < 0.0):
            raise ValueError("kappa entries must be >= 0")
        if lam.shape != (p, p):
            raise DimensionMismatchError(
                f"lambda must be {p}x{p}, got shape {lam.shape}"
            )
        if not np.all(np.isfinite(lam)):
            raise ValueError("lambda entries must be finite")
        asym = np.max(np.abs(lam - lam.T)) if p > 1 else 0.0
        if asym > LAMBDA_ATOL:
            raise ValueError(
                f"lambda must be symmetric: max |l_ij - l_ji| = {asym:.3e} "
                f"exceeds {LAMBDA_ATOL:.0e}"
            )
        diag = np.max(np.abs(np.diag(lam)))
        if diag > LAMBDA_ATOL:
            raise ValueError(
                f"lambda must have zero diagonal: max |l_ii| = {diag:.3e} "
                f"exceeds {LAMBDA_ATOL:.0e}"
            )

        upper = np.triu(lam, k=1)
        lam = upper + upper.T
        # 0.5 * sum |lam_ij| over the whole matrix, as the kernels sum it
        with np.errstate(over="ignore"):
            f_range = np.sum(kappa) + 0.5 * np.sum(np.abs(lam))
        if not np.isfinite(f_range):
            raise ValueError(
                "kappa and lambda are too large: the range of f, sum(kappa) + "
                "0.5 * sum |lambda_ij|, overflows a float"
            )
        kappa.setflags(write=False)
        lam.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "f_range", float(f_range))

    @property
    def p(self) -> int:
        return self.kappa.size

    def p_matrix(self) -> np.ndarray:
        """The matrix diag(kappa) - Lambda whose positive definiteness
        certifies unimodality."""
        return np.diag(self.kappa) - self.lam

    def shifted(self, delta) -> "MvmParams":
        """Same distribution with the mean moved by ``delta``."""
        return MvmParams(self.mu + delta, self.kappa, self.lam)


def exponent_f(params: MvmParams, theta) -> float:
    """f = kappa^T c + 0.5 s^T Lambda s at ``theta``, one row of
    :func:`exponent_many` (a wrong length raises DimensionMismatchError)."""
    return float(exponent_many(params, as_torus_point(theta).angles[None])[0])


def grad_f(params: MvmParams, theta) -> np.ndarray:
    """Gradient of f, component i ``-kappa_i s_i + c_i * sum_k lam_ik s_k``;
    one row of :func:`grad_many`."""
    return grad_many(params, as_torus_point(theta).angles[None])[0]


def hessian_f(params: MvmParams, theta) -> np.ndarray:
    """Hessian of f, one row of :func:`hessian_many`: entry (i, j) is
    ``-(kappa_i c_i + s_i sum_k lam_ik s_k) delta_ij + c_i lam_ij c_j``,
    exactly symmetric because the stored coupling matrix is."""
    return hessian_many(params, as_torus_point(theta).angles[None])[0]


def log_density(params: MvmParams, theta, log_z: float) -> float:
    """Normalized log-density given a log partition value from the caller
    (see :func:`mvmtorus.oracle.log_partition`)."""
    return exponent_f(params, theta) - float(log_z)


# ---------------------------------------------------------------------------
# batched evaluation: the one formula for f, grad f and the Hessian, as kernels
# of c = cos(theta - mu), s = sin(theta - mu), so a caller that needs several
# evaluates the (elementwise) trig once

def _trig_many(params: MvmParams, thetas: np.ndarray):
    thetas = np.asarray(thetas, dtype=float)
    if thetas.shape[-1] != params.p:
        raise DimensionMismatchError(
            f"points have last dimension {thetas.shape[-1]}, expected {params.p}"
        )
    delta = thetas - params.mu.angles
    return np.cos(delta), np.sin(delta)


def _half_quadratic(lam: np.ndarray, s) -> np.ndarray:
    """0.5 * s^T lam s over the rows of ``s`` (shape (..., p))."""
    return 0.5 * np.einsum("...i,ij,...j->...", s, lam, s)


def _exponent_cs(params: MvmParams, c, s) -> np.ndarray:
    return np.einsum("...i,i->...", c, params.kappa) + _half_quadratic(params.lam, s)


def _grad_cs(params: MvmParams, c, s) -> np.ndarray:
    return -params.kappa * s + c * np.einsum("...j,ji->...i", s, params.lam)


def _hessian_cs(params: MvmParams, c, s) -> np.ndarray:
    h = c[..., :, None] * c[..., None, :]
    h *= params.lam
    idx = np.arange(params.p)
    h[..., idx, idx] -= params.kappa * c + s * np.einsum("...j,ji->...i", s, params.lam)
    return h


def exponent_many(params: MvmParams, thetas) -> np.ndarray:
    """f = kappa^T c + 0.5 s^T Lambda s at points of shape (..., p)."""
    return _exponent_cs(params, *_trig_many(params, thetas))


def grad_many(params: MvmParams, thetas) -> np.ndarray:
    """Gradient of f at points of shape (..., p); output shape (..., p)."""
    return _grad_cs(params, *_trig_many(params, thetas))


def hessian_many(params: MvmParams, thetas) -> np.ndarray:
    """Hessian of f at points of shape (..., p); output (..., p, p)."""
    return _hessian_cs(params, *_trig_many(params, thetas))
