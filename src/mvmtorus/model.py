"""Core types and evaluation routines for the multivariate von Mises (sine)
distribution on the p-torus.

The distribution MVM(mu, kappa, Lambda) has unnormalized log-density

    f(theta) = kappa^T c(theta) + 0.5 * s(theta)^T Lambda s(theta)

with c_i = cos(theta_i - mu_i) and s_i = sin(theta_i - mu_i).  This module
holds the parameter and point types and exact evaluation of f, its gradient
and its Hessian.  Normalization constants live in :mod:`mvmtorus.oracle`.

All functions here are pure; nothing is mutated after construction, so every
operation is safe to call concurrently.
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
    "TorusPoint",
    "MvmParams",
    "TrigCache",
    "wrap_angles",
    "angular_distance",
    "as_torus_point",
    "trig_cache",
    "exponent_f",
    "grad_f",
    "hessian_f",
    "log_density",
    "evaluate_all",
    "exponent_many",
    "grad_many",
    "hessian_many",
]


class DimensionMismatchError(ValueError):
    """A point or vector does not match the dimension p of the distribution."""


def wrap_angles(angles) -> np.ndarray:
    """Reduce angles to the fundamental domain [0, 2*pi).

    Uses the floating remainder; values that round up to exactly 2*pi
    (tiny negative inputs) are mapped back to 0 so the interval stays
    half-open.
    """
    a = np.mod(np.asarray(angles, dtype=float), TWO_PI)
    return np.where(a >= TWO_PI, 0.0, a)


def angular_distance(a, b) -> float:
    """Sup-metric distance on the torus: max_i of the shorter arc |a_i - b_i|."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"angle vectors have shapes {a.shape} and {b.shape}"
        )
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


@dataclass(frozen=True, eq=False)
class MvmParams:
    """Parameter triple (mu, kappa, Lambda) of an MVM distribution.

    Invariants enforced on construction:

    * ``kappa`` is a length-p vector with every entry >= 0 (zero allowed),
    * ``lam`` is a symmetric p x p matrix with zero diagonal; asymmetry or
      a nonzero diagonal beyond ``LAMBDA_ATOL`` is a hard error, never
      silently repaired,
    * ``mu`` is finite and wrapped to [0, 2*pi) via :class:`TorusPoint`.

    Below the tolerance the upper triangle of ``lam`` is mirrored and the
    diagonal zeroed, so the stored matrix is exactly symmetric and the
    Hessian built from it is exactly symmetric too.
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
        kappa.setflags(write=False)
        lam.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "lam", lam)

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


@dataclass(frozen=True)
class TrigCache:
    """Componentwise cos/sin of theta - mu, computed once and shared by
    the exponent, gradient and Hessian so the three stay numerically
    consistent."""

    c: np.ndarray
    s: np.ndarray


def _check_dim(params: MvmParams, theta: TorusPoint) -> None:
    if theta.p != params.p:
        raise DimensionMismatchError(
            f"theta has length {theta.p} but the distribution has p={params.p}"
        )


def trig_cache(params: MvmParams, theta) -> TrigCache:
    theta = as_torus_point(theta)
    _check_dim(params, theta)
    delta = theta.angles - params.mu.angles
    return TrigCache(c=np.cos(delta), s=np.sin(delta))


def _exponent(params: MvmParams, t: TrigCache) -> float:
    return float(params.kappa @ t.c + 0.5 * (t.s @ params.lam @ t.s))


def _grad(params: MvmParams, t: TrigCache) -> np.ndarray:
    return -params.kappa * t.s + t.c * (params.lam @ t.s)


def _hessian(params: MvmParams, t: TrigCache) -> np.ndarray:
    h = params.lam * np.outer(t.c, t.c)
    h[np.diag_indices_from(h)] -= params.kappa * t.c + t.s * (params.lam @ t.s)
    return h


def exponent_f(params: MvmParams, theta) -> float:
    """Unnormalized log-density kappa^T c + 0.5 s^T Lambda s at ``theta``."""
    return _exponent(params, trig_cache(params, theta))


def grad_f(params: MvmParams, theta) -> np.ndarray:
    """Gradient of :func:`exponent_f`; component i is
    ``-kappa_i s_i + c_i * sum_k lam_ik s_k``."""
    return _grad(params, trig_cache(params, theta))


def hessian_f(params: MvmParams, theta) -> np.ndarray:
    """Hessian of :func:`exponent_f`.

    Entry (i, j) is ``-(kappa_i c_i + s_i sum_k lam_ik s_k) delta_ij
    + c_i lam_ij c_j``.  The result is exactly symmetric because the
    stored coupling matrix is.
    """
    return _hessian(params, trig_cache(params, theta))


def log_density(params: MvmParams, theta, log_z: float) -> float:
    """Normalized log-density given a log partition value from the caller
    (see :func:`mvmtorus.oracle.log_partition`)."""
    return exponent_f(params, theta) - float(log_z)


def evaluate_all(params: MvmParams, theta) -> tuple[float, np.ndarray, np.ndarray]:
    """Exponent, gradient and Hessian from one shared trig evaluation."""
    t = trig_cache(params, theta)
    return _exponent(params, t), _grad(params, t), _hessian(params, t)


# ---------------------------------------------------------------------------
# batched evaluation (used by the mode search, quadrature and the sampler)

def _trig_many(params: MvmParams, thetas: np.ndarray):
    thetas = np.asarray(thetas, dtype=float)
    if thetas.shape[-1] != params.p:
        raise DimensionMismatchError(
            f"points have last dimension {thetas.shape[-1]}, expected {params.p}"
        )
    delta = thetas - params.mu.angles
    return np.cos(delta), np.sin(delta)


def exponent_many(params: MvmParams, thetas) -> np.ndarray:
    """:func:`exponent_f` over an array of points with shape (..., p)."""
    c, s = _trig_many(params, thetas)
    return c @ params.kappa + 0.5 * np.einsum("...i,ij,...j->...", s, params.lam, s)


def grad_many(params: MvmParams, thetas) -> np.ndarray:
    """:func:`grad_f` over an array of points; output shape (..., p)."""
    c, s = _trig_many(params, thetas)
    return -params.kappa * s + c * (s @ params.lam)


def hessian_many(params: MvmParams, thetas) -> np.ndarray:
    """:func:`hessian_f` over an array of points; output shape (..., p, p)."""
    c, s = _trig_many(params, thetas)
    h = params.lam * (c[..., :, None] * c[..., None, :])
    idx = np.arange(params.p)
    h[..., idx, idx] -= params.kappa * c + s * (s @ params.lam)
    return h
