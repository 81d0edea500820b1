"""Dense symmetric eigen-analysis for the small matrices this package
meets: eigen-decomposition, positive-definiteness, Gershgorin discs and
determinants.

Matrices here are p x p with p the torus dimension: at most 4 for the
quadrature, while the mode search and the sampler run at p = 8, 12 or 16
as well.  Everything is delegated to LAPACK through numpy; the value
added by this module is the validated, ascending-ordered contract the rest
of the package relies on, plus a Cholesky-based definiteness test that is independent of the
eigen path (the two are cross-checked in the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: absolute tolerance for accepting a matrix as symmetric
SYMMETRY_ATOL = 1e-12

__all__ = [
    "SYMMETRY_ATOL",
    "SymEigen",
    "GershgorinReport",
    "sym_eigen",
    "norm_inf",
    "default_pd_tol",
    "is_positive_definite",
    "gershgorin",
    "determinant",
]


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _require_symmetric(a: np.ndarray) -> None:
    asym = np.max(np.abs(a - a.T)) if a.size else 0.0
    if asym > SYMMETRY_ATOL:
        raise ValueError(
            f"matrix is not symmetric: max |a_ij - a_ji| = {asym:.3e}"
        )


@dataclass(frozen=True)
class SymEigen:
    """Full eigen-decomposition of a symmetric matrix.

    ``values`` are ascending; ``vectors`` has the matching eigenvectors as
    columns and is orthogonal.  Repeated eigenvalues come with an arbitrary
    orthonormal basis of their eigenspace, so comparisons should use the
    eigenvalue multiset, never individual vector entries.
    """

    values: np.ndarray
    vectors: np.ndarray


def sym_eigen(a) -> SymEigen:
    """Eigen-decompose a symmetric matrix; raises if it is not symmetric
    (within ``SYMMETRY_ATOL``)."""
    a = _as_square(a)
    _require_symmetric(a)
    values, vectors = np.linalg.eigh(a)
    return SymEigen(values=values, vectors=vectors)


def norm_inf(a):
    """Inf-norm max_i sum_j |a_ij| of a matrix, or of each matrix in a stack
    of shape (..., n, n); 0 for an empty matrix.  Every norm-scaled
    tolerance in the package reads it from here."""
    return np.max(np.sum(np.abs(a), axis=-1), axis=-1, initial=0.0)


def default_pd_tol(a: np.ndarray) -> float:
    """Definiteness threshold 1e-10 * max(1, inf-norm): large enough to keep
    a semidefinite boundary matrix (e.g. one with an exactly-zero eigenvalue)
    out of the positive-definite class despite roundoff."""
    return 1e-10 * max(1.0, float(norm_inf(_as_square(a))))


def is_positive_definite(a, tol: float | None = None) -> bool:
    """True iff the smallest eigenvalue exceeds ``tol``.

    Decided by attempting a Cholesky factorization of ``a - tol*I``, which
    succeeds exactly when all eigenvalues of ``a`` exceed ``tol``; this is
    deliberately a different code path from :func:`sym_eigen`.
    """
    a = _as_square(a)
    _require_symmetric(a)
    if tol is None:
        tol = default_pd_tol(a)
    shifted = a - tol * np.eye(a.shape[0])
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _jacobi_scaled(a: np.ndarray) -> np.ndarray | None:
    """S = D^-1/2 A D^-1/2 with D = diag(A), for a symmetric A.

    S has a unit diagonal and, by Sylvester's law of inertia, the inertia
    of A, so a definiteness test on S answers the same for c*A and for
    E A E (c > 0, E a positive diagonal) as for A.  None when A is not
    positive definite on sight: a diagonal entry below the smallest normal
    float (a subnormal entry counts as zero, which also keeps the scaling
    finite), or an entry of S too large for a float (off the diagonal,
    |s_ij| >= 1 already rules definiteness out).
    """
    diag = np.diag(a)
    if not np.all(diag >= np.finfo(float).tiny):
        return None
    scale = 1.0 / np.sqrt(diag)
    with np.errstate(over="ignore"):
        s = a * np.outer(scale, scale)
    return s if np.all(np.isfinite(s)) else None


@dataclass(frozen=True)
class GershgorinReport:
    """Gershgorin discs of a symmetric matrix: intervals centered at the
    diagonal entries with radii equal to the absolute off-diagonal row sums.
    Every eigenvalue lies in their union; ``excludes_zero`` means no disc
    contains 0, hence the matrix is nonsingular."""

    centers: np.ndarray
    radii: np.ndarray
    excludes_zero: bool


def gershgorin(a) -> GershgorinReport:
    a = _as_square(a)
    centers = np.diag(a).copy()
    # zero the diagonal before summing so each radius is exactly the sum of
    # the off-diagonal magnitudes (not a row sum with the center re-subtracted)
    off = np.abs(a)
    off[np.diag_indices_from(off)] = 0.0
    radii = np.sum(off, axis=1)
    excludes = bool(np.all(np.abs(centers) > radii))
    return GershgorinReport(centers=centers, radii=radii, excludes_zero=excludes)


def determinant(a) -> float:
    """Determinant as the product of the eigenvalues of :func:`sym_eigen`."""
    return float(np.prod(sym_eigen(a).values))
