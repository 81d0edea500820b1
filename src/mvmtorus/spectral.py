"""Dense symmetric eigen-analysis for the small matrices this package
meets: eigen-decomposition, positive-definiteness and Gershgorin discs,
and the sufficient unimodality certificates built on them.

Matrices here are p x p with p the torus dimension: at most 4 for the
quadrature, while the mode search and the sampler run at p = 8, 12 or 16
as well.  Everything is delegated to LAPACK through numpy; the value
added by this module is the validated, ascending-ordered contract the rest
of the package relies on, plus a Cholesky-based definiteness test that is independent of the
eigen path (the two are cross-checked in the test suite).  ``certify``, the
sampler's gate and the closed form all read :func:`certify_unimodal`, the
package's one test of whether P = diag(kappa) - Lambda is definite.
``_solve_stack`` is the exception to LAPACK: the mode search solves
hundreds of small systems at once, one per start, and Gaussian elimination
vectorised over the stack in numpy gives each row its own verdict where
``np.linalg.cholesky`` and ``np.linalg.solve`` raise for the whole stack.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .model import MvmParams

#: absolute tolerance for accepting a matrix as symmetric
SYMMETRY_ATOL = 1e-12

__all__ = [
    "SYMMETRY_ATOL",
    "SymEigen",
    "GershgorinReport",
    "Verdict",
    "UnimodalityCertificate",
    "sym_eigen",
    "norm_inf",
    "default_pd_tol",
    "is_positive_definite",
    "gershgorin",
    "certify_unimodal",
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
    values, vectors = _eigh(a)
    return SymEigen(values=values, vectors=vectors)


def _eigh(a: np.ndarray, vectors: bool = True):
    """``np.linalg.eigh`` (``eigvalsh`` unless ``vectors``) of a symmetric
    matrix or a stack of them.  Where LAPACK does not converge (entries near
    1e300 beside subnormal ones) a stack is solved matrix by matrix, and a
    failing matrix on a copy scaled by the power of two that brings its
    largest entry into [0.5, 1), its eigenvalues scaled back; a matrix that
    converges keeps its bits."""
    solve = np.linalg.eigh if vectors else np.linalg.eigvalsh
    try:
        return solve(a)
    except np.linalg.LinAlgError:
        if a.ndim > 2:
            parts = [_eigh(m, vectors) for m in a]
            return tuple(map(np.stack, zip(*parts))) if vectors else np.stack(parts)
        shift = int(np.frexp(np.max(np.abs(a)))[1])
        out = solve(np.ldexp(a, -shift))
        return (np.ldexp(out[0], shift), out[1]) if vectors else np.ldexp(out, shift)


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
    np.fill_diagonal(off, 0.0)
    radii = np.sum(off, axis=1)
    excludes = bool(np.all(np.abs(centers) > radii))
    return GershgorinReport(centers=centers, radii=radii, excludes_zero=excludes)


class Verdict(enum.Enum):
    CERTIFIED_UNIMODAL = "CertifiedUnimodal"
    CERTIFIED_UNIMODAL_WITH_MINIMUM = "CertifiedUnimodalWithMinimum"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class UnimodalityCertificate:
    """Outcome of the sufficient unimodality tests.

    ``prop1_holds``: P is positive definite, so the density has one
    maximum, at mu.  ``cor1_holds``: every kappa_i strictly dominates its
    coupling row sum, which also pins the one minimum at the antipode of
    mu; it implies ``prop1_holds``.
    """

    verdict: Verdict
    prop1_holds: bool
    cor1_holds: bool
    p_matrix: np.ndarray
    p_eigenvalues: np.ndarray
    gershgorin: GershgorinReport


def certify_unimodal(params: MvmParams) -> UnimodalityCertificate:
    """Build P = diag(kappa) - Lambda and run both sufficient tests.  P
    counts as positive definite when each kappa_i exceeds its Gershgorin
    radius (exact at any margin), or else when S = ``_jacobi_scaled(P)``
    passes :func:`is_positive_definite`."""
    p_matrix = params.p_matrix()
    report = gershgorin(p_matrix)
    # row dominance: centers are exactly kappa (Lambda has zero diagonal)
    cor1 = bool(np.all(report.centers > report.radii))
    scaled = None if cor1 else _jacobi_scaled(p_matrix)
    prop1 = cor1 or (scaled is not None and is_positive_definite(scaled))
    eigenvalues = sym_eigen(p_matrix).values
    if cor1:
        verdict = Verdict.CERTIFIED_UNIMODAL_WITH_MINIMUM
    elif prop1:
        verdict = Verdict.CERTIFIED_UNIMODAL
    else:
        verdict = Verdict.INCONCLUSIVE
    return UnimodalityCertificate(verdict, prop1, cor1, p_matrix, eigenvalues, report)


def _solve_stack(
    a: np.ndarray, b: np.ndarray, tol: np.ndarray, definite: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``a[k] @ x[k] = b[k]`` for a stack of n x n systems by
    Gaussian elimination vectorised over the stack, one numpy step per
    column; returns ``(ok, x)``.

    ``definite``: no row exchanges, which on a symmetric matrix computes
    its square-root-free Cholesky factorisation L D L^T; ``ok`` means every
    pivot of D exceeds ``tol[k]``.  Every pivot of a positive definite
    matrix is at least its smallest eigenvalue, and a matrix that is not
    positive definite meets a pivot <= 0, so ``ok`` is the eigenvalue test
    lambda_min > tol except on rows with 0 < lambda_min <= tol.
    Otherwise: LU with partial pivoting; ``ok`` means every pivot has
    magnitude at least ``tol[k]``.  A failing pivot means the smallest
    singular value is below n * tol, but the converse does not hold: a
    (near-)singular matrix can share its small singular value out over
    several pivots above ``tol``.  A row that fails stops being
    eliminated at its failing pivot, so no division by a small pivot
    overflows; its x is 0.  A back substitution that overflows also fails
    its row.
    """
    n, p = b.shape
    m = np.concatenate([a, b[:, :, None]], axis=2)
    ok = np.ones(n, dtype=bool)
    rows = np.arange(n)
    for k in range(p):
        last = k + 1 == p
        if not (definite or last):
            r = k + np.argmax(np.abs(m[:, k:, k]), axis=1)
            top = m[:, k].copy()
            m[:, k] = m[rows, r]
            m[rows, r] = top
        pivot = m[:, k, k]
        ok &= pivot > tol if definite else np.abs(pivot) >= tol
        if not last:
            # a failed row divides by inf: zero multipliers, no further change
            factor = m[:, k + 1 :, k] / np.where(ok, pivot, np.inf)[:, None]
            m[:, k + 1 :, k + 1 :] -= factor[:, :, None] * m[:, k, None, k + 1 :]
    diag = np.where(ok[:, None], np.diagonal(m, axis1=1, axis2=2), np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        # unit upper triangular rows; a failed row divides by inf, so x = 0
        m /= diag[:, :, None]
        x = m[:, :, p].copy()
        for k in range(p - 2, -1, -1):
            x[:, k] -= np.einsum("nj,nj->n", m[:, k, k + 1 : p], x[:, k + 1 :])
    ok &= np.isfinite(x).all(axis=1)
    x[~ok] = 0.0
    return ok, x
