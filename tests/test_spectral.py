import numpy as np
import pytest

from conftest import (
    REFERENCE_COUPLING,
    random_symmetric_coupling,
)
from mvmtorus import spectral
from mvmtorus.spectral import (
    GershgorinReport,
    default_pd_tol,
    gershgorin,
    is_positive_definite,
    norm_inf,
    sym_eigen,
)


def test_reference_coupling_spectrum():
    assert sym_eigen(REFERENCE_COUPLING).values == pytest.approx(
        [-4.0, 2.0, 2.0], abs=1e-10
    )


def test_reference_p_matrix_spectrum():
    p = np.diag([3.0, 3.0, 3.0]) - REFERENCE_COUPLING
    assert sym_eigen(p).values == pytest.approx([1.0, 1.0, 7.0], abs=1e-10)


def test_reference_antipodal_hessian_spectrum():
    h = np.diag([3.0, 3.0, 3.0]) + REFERENCE_COUPLING
    assert sym_eigen(h).values == pytest.approx([-1.0, 5.0, 5.0], abs=1e-10)


def test_identity_eigendecomposition():
    out = sym_eigen(np.eye(3))
    assert np.array_equal(out.values, np.ones(3))
    assert np.array_equal(out.vectors, np.eye(3))


def test_sym_eigen_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        sym_eigen(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_eigen_residuals_and_orthonormality(rng):
    for _ in range(25):
        p = int(rng.integers(2, 8))
        a = random_symmetric_coupling(rng, p, scale=3.0) + np.diag(
            rng.uniform(-3.0, 3.0, size=p)
        )
        out = sym_eigen(a)
        norm = max(1.0, float(np.max(np.abs(a))))
        assert np.all(np.diff(out.values) >= 0.0)
        residual = a @ out.vectors - out.vectors * out.values
        assert np.max(np.abs(residual)) < 1e-10 * norm
        gram = out.vectors.T @ out.vectors
        assert np.max(np.abs(gram - np.eye(p))) < 1e-10


#: P = diag(kappa) - Lambda with entries of 1e300 beside subnormal and
#: 1e-300 ones, on which LAPACK's eigh does not converge
_EIGH_FAILS = np.array(
    [
        [1e-08, 1e-300, 0.3, 1e4, -1e300],
        [1e-300, 1.0, 3.0, -3.0, 1e-300],
        [0.3, 3.0, 0.3, -50.0, 1e4],
        [1e4, -3.0, -50.0, 50.0, -1.0],
        [-1e300, 1e-300, 1e4, -1.0, 5e-324],
    ]
)


def test_eigh_retries_a_matrix_lapack_does_not_converge_on(rng):
    # a stack holding it is solved matrix by matrix: the failing matrix on a
    # copy scaled by a power of two, the others with their own bits
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.eigh(_EIGH_FAILS)
    other = random_symmetric_coupling(rng, 5)
    w, v = spectral._eigh(np.stack([other, _EIGH_FAILS, np.eye(5)]))
    for k, a in ((0, other), (2, np.eye(5))):
        expected = np.linalg.eigh(a)
        assert np.array_equal(w[k], expected[0]) and np.array_equal(v[k], expected[1])
    assert np.all(np.diff(w[1]) >= 0.0)
    assert w[1][0] == pytest.approx(-1e300) and w[1][-1] == pytest.approx(1e300)
    residual = _EIGH_FAILS @ v[1] - v[1] * w[1]
    assert np.max(np.abs(residual)) < 1e-10 * 1e300
    assert np.max(np.abs(v[1].T @ v[1] - np.eye(5))) < 1e-10
    assert np.array_equal(sym_eigen(_EIGH_FAILS).values, w[1])


def test_eigenvalues_invariant_under_orthogonal_similarity(rng):
    for _ in range(10):
        p = int(rng.integers(2, 6))
        a = random_symmetric_coupling(rng, p, scale=2.0) + np.diag(
            rng.uniform(-2.0, 2.0, size=p)
        )
        q, _ = np.linalg.qr(rng.normal(size=(p, p)))
        rotated = q.T @ a @ q
        rotated = 0.5 * (rotated + rotated.T)  # scrub roundoff asymmetry
        assert sym_eigen(rotated).values == pytest.approx(
            sym_eigen(a).values, abs=1e-9
        )


# ---------------------------------------------------------------------------
# positive definiteness


def test_pd_accepts_reference_p_matrix():
    assert is_positive_definite(np.diag([3.0, 3.0, 3.0]) - REFERENCE_COUPLING)


def test_pd_rejects_indefinite_antipodal_hessian():
    assert not is_positive_definite(np.diag([3.0, 3.0, 3.0]) + REFERENCE_COUPLING)


def test_pd_rejects_zero_matrix():
    # semidefinite boundary: all eigenvalues 0 must not count as definite
    assert not is_positive_definite(np.zeros((3, 3)))


def test_norm_inf_of_a_stack_is_per_matrix(rng):
    stack = rng.normal(size=(5, 4, 4))
    assert np.array_equal(norm_inf(stack), [norm_inf(a) for a in stack])
    assert norm_inf(np.diag([3.0, 3.0, 3.0]) - REFERENCE_COUPLING) == 7.0
    assert norm_inf(np.zeros((0, 0))) == 0.0
    assert default_pd_tol(np.zeros((0, 0))) == 1e-10


def test_pd_agrees_with_eigenvalue_path(rng):
    for _ in range(50):
        p = int(rng.integers(1, 6))
        a = random_symmetric_coupling(rng, p, scale=2.0) + np.diag(
            rng.uniform(-1.0, 4.0, size=p)
        )
        tol = default_pd_tol(a)
        smallest = sym_eigen(a).values[0]
        if abs(smallest - tol) < 1e-8 * max(1.0, abs(smallest)):
            continue  # too close to the threshold to compare code paths
        assert is_positive_definite(a) == (smallest > tol)


# ---------------------------------------------------------------------------
# Gershgorin discs


def test_gershgorin_reference_p_matrix():
    report = gershgorin(np.diag([3.0, 3.0, 3.0]) - REFERENCE_COUPLING)
    assert np.array_equal(report.centers, [3.0, 3.0, 3.0])
    assert np.array_equal(report.radii, [4.0, 4.0, 4.0])
    assert not report.excludes_zero


def test_gershgorin_diagonal_matrix():
    report = gershgorin(np.diag([1.0, 2.0, 3.0]))
    assert np.array_equal(report.radii, np.zeros(3))
    assert report.excludes_zero


def test_gershgorin_six_mode_hessian():
    e = 0.1
    h1 = np.array([[-e, -e, e], [-e, -1.0, e * e], [e, e * e, -1.0]])
    report = gershgorin(h1)
    assert np.array_equal(report.centers, [-0.1, -1.0, -1.0])
    # radii exactly as summed over the off-diagonal entries
    assert np.array_equal(report.radii, [e + e, e + e * e, e + e * e])
    assert report.radii == pytest.approx([0.2, 0.11, 0.11], abs=1e-15)
    assert not report.excludes_zero


def test_gershgorin_contains_all_eigenvalues(rng):
    for _ in range(25):
        p = int(rng.integers(2, 7))
        a = random_symmetric_coupling(rng, p, scale=2.0) + np.diag(
            rng.uniform(-3.0, 3.0, size=p)
        )
        report = gershgorin(a)
        for value in sym_eigen(a).values:
            inside = np.abs(value - report.centers) <= report.radii + 1e-12
            assert inside.any()
