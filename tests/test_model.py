import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RING_COUPLING, random_params, six_mode_params, six_mode_table
from mvmtorus import (
    DimensionMismatchError,
    MvmParams,
    TorusPoint,
    exponent_f,
    exponent_many,
    grad_f,
    grad_many,
    hessian_f,
    log_density,
    wrap_angles,
)
from mvmtorus.model import TWO_PI, lattice_rows
from mvmtorus.oracle import log_partition

angle_lists = st.lists(
    st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=6,
)


# ---------------------------------------------------------------------------
# product grids


@st.composite
def _lattice_case(draw):
    p = draw(st.integers(1, 5))
    nodes = draw(
        st.lists(
            st.floats(-10.0, 10.0, allow_nan=False), min_size=1, max_size=5, unique=True
        )
    )
    size = len(nodes) ** p
    index = sorted(draw(st.sets(st.integers(0, size - 1), max_size=size)))
    return np.array(nodes), p, index


@settings(max_examples=200, deadline=None)
@given(_lattice_case())
def test_lattice_rows_match_itertools_product(case):
    nodes, p, index = case
    expected = np.array(list(itertools.product(nodes, repeat=p))).reshape(-1, p)
    rows = lattice_rows(nodes, p)
    assert rows.shape == expected.shape
    assert rows.tobytes() == expected.tobytes()
    picked = lattice_rows(nodes, p, np.array(index, dtype=np.int64))
    assert picked.shape == (len(index), p)
    assert picked.tobytes() == expected[index].tobytes()


# ---------------------------------------------------------------------------
# torus points


@given(angle_lists)
def test_wrap_into_fundamental_domain(angles):
    wrapped = TorusPoint(np.array(angles)).angles
    assert np.all(wrapped >= 0.0)
    assert np.all(wrapped < TWO_PI)


@given(angle_lists, st.integers(0, 5))
def test_wrap_periodicity(angles, i):
    theta = TorusPoint(np.array(angles))
    shift = np.zeros(theta.p)
    shift[i % theta.p] = TWO_PI
    again = TorusPoint(theta.angles + shift)
    # one rounded addition of 2*pi separates the two representations
    assert theta.distance(again) < 2e-15


@given(angle_lists, angle_lists)
def test_angular_distance_symmetric(a, b):
    n = min(len(a), len(b))
    pa, pb = TorusPoint(np.array(a[:n])), TorusPoint(np.array(b[:n]))
    assert pa.distance(pb) == pb.distance(pa)
    assert pa.distance(pa) == 0.0
    assert 0.0 <= pa.distance(pb) <= np.pi + 1e-12


def test_torus_point_arithmetic():
    theta = TorusPoint(np.array([0.5, 6.0]))
    assert np.allclose((theta + np.array([0.2, 1.0])).angles, [0.7, 0.716814692820414])
    assert theta.antipode().distance(theta) == pytest.approx(np.pi)
    assert (theta - theta).angles == pytest.approx([0.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_torus_point_rejects_non_finite_angles(bad):
    with pytest.raises(ValueError, match="finite"):
        TorusPoint(np.array([0.5, bad, 1.0]))


# ---------------------------------------------------------------------------
# parameter validation


def test_params_reject_non_finite_mu():
    with pytest.raises(ValueError, match="mu: angles must be finite"):
        MvmParams(mu=np.array([np.nan, 0.0]), kappa=np.ones(2), lam=np.zeros((2, 2)))


def test_params_reject_negative_kappa():
    with pytest.raises(ValueError, match="kappa"):
        MvmParams(mu=np.zeros(2), kappa=np.array([1.0, -0.1]), lam=np.zeros((2, 2)))


def test_params_allow_zero_kappa():
    params = MvmParams(mu=np.zeros(3), kappa=np.zeros(3), lam=RING_COUPLING)
    assert np.all(params.kappa == 0.0)


def test_params_reject_asymmetric_coupling():
    lam = np.array([[0.0, 1.0], [1.0 + 1e-9, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        MvmParams(mu=np.zeros(2), kappa=np.ones(2), lam=lam)


def test_params_reject_nonzero_diagonal():
    lam = np.array([[1e-6, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="diagonal"):
        MvmParams(mu=np.zeros(2), kappa=np.ones(2), lam=lam)


def test_params_reject_an_overflowing_exponent_range():
    with pytest.raises(ValueError, match="kappa and lambda are too large"):
        MvmParams(mu=np.zeros(2), kappa=[1e308, 1e308], lam=[[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="kappa and lambda are too large"):
        MvmParams(mu=np.zeros(2), kappa=[1e308, 0.0], lam=[[0.0, 1e308], [1e308, 0.0]])
    with pytest.raises(ValueError, match="kappa and lambda are too large"):
        MvmParams(mu=np.zeros(2), kappa=[0.0, 0.0], lam=[[0.0, 1e308], [1e308, 0.0]])
    # just below the limit every evaluation stays finite
    params = MvmParams(mu=np.zeros(2), kappa=[0.0, 0.0], lam=[[0.0, 8e307], [8e307, 0.0]])
    theta = [np.pi / 2, np.pi / 2]
    assert exponent_f(params, theta) == 8e307
    assert np.all(np.isfinite(grad_f(params, theta)))
    assert np.all(np.isfinite(hessian_f(params, theta)))


def test_params_reject_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        MvmParams(mu=np.zeros(3), kappa=np.ones(2), lam=np.zeros((2, 2)))
    with pytest.raises(DimensionMismatchError):
        MvmParams(mu=np.zeros(2), kappa=np.ones(2), lam=np.zeros((3, 3)))


def test_evaluations_reject_wrong_length_theta():
    params = MvmParams(mu=np.zeros(3), kappa=np.ones(3), lam=np.zeros((3, 3)))
    for op in (exponent_f, grad_f, hessian_f):
        with pytest.raises(DimensionMismatchError):
            op(params, TorusPoint(np.zeros(2)))


# ---------------------------------------------------------------------------
# trig identity


@given(angle_lists, angle_lists)
def test_trig_identity_tight(mu, theta):
    n = min(len(mu), len(theta))
    params = MvmParams(
        mu=np.array(mu[:n]), kappa=np.ones(n), lam=np.zeros((n, n))
    )
    delta = TorusPoint(np.array(theta[:n])).angles - params.mu.angles
    assert np.max(np.abs(np.cos(delta) ** 2 + np.sin(delta) ** 2 - 1.0)) < 1e-14


# ---------------------------------------------------------------------------
# exponent


def test_exponent_at_mean_is_kappa_sum(rng):
    params = random_params(rng, 3)
    assert exponent_f(params, params.mu) == pytest.approx(
        float(np.sum(params.kappa)), abs=1e-14
    )


def test_exponent_one_dimensional_reduction():
    params = MvmParams(mu=np.array([1.0]), kappa=np.array([2.0]), lam=np.zeros((1, 1)))
    theta = TorusPoint(np.array([1.0 + np.pi / 3.0]))
    assert exponent_f(params, theta) == pytest.approx(1.0, abs=1e-15)


def test_exponent_matches_quadratic_form_oracle(rng):
    # kappa = 0 leaves only the coupling term; check against a direct
    # matrix product evaluated outside the library code path
    params = MvmParams(mu=np.zeros(3), kappa=np.zeros(3), lam=RING_COUPLING)
    for _ in range(100):
        theta = rng.uniform(0.0, TWO_PI, size=3)
        s = np.sin(theta)
        expected = 0.5 * float(s @ RING_COUPLING @ s)
        assert exponent_f(params, TorusPoint(theta)) == pytest.approx(
            expected, abs=1e-13
        )


def test_exponent_shift_equivariance(rng):
    for _ in range(50):
        p = int(rng.integers(1, 5))
        params = random_params(rng, p)
        theta = TorusPoint(rng.uniform(0.0, TWO_PI, size=p))
        centered = MvmParams(mu=np.zeros(p), kappa=params.kappa, lam=params.lam)
        delta = theta.angles - params.mu.angles
        lhs = exponent_f(params, theta)
        rhs = exponent_f(centered, TorusPoint(delta))
        if np.all(delta >= 0.0):
            # no component re-wraps, so the trig arguments are bitwise equal
            assert lhs == rhs
        else:
            # wrapped components go through one rounded addition of 2*pi
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_exponent_antipodal_symmetry_when_kappa_zero(rng):
    params = MvmParams(mu=np.zeros(3), kappa=np.zeros(3), lam=RING_COUPLING)
    for _ in range(50):
        theta = TorusPoint(rng.uniform(0.0, TWO_PI, size=3))
        assert exponent_f(params, theta) == pytest.approx(
            exponent_f(params, theta.antipode()), abs=1e-12
        )


# ---------------------------------------------------------------------------
# gradient


def test_gradient_zero_at_mean(rng):
    params = random_params(rng, 4)
    assert np.all(grad_f(params, params.mu) == 0.0)


def test_gradient_zero_at_six_mode_points():
    eta = 0.1
    params = six_mode_params(eta)
    for theta, _ in six_mode_table(eta):
        assert np.max(np.abs(grad_f(params, TorusPoint(theta)))) < 1e-12


def _central_difference(fun, x, h=1e-5):
    out = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        out[i] = (fun(x + step) - fun(x - step)) / (2.0 * h)
    return out


def test_gradient_matches_finite_differences(rng):
    for _ in range(200):
        p = int(rng.integers(1, 5))
        params = random_params(rng, p)
        theta = rng.uniform(0.0, TWO_PI, size=p)
        grad = grad_f(params, TorusPoint(theta))
        fd = _central_difference(
            lambda x: exponent_f(params, TorusPoint(x)), theta
        )
        scale = max(1.0, float(np.max(np.abs(grad))))
        assert np.max(np.abs(grad - fd)) / scale < 1e-6


# ---------------------------------------------------------------------------
# hessian


def test_hessian_at_mean_is_coupling_minus_concentration(rng):
    params = random_params(rng, 3)
    expected = params.lam - np.diag(params.kappa)
    assert np.array_equal(hessian_f(params, params.mu), expected)
    assert np.array_equal(expected, -params.p_matrix())


def test_hessian_matches_six_mode_tables():
    eta = 0.1
    params = six_mode_params(eta)
    for theta, expected in six_mode_table(eta):
        h = hessian_f(params, TorusPoint(theta))
        assert np.max(np.abs(h - expected)) < 1e-12


def test_hessian_matches_finite_differences_of_gradient(rng):
    for _ in range(100):
        p = int(rng.integers(1, 5))
        params = random_params(rng, p)
        theta = rng.uniform(0.0, TWO_PI, size=p)
        hess = hessian_f(params, TorusPoint(theta))
        cols = [
            _central_difference(
                lambda x, j=j: grad_f(params, TorusPoint(x))[j], theta
            )
            for j in range(p)
        ]
        fd = np.stack(cols, axis=0)
        scale = max(1.0, float(np.max(np.abs(hess))))
        assert np.max(np.abs(hess - fd)) / scale < 1e-6


def test_hessian_exactly_symmetric(rng):
    for _ in range(50):
        p = int(rng.integers(2, 6))
        params = random_params(rng, p)
        h = hessian_f(params, TorusPoint(rng.uniform(0.0, TWO_PI, size=p)))
        assert np.array_equal(h, h.T)


# ---------------------------------------------------------------------------
# log density


def test_log_density_univariate_normalizes():
    params = MvmParams(mu=np.array([0.7]), kappa=np.array([2.0]), lam=np.zeros((1, 1)))
    log_z = log_partition(params, 256)
    nodes = TWO_PI * np.arange(4096) / 4096
    dens = np.exp(
        [log_density(params, TorusPoint(np.array([t])), log_z) for t in nodes]
    )
    assert np.sum(dens) * TWO_PI / 4096 == pytest.approx(1.0, abs=1e-8)


def test_log_density_bivariate_normalizes():
    params = MvmParams(
        mu=np.zeros(2), kappa=np.array([2.0, 2.0]), lam=np.array([[0.0, 1.0], [1.0, 0.0]])
    )
    log_z = log_partition(params, 128)
    n = 128
    nodes = TWO_PI * np.arange(n) / n
    grid = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1)
    total = np.sum(np.exp(exponent_many(params, grid) - log_z)) * (TWO_PI / n) ** 2
    assert total == pytest.approx(1.0, abs=1e-8)


def test_log_density_invariant_under_joint_shift(rng):
    params = random_params(rng, 3)
    theta = TorusPoint(rng.uniform(0.0, TWO_PI, size=3))
    delta = rng.uniform(0.0, TWO_PI, size=3)
    shifted = params.shifted(delta)
    assert log_density(params, theta, 1.2345) == pytest.approx(
        log_density(shifted, theta + delta, 1.2345), abs=1e-12
    )


# ---------------------------------------------------------------------------
# batched evaluation agrees with scalar


def test_batched_evaluations_match_scalar(rng):
    params = random_params(rng, 3)
    thetas = rng.uniform(0.0, TWO_PI, size=(20, 3))
    fs = exponent_many(params, thetas)
    gs = grad_many(params, thetas)
    for k in range(20):
        point = TorusPoint(thetas[k])
        assert fs[k] == pytest.approx(exponent_f(params, point), abs=1e-13)
        assert grad_f(params, point) == pytest.approx(gs[k], abs=1e-13)
