"""Shared fixtures: reference matrices, the six-mode benchmark family, and
small independent oracles (power-series Bessel functions, cofactor
determinants, dense-grid quadrature) used to cross-check the library
paths."""

from __future__ import annotations

import csv
import io

import numpy as np
import pytest

from mvmtorus import MvmParams, angular_distance

# Lambda whose eigenvalues are {-4, 2, 2}; with kappa = 3*1 the matrix
# P = diag(kappa) - Lambda is positive definite (eigenvalues {1, 1, 7})
# even though the row-dominance margin fails (3 < 4).
REFERENCE_COUPLING = np.array(
    [
        [0.0, -2.0, 2.0],
        [-2.0, 0.0, 2.0],
        [2.0, 2.0, 0.0],
    ]
)

# kappa = 0 coupling with exactly two antipodal modes at s = +-(1, 1, 1).
TWO_MODE_COUPLING = np.array(
    [
        [0.0, 1.75, 0.77],
        [1.75, 0.0, 0.06],
        [0.77, 0.06, 0.0],
    ]
)

# kappa = 0 coupling whose maximum is a closed flat ridge along cube edges
# ("zig-zag belt"); perturbing with kappa = sin(eta)*1 breaks the ridge
# into six isolated maxima.
RING_COUPLING = np.array(
    [
        [0.0, -1.0, 1.0],
        [-1.0, 0.0, 1.0],
        [1.0, 1.0, 0.0],
    ]
)


def six_mode_params(eta: float, mu=None) -> MvmParams:
    mu = np.zeros(3) if mu is None else np.asarray(mu)
    return MvmParams(mu=mu, kappa=np.full(3, np.sin(eta)), lam=RING_COUPLING)


def six_mode_table(eta: float):
    """The six analytic maxima of the perturbed ring family and their
    Hessians, as (theta, hessian) pairs."""
    e = np.sin(eta)
    half = 0.5 * np.pi
    thetas = [
        (0.0, 3 * half + eta, 3 * half + eta),
        (half - eta, 3 * half + eta, 0.0),
        (half - eta, 0.0, half - eta),
        (0.0, half - eta, half - eta),
        (3 * half + eta, half - eta, 0.0),
        (3 * half + eta, 0.0, 3 * half + eta),
    ]
    h14 = np.array([[-e, -e, e], [-e, -1.0, e * e], [e, e * e, -1.0]])
    h25 = np.array([[-1.0, -e * e, e], [-e * e, -1.0, e], [e, e, -e]])
    h36 = np.array([[-1.0, -e, e * e], [-e, -e, e], [e * e, e, -1.0]])
    hessians = [h14, h25, h36, h14, h25, h36]
    return [(np.array(t), h) for t, h in zip(thetas, hessians)]


def bessel_i0_series(x: float, terms: int = 30) -> float:
    """Power series sum_k (x/2)^(2k) / (k!)^2."""
    total = 0.0
    term = 1.0
    for k in range(terms):
        if k > 0:
            term *= (x / 2.0) ** 2 / (k * k)
        total += term
    return total


def bessel_i1_series(x: float, terms: int = 30) -> float:
    """Power series (x/2) * sum_k (x/2)^(2k) / (k! (k+1)!)."""
    total = 0.0
    term = 1.0
    for k in range(terms):
        if k > 0:
            term *= (x / 2.0) ** 2 / (k * (k + 1))
        total += term
    return (x / 2.0) * total


def cofactor_determinant(a: np.ndarray) -> float:
    """Recursive cofactor expansion along the first row."""
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * a[0, j] * cofactor_determinant(minor)
    return total


def random_symmetric_coupling(rng: np.random.Generator, p: int, scale: float = 2.0):
    lam = rng.uniform(-scale, scale, size=(p, p))
    lam = np.triu(lam, k=1)
    return lam + lam.T


def random_params(
    rng: np.random.Generator,
    p: int,
    kappa_range=(0.0, 5.0),
    coupling_scale: float = 2.0,
) -> MvmParams:
    return MvmParams(
        mu=rng.uniform(0.0, 2.0 * np.pi, size=p),
        kappa=rng.uniform(*kappa_range, size=p),
        lam=random_symmetric_coupling(rng, p, coupling_scale),
    )


def heterogeneous_params(rng: np.random.Generator, p: int) -> MvmParams:
    """Random p >= 2 parameters whose kappa spans a factor of 10 to 30
    (smallest entry in [1, 3]) with couplings in [-1, 1]: the regime where
    the per-coordinate envelope beats the scalar one."""
    low = rng.uniform(1.0, 3.0)
    ratio = rng.uniform(10.0, 30.0)
    kappa = low * ratio ** rng.uniform(0.0, 1.0, size=p)
    kappa[:2] = (low, low * ratio)
    return MvmParams(
        mu=rng.uniform(0.0, 2.0 * np.pi, size=p),
        kappa=rng.permutation(kappa),
        lam=random_symmetric_coupling(rng, p, 1.0),
    )


def first_kept_oracle(rows, radius: float) -> list[int]:
    """Greedy first-kept dedup with one ``angular_distance`` call per pair:
    row i is kept when it is at least ``radius`` from every row kept before
    it.  Reference for the vectorised dedup in ``mvmtorus.modes``."""
    kept: list[int] = []
    for i, row in enumerate(rows):
        if all(angular_distance(row, rows[k]) >= radius for k in kept):
            kept.append(i)
    return kept


def exponent_on_axes(params: MvmParams, axes) -> np.ndarray:
    """Exponent on the full tensor product of the per-coordinate angle
    vectors ``axes``, built by axis broadcasting in one dense array.
    Reference for the slab-by-slab quadrature in ``mvmtorus.oracle``."""
    p = params.p
    total = np.zeros((1,) * p)
    sines = []
    for i, angles in enumerate(axes):
        shape = [1] * p
        shape[i] = len(angles)
        d = np.asarray(angles, dtype=float) - params.mu.angles[i]
        total = total + (params.kappa[i] * np.cos(d)).reshape(shape)
        sines.append(np.sin(d).reshape(shape))
    for i in range(p):
        for j in range(i + 1, p):
            total = total + params.lam[i, j] * (sines[i] * sines[j])
    return total


def logsumexp_oracle(values: np.ndarray, axis=None) -> np.ndarray:
    """log(sum(exp(values))) with one max shift over ``axis``."""
    shift = np.max(values, axis=axis, keepdims=True)
    summed = np.sum(np.exp(values - shift), axis=axis, keepdims=True)
    return np.squeeze(shift + np.log(summed), axis=axis)


def dense_log_partition(params: MvmParams, n: int) -> float:
    """Trapezoid-rule log Z from one dense (n,)*p exponent grid."""
    nodes = 2.0 * np.pi * np.arange(n) / n
    values = exponent_on_axes(params, [nodes] * params.p)
    return float(logsumexp_oracle(values) + params.p * np.log(2.0 * np.pi / n))


def dense_marginal_density(params: MvmParams, dim: int, angles, n: int) -> np.ndarray:
    """Marginal density of coordinate ``dim`` at ``angles`` from a dense
    grid with that axis replaced by the angles."""
    nodes = 2.0 * np.pi * np.arange(n) / n
    axes = [nodes] * params.p
    axes[dim] = np.asarray(angles, dtype=float)
    values = exponent_on_axes(params, axes)
    others = tuple(i for i in range(params.p) if i != dim)
    log_marg = logsumexp_oracle(values, axis=others) if others else values
    log_marg = log_marg + (params.p - 1) * np.log(2.0 * np.pi / n)
    return np.exp(log_marg - dense_log_partition(params, n))


def csv_writer_text(rows) -> str:
    """The text ``csv.writer`` (with "\\n" line ends) writes for ``rows``,
    each float cell given as ``repr(float(x))``.  Reference for the
    package's CSV writers, which join the cells themselves."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(
            [repr(float(x)) if isinstance(x, (float, np.floating)) else x for x in row]
        )
    return buf.getvalue()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
