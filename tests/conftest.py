"""Shared fixtures: reference matrices, the six-mode benchmark family, and
small independent oracles (power-series Bessel functions, dense-grid
quadrature) used to cross-check the library paths."""

from __future__ import annotations

import csv
import io
import math
import random

import numpy as np
import pytest

from mvmtorus import (
    MvmParams,
    angular_distance,
    exponent_many,
    grad_many,
    hessian_many,
    wrap_angles,
)
from mvmtorus.model import TWO_PI

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


def start_points_oracle(params: MvmParams, cfg, max_lattice: int) -> np.ndarray:
    """The mode-search start set by its documented rule, from a fresh
    ``random.Random(cfg.seed)``: the whole ``m**p`` lattice, built by
    ``meshgrid`` and stacked, when it has at most ``max_lattice`` rows; else
    ``max_lattice`` distinct digit rows (digits ``int(m * random())``, a
    repeat redrawn), taken from the stacked lattice by their base-m index in
    ascending order; then ``n_random`` rows of p uniforms ``TWO_PI *
    random()``.  Reference for the index-free start set in
    ``mvmtorus.modes``."""
    p = params.p
    m = cfg.starts_per_dim
    rng = random.Random(cfg.seed)
    offsets = np.pi / m + np.arange(m) * (2.0 * np.pi / m)
    grids = np.meshgrid(*([offsets] * p), indexing="ij")
    lattice = np.stack([g.ravel() for g in grids], axis=-1)
    if len(lattice) > max_lattice:
        picked: list[int] = []
        while len(picked) < max_lattice:
            index = 0
            for _ in range(p):
                index = index * m + int(m * rng.random())
            if index not in picked:
                picked.append(index)
        lattice = lattice[sorted(picked)]
    n_random = cfg.n_random_starts
    if n_random is None:
        n_random = 32 if p <= 4 else 256
    rows = [[TWO_PI * rng.random() for _ in range(p)] for _ in range(n_random)]
    starts = np.vstack([lattice, np.array(rows, dtype=float).reshape(n_random, p)])
    return wrap_angles(starts + params.mu.angles)


def definite_oracle(a, tol):
    """Whether every eigenvalue of ``a[k]`` exceeds ``tol[k]``, from
    ``eigvalsh``: the test the mode search made before it eliminated its
    Hessians.  Reference for ``mvmtorus.modes._definite``."""
    return np.all(np.linalg.eigvalsh(a) > tol[:, None], axis=1)


def polish_oracle(params: MvmParams, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eight rounds of pseudo-inverse Newton on every row, eigen-directions
    below 1e-8 * max(1, |H|_inf) dropped and steps capped at pi/2 per
    coordinate, keeping each row's iterate of smallest gradient norm, with
    that norm.  Reference for ``mvmtorus.modes._polish``, which retires a
    row once it stops improving at roundoff."""
    cur = points.copy()
    g = grad_many(params, cur)
    best, best_norm = cur.copy(), np.max(np.abs(g), axis=1)
    for _ in range(8):
        h = hessian_many(params, cur)
        w, v = np.linalg.eigh(h)
        habs = np.maximum(1.0, np.max(np.sum(np.abs(h), axis=-1), axis=-1))
        keep = np.abs(w) > 1e-8 * habs[:, None]
        winv = np.where(keep, 1.0 / np.where(w == 0.0, 1.0, w), 0.0)
        steps = np.einsum("nik,nk->ni", v, winv * np.einsum("nik,ni->nk", v, g))
        mags = np.max(np.abs(steps), axis=1)
        steps *= np.where(mags > np.pi / 2, np.pi / 2 / np.maximum(mags, 1e-300), 1.0)[:, None]
        cur = wrap_angles(cur - steps)
        g = grad_many(params, cur)
        norm = np.max(np.abs(g), axis=1)
        better = norm < best_norm
        best[better] = cur[better]
        best_norm[better] = norm[better]
    return best, best_norm


def halving_oracle(params: MvmParams, sign: float, cur, direction, gnorm, max_halvings=30):
    """Each row's step length at which the damped pass's merit first held
    at cur + length * direction, or 0, found by halving the step of every
    pending row together, one f or gradient call per length: for an
    extremum sign * f must rise by more than 1e-14 * max(1, |f|), for a root
    |grad|_inf must fall below ``gnorm`` by the factor 1 - 1e-4 * length.
    Reference for ``mvmtorus.modes._step_lengths``."""
    f0 = exponent_many(params, cur)
    slack = 1e-14 * np.maximum(1.0, np.abs(f0))
    step = 1.0
    found = np.zeros(len(cur))
    for _ in range(max_halvings + 1):
        rows = np.flatnonzero(found == 0.0)
        if not len(rows):
            break
        cand = cur[rows] + step * direction[rows]
        if sign:
            ok = sign * (exponent_many(params, cand) - f0[rows]) > slack[rows]
        else:
            g1 = np.max(np.abs(grad_many(params, cand)), axis=1)
            ok = g1 <= (1.0 - 1e-4 * step) * gnorm[rows]
        found[rows[ok]] = step
        step *= 0.5
    return found


def proposal_stream_oracle(params: MvmParams, spec, n: int, seed: int):
    """``(draws, trials)`` per block of a run of n sampler draws, rebuilt
    eagerly by the documented stream contract: whole blocks are drawn until
    n proposals are accepted, each from the next ``SeedSequence(seed)``
    child as ``vonmises(0, d')`` of 2048 x m (d' is d without the collapsed
    coordinate q, m is p or p - 1), then ``random(2048)``, then, for a
    collapsed spec, ``vonmises(0, hypot(kappa_q, b))`` for the accepted rows,
    b their sines times column q of Lambda, the concentrations padded with
    kappa_q to a multiple of 256, and an accepted row's theta_q is its draw
    plus ``arctan2(b, kappa_q)``; the blocks are stacked into one
    stream, its first n accepted rows, shifted by mu, are split back into
    their blocks, and the last block counts its proposals up to the one
    that gave draw n.  Reference for ``mvmtorus.sampler.sample_blocks``,
    which cuts each block as it comes."""
    from mvmtorus import sampler

    root = np.random.SeedSequence(seed)
    q = spec.collapsed
    keep = [i for i in range(params.p) if i != q]
    d = np.asarray(spec.d)[keep]
    props, hits = [], []
    while sum(map(len, hits)) < n:
        rng = np.random.Generator(np.random.PCG64(root.spawn(1)[0]))
        drawn = rng.vonmises(0.0, d, size=(2048, len(keep)))
        u = rng.random(2048)
        log_acc = sampler._exponent(params, spec, drawn)[0]
        accepted = np.flatnonzero(u <= np.exp(log_acc))
        block = np.zeros((2048, params.p))
        block[:, keep] = drawn
        if q is not None:
            # b over the whole C-ordered block, as the sampler forms it
            # (another row count or memory order may take another BLAS path
            # and round differently)
            b = (np.sin(drawn) @ params.lam[keep, q])[accepted]
            kappa_q = params.kappa[q]
            padded = np.full(-(-len(b) // 256) * 256, kappa_q)
            padded[: len(b)] = np.hypot(kappa_q, b)
            theta_q = rng.vonmises(0.0, padded)[: len(b)]
            block[accepted, q] = theta_q + np.arctan2(b, kappa_q)
        hits.append(2048 * len(props) + accepted)
        props.append(block)
    stream = np.concatenate(hits)[:n]
    draws = wrap_angles(np.vstack(props)[stream] + params.mu.angles)
    trials = int(stream[-1]) + 1
    return [
        (draws[stream // 2048 == i], min(2048, trials - 2048 * i)) for i in range(len(props))
    ]


def diagonal_oracle(matrix: np.ndarray, bound: float) -> tuple:
    """bound*1 for a positive definite ``matrix`` whose eigenvalues are at
    least ``bound`` > 0, or the Jacobi-scaled t*diag(matrix), t the smallest
    eigenvalue of diag(matrix)^-1/2 matrix diag(matrix)^-1/2 less 1e-12,
    where that lowers sum log I0(d_i) - d_i by more than 1e-9 per
    coordinate of ``matrix``."""
    from mvmtorus import sampler, spectral

    m = len(matrix)
    scaled = spectral._jacobi_scaled(matrix)
    t = -1.0 if scaled is None else spectral._eigh(scaled, vectors=False)[0] - 1e-12
    if t > 0.0:
        jacobi = t * np.diag(matrix)
        if m * sampler._log_i0e(np.asarray(bound)) - np.sum(sampler._log_i0e(jacobi)) > m * 1e-9:
            return tuple(jacobi)
    return (bound,) * m


def envelope_choice_oracle(params: MvmParams):
    """(lambda_min_bound, d, collapsed) of the default envelope by a nested
    rule: on P and then on each P_q, q = 0, 1, ..., whose smallest
    eigenvalue b less 1e-12 * min(1, its inf-norm) is positive,
    ``diagonal_oracle`` picks b*1 or the Jacobi diagonal; that pick, with
    d_q = kappa_q on P_q, replaces the one kept before it only if it
    lowers sum log I0(d_i) - d_i by more than p * 1e-9.  None when b <= 0
    on P.  Reference for ``mvmtorus.sampler.ProposalSpec.from_params``,
    which walks the scalar and Jacobi candidates of every matrix as one
    flat list; the two differ only on candidates within about 1e-9 of each
    other in log C."""
    from mvmtorus import sampler, spectral

    def floor(matrix):
        slack = 1e-12 * min(1.0, float(spectral.norm_inf(matrix)))
        return spectral._eigh(matrix, vectors=False)[0] - slack

    p_matrix = params.p_matrix()
    bound = floor(p_matrix)
    if bound <= 0.0:
        return None
    best, d, collapsed = math.inf, None, None
    for q in [None, *range(params.p if params.p >= 2 else 0)]:
        matrix = p_matrix
        if q is not None:
            matrix = sampler._collapsed_matrix(p_matrix, params.lam[:, q], q)
        low = floor(matrix)
        if low > 0.0:
            sub = diagonal_oracle(matrix, low)
            candidate = sub if q is None else sub[:q] + (params.kappa[q],) + sub[q:]
            log_sum = np.sum(sampler._log_i0e(np.asarray(candidate)))
            if best - log_sum > params.p * 1e-9:
                d, best, collapsed = candidate, log_sum, q
    return float(bound), tuple(float(x) for x in d), collapsed


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


def density_grid_oracle(params: MvmParams, dims, n: int, slice_point=None) -> np.ndarray:
    """Exponent values of a density grid from the whole lattice at once:
    every point stacked by ``meshgrid`` into one (n,)*k + (p,) array, the
    other coordinates at the wrapped ``slice_point`` (default: mu), and one
    ``exponent_many`` call.  ``dims`` is one index or a pair (a repeated
    pair is one index).  Reference for the block-by-block
    ``mvmtorus.oracle.density_grid``."""
    dims = (dims,) if np.isscalar(dims) else tuple(dict.fromkeys(dims))
    point = params.mu.angles if slice_point is None else wrap_angles(slice_point)
    nodes = 2.0 * np.pi * np.arange(n) / n
    thetas = np.empty((n,) * len(dims) + (params.p,))
    thetas[...] = point
    for axis, grid in zip(dims, np.meshgrid(*[nodes] * len(dims), indexing="ij")):
        thetas[..., axis] = grid
    return exponent_many(params, thetas)


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
