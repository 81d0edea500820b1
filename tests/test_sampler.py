import os
import threading
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    REFERENCE_COUPLING,
    RING_COUPLING,
    bessel_i0_series,
    bessel_i1_series,
    diagonal_oracle,
    envelope_choice_oracle,
    heterogeneous_params,
    proposal_stream_oracle,
    random_params,
)
from mvmtorus import (
    DimensionMismatchError,
    MvmParams,
    NotPositiveDefiniteError,
    ProposalSpec,
    TorusPoint,
    acceptance_probability,
    certify_unimodal,
    exponent_many,
    forecast_acceptance,
    high_concentration_log_partition,
    is_positive_definite,
    sample_blocks,
    sample_mvm,
    sym_eigen,
    wrap_angles,
)
from mvmtorus import sampler, spectral
from mvmtorus.sampler import (
    BLOCK_SIZE,
    ENVELOPE_SLACK,
    LOG_I0_SWITCH,
    AcceptanceStallError,
    BoundViolationError,
    _exponent,
    _log_i0e,
    log_envelope_constant,
    log_proposal_density,
    sample_proposal_batch,
)

TWO_PI = 2.0 * np.pi


def _params(kappa, lam, mu=None):
    kappa = np.asarray(kappa, dtype=float)
    mu = np.zeros(kappa.size) if mu is None else np.asarray(mu)
    return MvmParams(mu=mu, kappa=kappa, lam=lam)


def _ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    grid = np.sort(np.concatenate([a, b]))
    fa = np.searchsorted(np.sort(a), grid, side="right") / len(a)
    fb = np.searchsorted(np.sort(b), grid, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


def _certified_heterogeneous(rng, dims) -> list[MvmParams]:
    """One certified ``heterogeneous_params`` set per entry of ``dims``;
    each must pick the Jacobi envelope over the scalar one."""
    sets = []
    for p in dims:
        params = heterogeneous_params(rng, p)
        while not certify_unimodal(params).prop1_holds:
            params = heterogeneous_params(rng, p)
        spec = ProposalSpec.from_params(params)
        assert spec.d != (spec.lambda_min_bound,) * p
        sets.append(params)
    return sets


# ---------------------------------------------------------------------------
# log I0(x) - x, the one Bessel routine


def _log_i0e_at(x: float) -> float:
    return float(_log_i0e(np.asarray(x)))


def test_bessel_i0_at_zero():
    assert _log_i0e_at(0.0) == 0.0


def test_bessel_i0_matches_power_series():
    for x in (0.5, 1.0, 2.0, 5.0, 10.0):
        oracle = bessel_i0_series(x)
        assert abs(np.exp(_log_i0e_at(x) + x) - oracle) / oracle < 1e-12
    assert np.exp(_log_i0e_at(1.0) + 1.0) == pytest.approx(1.2660658777520084, rel=1e-12)


def test_bessel_i0_scaled_asymptote():
    # sqrt(2 pi x) e^-x I0(x) = 1 + 1/(8x) + O(x^-2): at x=100 the true
    # value is 1.00126, so the band must leave room for the 1/(8x) term
    x = 100.0
    scaled = np.sqrt(TWO_PI * x) * np.exp(_log_i0e_at(x))
    assert abs(scaled - 1.0) < 1.05 / (8.0 * x)
    x = 1000.0
    scaled = np.sqrt(TWO_PI * x) * np.exp(_log_i0e_at(x))
    assert 0.999 < scaled < 1.001


def test_log_bessel_i0_matches_power_series():
    # the bound is relative to log I0(x), as when log I0 itself was tested
    for x in (0.5, 5.0, 20.0, 50.0, 100.0):
        expected = np.log(bessel_i0_series(x, terms=200))
        assert abs(_log_i0e_at(x) - (expected - x)) <= 1e-13 * expected


def test_log_bessel_i0_continuous_at_series_switch():
    below = _log_i0e_at(LOG_I0_SWITCH)
    above = _log_i0e_at(np.nextafter(LOG_I0_SWITCH, np.inf))
    assert LOG_I0_SWITCH == 700.0
    # the bound is relative to log I0(700), as when log I0 itself was tested
    assert abs(above - below) < 1e-13 * (below + LOG_I0_SWITCH)
    # far past the point where I0 itself overflows, log I0(x) - x stays
    # finite and follows the leading term -log(2 pi x) / 2
    assert _log_i0e_at(1e200) == pytest.approx(-0.5 * np.log(TWO_PI * 1e200), rel=1e-15)


def _slope_oracle(x: float) -> Decimal:
    """A(x)/x = I1(x) / (x I0(x)) in 60-digit decimals: from the power
    series of I0 and I1 up to x = 30, from their large-x series (30 terms)
    from x = 700 on."""
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(x)
        if x <= 30:
            u, term, s0, s1 = x * x / 4, Decimal(1), Decimal(0), Decimal(0)
            for k in range(200):
                s0 += term
                s1 += term / (k + 1)
                term = term * u / ((k + 1) * (k + 1))
            return s1 / s0 / 2
        assert x >= 700
        t0 = t1 = s0 = s1 = Decimal(1)
        for k in range(1, 30):
            odd = (2 * k - 1) ** 2
            t0 = t0 * odd / (8 * k * x)
            t1 = t1 * (odd - 4) / (8 * k * x)
            s0 += t0
            s1 += t1
        return s1 / s0 / x


@pytest.mark.parametrize("x", [5e-324, 1e-300, 1e-3, 0.5, 3.0, 30.0, 700.0, 1e4, 1e6, 1e200])
def test_bessel_ratio_slope_is_tight_and_never_low(x):
    # the collapsed envelope subtracts (A(k)/k) lambda_q lambda_q^T from P: a
    # slope below the true one would break the bound, so it is rounded up
    got, want = Decimal(sampler._slope(x)), _slope_oracle(x)
    assert want <= got <= want * (1 + Decimal("1e-12"))


def test_bessel_functions_keep_array_shape():
    x = np.array([[0.0, 1.0, 699.0], [700.0, 701.0, 5e3]])
    logs = _log_i0e(x)
    assert logs.shape == x.shape
    assert _log_i0e(x[:, :2]).shape == (2, 2)
    for value, expected in zip(logs.ravel(), x.ravel()):
        assert value == pytest.approx(_log_i0e_at(float(expected)), rel=1e-15)


# ---------------------------------------------------------------------------
# univariate von Mises proposal


def test_vm1_mean_resultant_matches_bessel_ratio(rng):
    n = 100_000
    draws = sample_proposal_batch(ProposalSpec(lambda_min_bound=2.0, p=1), 1, n, rng)
    expected = bessel_i1_series(2.0) / bessel_i0_series(2.0)
    assert np.mean(np.cos(draws)) == pytest.approx(expected, abs=0.01)


def test_vm1_high_concentration(rng):
    kappa = 50.0
    spec = ProposalSpec(lambda_min_bound=kappa, p=1)
    draws = sample_proposal_batch(spec, 1, 200_000, rng)
    mean_cos = np.mean(np.cos(draws))
    assert mean_cos > 0.98
    assert mean_cos == pytest.approx(1.0 - 1.0 / (2.0 * kappa), abs=5e-3)


def test_numpy_vonmises_switches_to_wrapped_normal_above_1e6():
    # the proposal is exact VM(0, d_i) only up to d_i = 1e6, where numpy
    # falls back to a wrapped normal; the README states this threshold
    def draws(kappa):
        return np.random.default_rng(5).vonmises(0.0, kappa, size=1000)

    def normal(kappa):
        return np.sqrt(1.0 / kappa) * np.random.default_rng(5).standard_normal(1000)

    for kappa in (1e6 + 1.0, 3e7):
        assert np.array_equal(draws(kappa), normal(kappa))
    assert not np.allclose(draws(1e6), normal(1e6), rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("d", [1.0, 2.5, 1e7])
def test_constant_d_takes_the_scalar_path_with_the_same_stream(d):
    # _raw_proposals passes a shared d to numpy as a scalar kappa, which is
    # faster; the draws must equal the per-coordinate call from the same
    # seed, below and above numpy's wrapped-normal switch at 1e6
    spec = ProposalSpec(lambda_min_bound=d, p=3)
    got = sampler._raw_proposals(spec, 500, np.random.default_rng(9))
    want = np.random.default_rng(9).vonmises(0.0, np.asarray(spec.d), size=(500, 3))
    assert np.array_equal(got, want)


def _assert_same_blocks(got, expected, collapsed):
    """One ``(draws, trials)`` per block of the oracle's: the same trials,
    and draws equal bit for bit but in a ``collapsed`` coordinate, held
    here to 1e-13 only; both add ``numpy.arctan2(b, kappa_q)`` to its
    conditional draw, and a test below pins that column bit for bit."""
    assert len(got) == len(expected)
    for (draws, trials), (want, want_trials) in zip(got, expected):
        assert trials == want_trials
        others = np.arange(draws.shape[1]) != collapsed
        assert np.array_equal(draws[:, others], want[:, others])
        np.testing.assert_allclose(draws, want, rtol=0.0, atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 6),
    st.sampled_from([1.0, 40.0, 3e7]),
    st.booleans(),
    st.integers(1, BLOCK_SIZE + 1),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_block_follows_the_proposal_stream_contract(p, scale, shared, n, seed, collapse):
    # fresh PCG64 generators of the SeedSequence(seed) children, read by
    # the documented contract (per block, vonmises of 2048 x m, then
    # random(2048), then the conditional draws of a collapsed coordinate),
    # rebuild a run's draws and trials, for a shared or per-coordinate d,
    # with or without a collapsed coordinate, below and above numpy's
    # wrapped-normal switch at d = 1e6
    rng = np.random.default_rng(seed)
    kappa = scale * (np.ones(p) if shared else rng.uniform(1.0, 3.0, size=p))
    lam = np.triu(rng.uniform(-1.0, 1.0, size=(p, p)), k=1) * (0.5 * kappa.min() / p)
    lam = lam + lam.T
    params = MvmParams(mu=rng.uniform(0.0, 2.0 * np.pi, size=p), kappa=kappa, lam=lam)
    # P - diag(d) is diagonally dominant, so every acceptance exponent is
    # <= 0; a shared d takes numpy's scalar-kappa path
    d = 0.5 * (kappa - np.sum(np.abs(lam), axis=1))
    d = np.full(p, d.min()) if shared else d
    if collapse and p >= 2:
        # P_0 - diag(d without 0) stays diagonally dominant: the slope
        # term is at most lambda_i0 lambda_j0 / kappa_0
        d[0] = kappa[0]
        spec = ProposalSpec(min(d), p, tuple(d), 0)
    else:
        spec = ProposalSpec(lambda_min_bound=min(d), p=p, d=tuple(d))
    got = list(sampler._blocks(params, spec, n, seed, 1))
    _assert_same_blocks(got, proposal_stream_oracle(params, spec, n, seed), spec.collapsed)


# ---------------------------------------------------------------------------
# von Mises proposal


def test_proposal_uniform_at_zero_concentration(rng):
    spec = ProposalSpec(lambda_min_bound=0.0, p=2)
    draws = sample_proposal_batch(spec, 2, 50_000, rng)
    n = draws.size
    flat = draws.ravel()
    for mult in (1.0, 2.0):
        assert abs(np.mean(np.cos(mult * flat))) < 4.0 / np.sqrt(n)
        assert abs(np.mean(np.sin(mult * flat))) < 4.0 / np.sqrt(n)


def test_proposal_histogram_matches_density():
    n = 100_000
    spec = ProposalSpec(lambda_min_bound=2.0, p=1)
    draws = sample_proposal_batch(spec, 1, n, np.random.default_rng(0)).ravel()
    bins = 64
    edges = TWO_PI * np.arange(bins + 1) / bins
    counts, _ = np.histogram(draws, bins=edges)
    # bin probabilities of exp(d cos t)/(2 pi I0(d)), d = 2, by fine trapezoid
    fine = 32
    for b in range(bins):
        grid = np.linspace(edges[b], edges[b + 1], fine + 1)
        dens = np.exp(2.0 * np.cos(grid)) / (TWO_PI * bessel_i0_series(2.0))
        q = np.trapezoid(dens, grid)
        se = np.sqrt(n * q * (1.0 - q))
        assert abs(counts[b] - n * q) <= 3.0 * se


def test_proposal_halves_mass_on_each_semicircle(rng):
    # VM(0, d) is symmetric about 0, so [0, pi) and [pi, 2 pi) each hold
    # half the mass, while the half circle around the mode holds the
    # share of exp(d cos t) there (there is no copy at the antipode)
    n = 100_000
    spec = ProposalSpec(lambda_min_bound=4.0, p=1)
    draws = sample_proposal_batch(spec, 1, n, rng).ravel()
    frac = np.mean(draws < np.pi)
    assert abs(frac - 0.5) < 4.0 / np.sqrt(n)
    grid = np.linspace(-0.5 * np.pi, 0.5 * np.pi, 4097)
    dens = np.exp(4.0 * np.cos(grid)) / (TWO_PI * bessel_i0_series(4.0))
    q = np.trapezoid(dens, grid)
    assert q > 0.9
    near_mode = np.mean(np.cos(draws) > 0.0)
    assert abs(near_mode - q) < 4.0 * np.sqrt(q * (1.0 - q) / n)


def test_proposal_single_draw(rng):
    draw = sample_proposal_batch(ProposalSpec(lambda_min_bound=2.0, p=3), 3, 1, rng)
    assert draw.shape == (1, 3)
    assert np.all((draw >= 0.0) & (draw < TWO_PI))
    with pytest.raises(ValueError, match="p = 2 does not match the proposal's p = 3"):
        sample_proposal_batch(ProposalSpec(lambda_min_bound=2.0, p=3), 2, 5, rng)


def test_proposal_log_density_normalizes():
    params = _params([5.0], np.zeros((1, 1)))
    spec = ProposalSpec(lambda_min_bound=4.0, p=1)
    n = 4096
    grid = TWO_PI * np.arange(n) / n
    total = np.sum(np.exp(log_proposal_density(params, spec, grid[:, None]))) * TWO_PI / n
    assert total == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# acceptance probability and envelope


def test_acceptance_probability_is_one_at_mean():
    params = _params([3.0, 3.0, 3.0], REFERENCE_COUPLING, mu=[0.5, 1.5, 2.5])
    spec = ProposalSpec.from_params(params)
    assert acceptance_probability(params, spec, params.mu) == 1.0


def test_acceptance_exponent_nonpositive_univariate():
    kappa = 2.5
    params = _params([kappa], np.zeros((1, 1)))
    spec = ProposalSpec(lambda_min_bound=kappa, p=1)
    deltas = np.linspace(0.0, TWO_PI, 10_001)
    exponents = kappa * (np.cos(deltas) - 1.0) + 0.5 * kappa * np.sin(deltas) ** 2
    assert np.max(exponents) <= 1e-15
    for d in (0.0, 0.3, np.pi / 2, np.pi, 4.0):
        prob = acceptance_probability(params, spec, TorusPoint(np.array([d])))
        assert 0.0 < prob <= 1.0


def test_acceptance_probability_never_exceeds_one(rng):
    params = _params([10.0, 10.0, 10.0], REFERENCE_COUPLING / 2.0)
    spec = ProposalSpec.from_params(params)
    thetas = rng.uniform(0.0, TWO_PI, size=(1_000_000, 3))
    log_acc = _exponent(params, spec, (thetas - params.mu.angles)[:, spec._conditional[0]])[0]
    assert np.max(log_acc) <= 1e-12
    for row in thetas[:100]:
        assert acceptance_probability(params, spec, TorusPoint(row)) <= 1.0


def test_acceptance_probability_flags_invalid_bound():
    params = _params([3.0, 3.0, 3.0], REFERENCE_COUPLING)
    bad = ProposalSpec(lambda_min_bound=50.0, p=3)  # far above lambda_min = 1
    with pytest.raises(BoundViolationError):
        acceptance_probability(params, bad, TorusPoint(np.array([1.0, 0.1, 6.0])))


def test_envelope_bounds_exponent_everywhere(rng):
    # ten certified parameter sets plus six with a kappa spread >= 10x (two
    # each at p = 2, 3, 4, where the Jacobi envelope wins), 1e5 points each
    sets = []
    while len(sets) < 10:
        p = int(rng.integers(1, 4))
        params = random_params(rng, p, kappa_range=(1.0, 6.0), coupling_scale=1.0)
        if certify_unimodal(params).prop1_holds:
            sets.append(params)
    sets += _certified_heterogeneous(np.random.default_rng(808), (2, 2, 3, 3, 4, 4))
    for params in sets:
        spec = ProposalSpec.from_params(params)
        log_c = log_envelope_constant(params, spec)
        thetas = rng.uniform(0.0, TWO_PI, size=(100_000, params.p))
        f = exponent_many(params, thetas)
        log_g = log_proposal_density(params, spec, thetas - params.mu.angles)
        assert np.max(f - (log_c + log_g)) <= 1e-10


# ---------------------------------------------------------------------------
# the sampler itself


def test_sampler_univariate_matches_vm1():
    params = _params([2.0], np.zeros((1, 1)))
    batch = sample_mvm(params, 10_000, seed=11)
    reference = wrap_angles(np.random.default_rng(999).vonmises(0.0, 2.0, size=10_000))
    assert _ks_distance(batch.draws.ravel(), reference) < 0.02


def test_sampler_marginals_match_quadrature():
    from mvmtorus.oracle import marginal_density

    params = _params([5.0, 5.0], np.array([[0.0, 2.0], [2.0, 0.0]]))
    n = 20_000
    batch = sample_mvm(params, n, seed=0)
    bins = 64
    edges = TWO_PI * np.arange(bins + 1) / bins
    grids = np.linspace(edges[:-1], edges[1:], 17, axis=1)
    for dim in (0, 1):
        counts, _ = np.histogram(batch.draws[:, dim], bins=edges)
        q = np.trapezoid(marginal_density(params, dim, grids, 128), grids, axis=1)
        # tail bins expecting under 5 draws are pooled, as in C6b: a
        # binomial SE means nothing for a bin expecting 0.08 draws
        sparse = n * q < 5.0
        counts = np.append(counts[~sparse], counts[sparse].sum())
        q = np.append(q[~sparse], q[sparse].sum())
        se = np.sqrt(n * q * (1.0 - q))
        assert np.all(np.abs(counts - n * q) <= 3.0 * se)


def test_sampler_acceptance_matches_exact_rate():
    params = _params([3.0, 3.0, 3.0], REFERENCE_COUPLING)
    batch = sample_mvm(params, 20_000, seed=3)
    rate = forecast_acceptance(params).exact_rate
    se = np.sqrt(rate * (1.0 - rate) / batch.trials)
    assert abs(batch.empirical_acceptance - rate) <= 3.0 * se


def test_sampler_requires_definite_p():
    params = _params([0.0, 0.0, 0.0], RING_COUPLING)
    with pytest.raises(NotPositiveDefiniteError, match="certify"):
        sample_mvm(params, 10, seed=0)


def test_sampler_output_wrapped_and_shifted(rng):
    params = _params([8.0, 8.0], np.zeros((2, 2)), mu=[1.0, 5.0])
    batch = sample_mvm(params, 5_000, seed=21)
    assert np.all((batch.draws >= 0.0) & (batch.draws < TWO_PI))
    # concentrated near mu: circular means land close to it
    for dim, target in enumerate(params.mu.angles):
        mean = np.angle(np.mean(np.exp(1j * batch.draws[:, dim]))) % TWO_PI
        assert min(abs(mean - target), TWO_PI - abs(mean - target)) < 0.05


def test_sampler_deterministic_replay():
    params = _params([5.0, 5.0], np.array([[0.0, 2.0], [2.0, 0.0]]))
    a = sample_mvm(params, 9_999, seed=77)
    b = sample_mvm(params, 9_999, seed=77)
    assert np.array_equal(a.draws, b.draws)
    assert a.trials == b.trials
    assert a.seed == 77


def test_sampler_workers_do_not_change_output():
    # both envelope kinds: the default collapses a coordinate, half of
    # lambda_min(P) = 3 forces the product envelope
    params = _params([5.0, 5.0], np.array([[0.0, 2.0], [2.0, 0.0]]))
    for lambda_min, collapsed in [(None, 0), (1.5, None)]:
        assert ProposalSpec.from_params(params, lambda_min).collapsed == collapsed
        a = sample_mvm(params, 12_345, lambda_min, seed=13, workers=1)
        b = sample_mvm(params, 12_345, lambda_min, seed=13, workers=4)
        assert np.array_equal(a.draws, b.draws)
        assert a.trials == b.trials


_REFERENCE = _params([3.0, 3.0, 3.0], REFERENCE_COUPLING, mu=[0.5, 4.0, 2.0])
#: a heterogeneous p = 4 set like the sample_rare benchmark's: kappa =
#: (2, 8, 8, 30), |lambda_ij| <= 0.5, so the Jacobi envelope's per-coordinate
#: d takes numpy's array-kappa path; acceptance about 0.91
_HETEROGENEOUS = _params(
    [2.0, 8.0, 8.0, 30.0],
    np.array(
        [
            [0.0, 0.4, -0.3, 0.2],
            [0.4, 0.0, 0.5, -0.1],
            [-0.3, 0.5, 0.0, 0.3],
            [0.2, -0.1, 0.3, 0.0],
        ]
    ),
    mu=[0.3, 1.1, 2.5, 5.0],
)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**70),
    st.one_of(
        st.integers(1, 3 * BLOCK_SIZE + 1),
        st.sampled_from([BLOCK_SIZE, 2 * BLOCK_SIZE, 3 * BLOCK_SIZE]),
    ),
    st.sampled_from([1, 2]),
)
def test_sample_blocks_match_an_eagerly_spawned_plan(seed, n, workers):
    spec = ProposalSpec.from_params(_REFERENCE)
    got = list(sample_blocks(_REFERENCE, n, seed=seed, workers=workers))
    _assert_same_blocks(got, proposal_stream_oracle(_REFERENCE, spec, n, seed), spec.collapsed)


def _counting_proposals(requested: list):
    """``sampler._raw_proposals`` that records the rows it draws."""
    real = sampler._raw_proposals

    def counted(spec, m, rng):
        requested.append(m)
        return real(spec, m, rng)

    return counted


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 2 * BLOCK_SIZE),
    st.integers(1, 2 * BLOCK_SIZE),
    st.sampled_from([1, 2]),
)
def test_a_run_is_the_start_of_any_longer_run(seed, a, b, workers):
    # the draws of n are the first n rows of a run of n' > n, and a run
    # draws its blocks up to the one that holds draw n, plus at most one
    # that a second worker started before the run ended
    n, longer = min(a, b), max(a, b) + 1
    requested = []
    with mock.patch.object(sampler, "_raw_proposals", _counting_proposals(requested)):
        batch = sample_mvm(_HETEROGENEOUS, n, seed=seed, workers=workers)
    whole = -(-batch.trials // BLOCK_SIZE) * BLOCK_SIZE
    assert whole <= sum(requested) <= whole + (workers - 1) * BLOCK_SIZE
    longer_batch = sample_mvm(_HETEROGENEOUS, longer, seed=seed, workers=workers)
    assert np.array_equal(batch.draws, longer_batch.draws[:n])
    assert batch.trials <= longer_batch.trials


def test_first_block_memory_is_flat_in_n():
    # each block works out its generator when it starts, so n sets
    # nothing ahead of the draws; listing every block and spawning every
    # generator up front traced ~95 MB before the first draw at n = 1e9
    tracemalloc.start()
    try:
        blocks = sample_blocks(_REFERENCE, 10**9, seed=3)
        draws, trials = next(blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    blocks.close()
    assert trials == BLOCK_SIZE
    assert np.array_equal(draws, sample_mvm(_REFERENCE, len(draws), seed=3).draws)
    assert peak < 8_000_000


@pytest.mark.parametrize("workers", [1, 2])
def test_sample_mvm_equals_the_stacked_blocks(workers):
    n = 2 * BLOCK_SIZE + 7
    batch = sample_mvm(_REFERENCE, n, seed=8, workers=workers)
    blocks = list(sample_blocks(_REFERENCE, n, seed=8))
    assert np.array_equal(batch.draws, np.vstack([draws for draws, _ in blocks]))
    assert batch.trials == sum(trials for _, trials in blocks)


def test_sample_blocks_yield_one_item_per_block():
    # at acceptance 0.91 a block holds about 1870 draws, and comes whole:
    # BLOCK_SIZE trials each, but the last, which counts up to draw n
    n = 3 * BLOCK_SIZE + 5
    blocks = list(sample_blocks(_HETEROGENEOUS, n, seed=4))
    trials = [block_trials for _, block_trials in blocks]
    assert len(blocks) == -(-sum(trials) // BLOCK_SIZE)
    assert trials[:-1] == [BLOCK_SIZE] * (len(blocks) - 1) and 0 < trials[-1] <= BLOCK_SIZE
    assert sum(trials) == sample_mvm(_HETEROGENEOUS, n, seed=4).trials
    assert all(len(draws) > 1024 for draws, _ in blocks[:-1])
    assert sum(len(draws) for draws, _ in blocks) == n


@pytest.mark.parametrize("workers", [1, 3])
def test_sample_blocks_keep_at_most_workers_in_flight(monkeypatch, workers):
    params = _params([5.0, 5.0], np.array([[0.0, 2.0], [2.0, 0.0]]))
    n = 10 * BLOCK_SIZE + 5
    expected = list(sample_blocks(params, n, seed=13))
    started = []
    real = sampler._sample_block

    def counted(params, spec, seed_seq):
        started.append(seed_seq.spawn_key)
        return real(params, spec, seed_seq)

    monkeypatch.setattr(sampler, "_sample_block", counted)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        sample_blocks(params, n, workers=0)  # checked before any iteration
    blocks = sample_blocks(params, n, seed=13, workers=workers)
    assert started == []
    for k in range(1, 4):
        draws, trials = next(blocks)
        assert np.array_equal(draws, expected[k - 1][0])
        assert trials == expected[k - 1][1]
        # the next block is submitted only once one has been consumed
        assert len(started) <= workers + k - 1
    blocks.close()
    # closing cancels the blocks not yet started
    assert len(started) <= workers + 2


def test_sample_blocks_run_at_most_cpu_count_threads(monkeypatch):
    # --shards above the CPU count must not start (or hold the blocks of)
    # more threads than there are CPUs
    params = _params([5.0, 5.0], np.zeros((2, 2)))
    threads = set()
    real = sampler._sample_block

    def recorded(*args):
        threads.add(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(sampler, "_sample_block", recorded)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    batch = sample_mvm(params, 6 * BLOCK_SIZE, seed=5, workers=6)
    assert batch.n == 6 * BLOCK_SIZE
    assert 1 <= len(threads) <= 2


def test_sampler_rejects_fewer_than_one_worker():
    params = _params([5.0, 5.0], np.array([[0.0, 2.0], [2.0, 0.0]]))
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            sample_mvm(params, 10, seed=0, workers=workers)


def test_sampler_rejects_a_negative_seed():
    params = _params([5.0, 5.0], np.array([[0.0, 2.0], [2.0, 0.0]]))
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        sample_blocks(params, 10, seed=-1)  # checked before any iteration


def test_run_counts_trials_up_to_the_proposal_of_draw_n(monkeypatch):
    # block 0 accepts 3 proposals, block 1 none, block 2 the 7 missing
    # ones and two more, the 7th at index 600: the empty block counts all
    # its proposals, and the last stops at the one that gave draw 10
    accepted = iter([[5, 100, 200], [], [0, 10, 20, 30, 40, 50, 600, 700, 2000]])

    def scripted(params, spec, t):
        log_acc = np.full(len(t), -np.inf)
        log_acc[next(accepted)] = 0.0
        # b_q = 0 and r_q = kappa_q for the collapsed coordinate
        return log_acc, np.zeros(len(t)), np.full(len(t), spec.d[spec.collapsed])

    assert ProposalSpec.from_params(_REFERENCE).collapsed is not None
    monkeypatch.setattr(sampler, "_exponent", scripted)
    blocks = list(sample_blocks(_REFERENCE, 10, seed=0))
    assert [draws.shape for draws, _ in blocks] == [(3, 3), (0, 3), (7, 3)]
    assert [trials for _, trials in blocks] == [BLOCK_SIZE, BLOCK_SIZE, 600 + 1]


@pytest.mark.parametrize("workers", [1, 2])
def test_run_draws_at_most_one_block_past_the_proposal_of_draw_n(monkeypatch, workers):
    # at acceptance about 0.8 a run needs about 1.25 proposals per draw; a
    # serial run draws exactly the blocks up to the one that holds draw n,
    # and with two workers at most one more was started when it ended
    requested = []
    monkeypatch.setattr(sampler, "_raw_proposals", _counting_proposals(requested))
    for seed in range(3):
        requested.clear()
        batch = sample_mvm(_HETEROGENEOUS, 4096, seed=seed, workers=workers)
        assert batch.empirical_acceptance > 0.7
        whole = -(-batch.trials // BLOCK_SIZE) * BLOCK_SIZE
        assert whole <= sum(requested) <= whole + (workers - 1) * BLOCK_SIZE


@pytest.mark.parametrize(
    "params, trials, head, last",
    [
        pytest.param(
            _REFERENCE,
            13055,
            [
                [6.2562389354776595, 3.940595075067571, 2.0777371617493476],
                [5.754718900018485, 4.082304226176927, 0.6919491370892352],
                [0.32152802972985217, 4.758041744710281, 2.2326831216746608],
                [0.9684108711746893, 4.1286451531747135, 3.0888071788537204],
                [0.1356498766149281, 4.3828333802257715, 2.121182519085905],
            ],
            [0.45803774866800673, 4.658472885036641, 2.712794823689239],
            id="reference",
        ),
        pytest.param(
            _HETEROGENEOUS,
            5496,
            [
                [1.5804427977668116, 2.115162193479095, 2.5992579096779824, 5.018010605951185],
                [0.11357560841528141, 1.614335902412273, 1.8100181453214326, 4.709725562831488],
                [5.730675490825262, 1.1141229873236034, 2.8663803730728543, 5.004225463709915],
                [5.736846981171882, 1.6167470054363617, 2.1167238783388407, 5.142275267623534],
                [0.42257903047604256, 0.9666272939814893, 2.963869442476448, 5.241928166221761],
            ],
            [5.924587558567922, 1.3623465209577499, 1.988820167671212, 5.127873058609181],
            id="heterogeneous_p4",
        ),
    ],
)
def test_fixed_seed_stream_is_pinned(params, trials, head, last):
    # the seed-7 stream of 5000 draws, pinned across versions: a change to
    # the block layout, the envelope or the generator moves these numbers,
    # and must update them and say why.  Re-pinned when 4096-draw blocks
    # of 2048-proposal chunks became 2048-proposal blocks (trials 25113 and
    # 6257 before, the head unchanged), and again when the default
    # envelope began to draw one coordinate from its conditional: each
    # block now draws 2048 x (p - 1) proposals and one conditional draw per
    # accepted row, so every draw moved, and trials fell from 25537 to
    # 13055 (ref, exact rate 0.199 -> 0.382) and from 6272 to 5496.  A
    # tolerance, not a hash: libm and SIMD last bits can differ between
    # hosts
    batch = sample_mvm(params, 5000, seed=7)
    assert ProposalSpec.from_params(params).collapsed == 0
    assert batch.trials == trials
    np.testing.assert_allclose(batch.draws[:5], head, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(batch.draws[-1], last, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "params", [_REFERENCE, _HETEROGENEOUS], ids=["reference", "heterogeneous_p4"]
)
def test_collapsed_block_is_its_conditional_draw_plus_the_arctan2_mean(params):
    # the first seed-7 block rebuilt by hand from its generator: 2048 x
    # (p - 1) proposals, 2048 uniforms, then one VM(0, r) call for the
    # accepted rows, padded with kappa_q to a multiple of 256; theta_q is
    # that draw plus numpy.arctan2(b, kappa_q), bit for bit
    spec = ProposalSpec.from_params(params)
    q = spec.collapsed
    keep = [i for i in range(params.p) if i != q]
    kappa_q = params.kappa[q]
    seed_seq = np.random.SeedSequence(7).spawn(1)[0]
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    props = rng.vonmises(0.0, np.asarray(spec.d)[keep], size=(BLOCK_SIZE, params.p - 1))
    u = rng.random(BLOCK_SIZE)
    hits = np.flatnonzero(u <= np.exp(_exponent(params, spec, props)[0]))
    b = (np.sin(props) @ params.lam[keep, q])[hits]
    padded = np.full(-(-len(hits) // 256) * 256, kappa_q)
    padded[: len(hits)] = np.hypot(kappa_q, b)
    draw = rng.vonmises(0.0, padded)[: len(hits)]
    rows, got_hits = sampler._sample_block(params, spec, seed_seq)
    assert len(hits) > 256
    assert np.array_equal(got_hits, hits)
    assert np.array_equal(rows, np.insert(props[hits], q, draw + np.arctan2(b, kappa_q), axis=1))


def test_sampler_accounting_identity():
    params = _params([5.0, 5.0], np.array([[0.0, 2.0], [2.0, 0.0]]))
    batch = sample_mvm(params, 4_321, seed=2)
    assert batch.n == 4_321
    assert batch.empirical_acceptance == batch.n / batch.trials


def test_shrinking_bound_preserves_law(rng):
    params = _params([5.0, 5.0], np.array([[0.0, 2.0], [2.0, 0.0]]))
    half = ProposalSpec.from_params(params).lambda_min_bound / 2.0
    n = 20_000
    a = sample_mvm(params, n, seed=31)
    b = sample_mvm(params, n, lambda_min=half, seed=31)
    # same law: KS distance within Monte-Carlo noise at alpha ~ 1e-3
    threshold = 1.95 * np.sqrt(2.0 / n)
    for dim in (0, 1):
        assert _ks_distance(a.draws[:, dim], b.draws[:, dim]) < threshold
    # only the efficiency drops
    assert b.empirical_acceptance < a.empirical_acceptance


def test_sampler_stall_guard_trips():
    params = _params([1e16], np.zeros((1, 1)))
    with pytest.raises(AcceptanceStallError):
        sample_mvm(params, 1, lambda_min=1e-12, seed=0)


@pytest.mark.parametrize("n", [1, 10**6])
def test_stall_budget_does_not_grow_with_n(monkeypatch, n):
    # the guard weighs the run's trials against its draws, so an envelope
    # that accepts nothing stops within STALL_FACTOR + BLOCK_SIZE proposals
    # at any n; a budget of STALL_FACTOR proposals per draw of each
    # 4096-draw block took 4.1e6 at n = 10**6
    monkeypatch.setattr(sampler, "STALL_FACTOR", 1e3)
    requested = []
    monkeypatch.setattr(sampler, "_raw_proposals", _counting_proposals(requested))
    params = _params([1e16], np.zeros((1, 1)))
    with pytest.raises(AcceptanceStallError, match=f"produced only 0/{n} draws"):
        sample_mvm(params, n, lambda_min=1e-12, seed=0)
    assert 0 < sum(requested) <= sampler.STALL_FACTOR + BLOCK_SIZE


# ---------------------------------------------------------------------------
# proposal spec and forecast


def test_proposal_spec_default_bound():
    params = _params([3.0, 3.0, 3.0], REFERENCE_COUPLING)
    spec = ProposalSpec.from_params(params)
    assert spec.lambda_min_bound == pytest.approx(1.0, abs=1e-9)
    assert spec.concentration == spec.lambda_min_bound


def test_proposal_spec_rejects_bad_bounds():
    params = _params([3.0, 3.0, 3.0], REFERENCE_COUPLING)
    with pytest.raises(ValueError):
        ProposalSpec.from_params(params, lambda_min=2.0)  # above lambda_min = 1
    with pytest.raises(ValueError):
        ProposalSpec.from_params(params, lambda_min=0.0)
    with pytest.raises(NotPositiveDefiniteError):
        ProposalSpec.from_params(_params([0.0, 0.0, 0.0], RING_COUPLING))


def test_forecast_isotropic_rate_is_one():
    # Lambda = 0: the target is itself a product of von Mises densities,
    # d = kappa up to the slack, and nearly every proposal is accepted
    params = _params([5.0, 5.0, 5.0], np.zeros((3, 3)))
    forecast = forecast_acceptance(params)
    assert forecast.asymptotic_rate == pytest.approx(1.0, rel=1e-9)
    assert forecast.exact_rate == pytest.approx(1.0, rel=1e-9)
    batch = sample_mvm(params, 10_000, seed=4)
    assert batch.empirical_acceptance == pytest.approx(1.0, abs=1e-9)


def test_forecast_reference_rate():
    # every coordinate of ref ties; the first, q = 0, is drawn from its
    # conditional, which nearly doubles the exact rate of the paper's
    # scalar envelope (0.199)
    params = _params([3.0, 3.0, 3.0], REFERENCE_COUPLING)
    forecast = forecast_acceptance(params)
    assert forecast.asymptotic_rate == pytest.approx(np.sqrt(3.0 / 7.0), abs=1e-12)
    assert forecast.exact_rate >= 0.38
    bound = forecast.lambda_min_bound
    assert forecast_acceptance(params, bound).exact_rate == pytest.approx(0.199, abs=5e-4)
    # the forecast reports the envelope it was made for
    spec = ProposalSpec.from_params(params)
    assert (forecast.lambda_min_bound, forecast.proposal_d, forecast.collapsed) == (
        spec.lambda_min_bound, spec.d, spec.collapsed
    )
    assert spec.collapsed == 0


def test_forecast_exact_approaches_asymptote():
    params = _params([50.0, 50.0, 50.0], REFERENCE_COUPLING)
    forecast = forecast_acceptance(params)
    assert forecast.exact_rate is not None
    assert abs(forecast.exact_rate / forecast.asymptotic_rate - 1.0) < 0.05


def test_forecast_rejects_an_exact_rate_above_one():
    # the 128-node grid aliases a peak of width 1e-2: Z comes out ~4x too big
    params = _params([1e4, 1e4], np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="n_per_dim"):
        forecast_acceptance(params)
    fine = forecast_acceptance(params, n_per_dim=4096)
    assert 0.999 < fine.exact_rate <= 1.0


def test_tiny_kappa_envelope_keeps_a_positive_bound():
    # the slack scales with min(1, |P|_inf): at kappa = 1e-300 an absolute
    # 1e-12 would leave no bound; at |P|_inf >= 1 it is the plain 1e-12
    params = _params([1e-300, 1e-300], np.zeros((2, 2)))
    spec = ProposalSpec.from_params(params)
    assert spec.d == pytest.approx((1e-300 * (1.0 - ENVELOPE_SLACK),) * 2, rel=1e-15)
    forecast = forecast_acceptance(params)
    assert forecast.asymptotic_rate == pytest.approx(1.0, abs=1e-9)
    assert forecast.exact_rate == pytest.approx(1.0, abs=1e-9)
    reference = _params([3.0, 3.0, 3.0], REFERENCE_COUPLING)
    smallest = sym_eigen(reference.p_matrix()).values[0]
    assert ProposalSpec.from_params(reference).lambda_min_bound == smallest - ENVELOPE_SLACK


def test_forecast_rate_bounded_by_isotropic_case(rng):
    found = 0
    while found < 20:
        p = int(rng.integers(1, 4))
        params = random_params(rng, p, kappa_range=(1.0, 6.0), coupling_scale=1.0)
        try:
            forecast = forecast_acceptance(params)
        except NotPositiveDefiniteError:
            continue
        found += 1
        # prod(d) <= |P| uncollapsed; collapsed, prod(d') <= |P_q| and
        # |P| = kappa_q |S| with S the Schur complement of kappa_q, so the
        # asymptote is at most sqrt(|P_q| / |S|) >= 1, which tends to 1 as
        # the concentration grows; the exact rate never exceeds 1
        spec = ProposalSpec.from_params(params)
        ceiling = 1.0
        if spec.collapsed is not None:
            q = spec.collapsed
            p_q = sampler._collapsed_matrix(params.p_matrix(), params.lam[:, q], q)
            ceiling = np.sqrt(params.kappa[q] * np.linalg.det(p_q) / np.linalg.det(params.p_matrix()))
        assert 0.0 < forecast.asymptotic_rate <= ceiling * (1.0 + 1e-12)
        assert 0.0 < forecast.exact_rate <= 1.0 + sampler.EXACT_RATE_TOL


# ---------------------------------------------------------------------------
# per-coordinate (Jacobi-scaled) envelope

_HETERO_LAM = np.array(
    [
        [0.0, 0.3, -0.2, 0.4],
        [0.3, 0.0, 0.1, -0.3],
        [-0.2, 0.1, 0.0, 0.2],
        [0.4, -0.3, 0.2, 0.0],
    ]
)


def test_reference_spec_keeps_scalar_envelope():
    # ref's P_q has a constant diagonal, so its proposed coordinates keep
    # the scalar lambda_min(P_q) = 1 = lambda_min(P) (up to the
    # eigen-solver's rounding), beside d_q = kappa_q
    params = _params([3.0, 3.0, 3.0], REFERENCE_COUPLING)
    spec = ProposalSpec.from_params(params)
    b = spec.lambda_min_bound
    assert spec.d[0] == 3.0 and spec.d[1] == spec.d[2] == pytest.approx(b, abs=1e-14)
    assert spec == ProposalSpec(b, 3, (3.0,) + spec.d[1:], 0)


def test_jacobi_envelope_chosen_for_heterogeneous_kappa():
    # the kappa = 2 coordinate is drawn from its conditional (d_0 = kappa_0),
    # and the other three take the Jacobi-scaled d' = t * diag(P_0)
    params = _params([2.0, 8.0, 8.0, 30.0], _HETERO_LAM)
    spec = ProposalSpec.from_params(params)
    assert (spec.collapsed, spec.d[0]) == (0, 2.0)
    p_q = sampler._collapsed_matrix(params.p_matrix(), _HETERO_LAM[:, 0], 0)
    diag = np.diag(p_q)
    ratio = np.asarray(spec.d[1:]) / diag
    assert np.allclose(ratio, ratio[0], rtol=1e-14)  # d' = t * diag(P_0)
    scaled = p_q / np.sqrt(np.outer(diag, diag))
    assert ratio[0] == pytest.approx(sym_eigen(scaled).values[0], abs=1e-11)
    assert np.sum(np.log(spec.d[1:])) > 3 * np.log(spec.lambda_min_bound) + 1.0
    assert forecast_acceptance(params).asymptotic_rate > 10.0 * (
        forecast_acceptance(params, spec.lambda_min_bound).asymptotic_rate
    )


def test_lambda_min_override_forces_scalar_envelope():
    params = _params([2.0, 8.0, 8.0, 30.0], _HETERO_LAM)
    spec = ProposalSpec.from_params(params, lambda_min=1.5)
    assert spec.lambda_min_bound == 1.5
    assert spec.d == (1.5,) * 4


def test_envelope_quantities_use_vector_d():
    # the one exponent on both envelope kinds: the collapsed default, the
    # scalar product envelope that lambda_min forces, and the Jacobi product
    # envelope that Lambda = 0 keeps on a tie
    for lam, lambda_min, collapsed in [
        (_HETERO_LAM, None, 0),
        (_HETERO_LAM, 1.5, None),
        (np.zeros((4, 4)), None, None),
    ]:
        params = _params([2.0, 8.0, 8.0, 30.0], lam)
        spec = ProposalSpec.from_params(params, lambda_min)
        assert spec.collapsed == collapsed
        d = np.asarray(spec.d)
        expected = (
            np.sum(params.kappa)
            - np.sum(d)
            + sum(np.log(TWO_PI * bessel_i0_series(x, terms=200)) for x in d)
        )
        assert log_envelope_constant(params, spec) == pytest.approx(expected, abs=1e-12)
        det = np.prod(sym_eigen(params.p_matrix()).values)
        assert forecast_acceptance(params, lambda_min).asymptotic_rate == pytest.approx(
            np.sqrt(np.prod(d) / det), rel=1e-12
        )
        # log acceptance = f - log C - log g at arbitrary points
        thetas = np.random.default_rng(3).uniform(0.0, TWO_PI, size=(64, 4))
        delta = thetas - params.mu.angles
        direct = exponent_many(params, thetas) - log_envelope_constant(params, spec)
        direct -= log_proposal_density(params, spec, delta)
        log_acc = _exponent(params, spec, delta[:, spec._conditional[0]])[0]
        assert log_acc == pytest.approx(direct, abs=1e-10)
        assert np.max(log_acc) <= 1e-12


def test_spec_d_must_match_p_and_be_nonnegative():
    with pytest.raises(ValueError, match="d must hold 3"):
        ProposalSpec(lambda_min_bound=1.0, p=3, d=(1.0, 1.0))
    with pytest.raises(ValueError, match="d must hold 2"):
        ProposalSpec(lambda_min_bound=1.0, p=2, d=(1.0, -0.5))
    # a collapsed q needs an integer index in range and d_q > 0
    for collapsed, d in [(1.5, None), (3, None), (-1, None), (0, (0.0, 1.0, 1.0))]:
        with pytest.raises(ValueError, match="collapsed = "):
            ProposalSpec(1.0, 3, d, collapsed)
    with pytest.raises(ValueError, match="collapsed = "):
        ProposalSpec(1.0, 1, None, 0)  # p = 1 leaves nothing to propose
    assert ProposalSpec(1.0, 3, None, np.int64(1)).collapsed == 1


_SPEC_CALLS = {
    "log_proposal_density": lambda params, spec: log_proposal_density(params, spec, np.zeros(3)),
    "log_envelope_constant": log_envelope_constant,
    "acceptance_probability": lambda params, spec: acceptance_probability(
        params, spec, params.mu
    ),
    "_blocks": lambda params, spec: sampler._blocks(params, spec, 10, 0, 1),
}


@pytest.mark.parametrize("call", list(_SPEC_CALLS.values()), ids=list(_SPEC_CALLS))
def test_a_spec_of_another_p_is_a_dimension_mismatch(call):
    # a p = 3 spec read against p = 4 parameters gave a number (log C) or
    # a numpy broadcast error; each function that takes both checks p
    params = _HETEROGENEOUS
    for spec in (ProposalSpec(1.0, 3), ProposalSpec(1.0, 5, None, 0)):
        with pytest.raises(DimensionMismatchError, match=r"the spec has p = \d, expected p=4"):
            call(params, spec)


@pytest.mark.parametrize(
    "kappa, lam, d",
    [
        ([5.0, 5.0, 5.0], np.zeros((3, 3)), (5.0 - 1e-12,) * 3),
        ([1.0, 5.0], np.zeros((2, 2)), (1.0 - 1e-12, 5.0 - 5e-12)),
        ([2.0], np.zeros((1, 1)), (2.0 - 1e-12,)),
        (
            [1e200, 1.0, 1.0],
            np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            (1e200 * (1.0 - 1e-12), 1.0 - 1e-12, 1.0 - 1e-12),
        ),
    ],
    ids=["iso_555", "iso_15", "p1", "k1e200"],
)
def test_ties_keep_the_product_envelope(kappa, lam, d):
    # P is tried first, and a P_q replaces it only if it lowers log C by
    # more than TIE_LOG_GAIN per coordinate: decoupled and p = 1 sets, and
    # the 1e200 set, whose collapsed candidates gain nothing, keep the
    # product envelope on P
    params = _params(kappa, lam)
    spec = ProposalSpec.from_params(params)
    assert spec.collapsed is None
    assert spec.d == diagonal_oracle(params.p_matrix(), spec.lambda_min_bound)
    assert spec.d == pytest.approx(d, rel=1e-14)


def _assert_nested_choice(params):
    """``from_params`` gives the bound, the d (bit for bit) and the
    collapsed coordinate of ``envelope_choice_oracle``, or the same
    slack error where the oracle finds no bound."""
    expected = envelope_choice_oracle(params)
    if expected is None:
        with pytest.raises(ValueError, match="envelope slack"):
            ProposalSpec.from_params(params)
        return
    spec = ProposalSpec.from_params(params)
    bound, d, collapsed = expected
    assert np.asarray(spec.lambda_min_bound).tobytes() == np.asarray(bound).tobytes()
    assert np.asarray(spec.d).tobytes() == np.asarray(d).tobytes()
    assert spec.collapsed == collapsed


def _pair(kappa, coupling):
    """p = len(kappa) parameters with lambda_01 = ``coupling``, else 0."""
    lam = np.zeros((len(kappa), len(kappa)))
    if len(kappa) > 1:
        lam[0, 1] = lam[1, 0] = coupling
    return _params(kappa, lam)


@pytest.mark.parametrize(
    "params",
    [
        _params([3.0, 3.0, 3.0], REFERENCE_COUPLING),
        _HETEROGENEOUS,
        _params([5.0, 5.0, 5.0], np.zeros((3, 3))),
        _params([1.0, 5.0], np.zeros((2, 2))),
        _params([2.0], np.zeros((1, 1))),
        _pair([1e200, 1.0, 1.0], 1.0),
        _pair([1e-300, 1e-300], 1e-301),
        _pair([1e-300, 1e-300], 0.0),
        _pair([1e6, 1e6], 1.0),
        _pair([1e300, 1e300], 1.0),
    ],
    ids=["ref", "het4", "iso_555", "iso_15", "p1", "k1e200", "k1e-300", "k1e-300_free",
         "k1e6", "k1e300"],
)
def test_envelope_choice_on_fixed_sets(params):
    _assert_nested_choice(params)


@st.composite
def _certified_shapes(draw):
    """Certified p <= 8 parameters with a dense, chain, 40%-sparse or
    constant-kappa coupling, lambda_ab a uniform of +-sqrt(kappa_a kappa_b)
    scaled by U(0, 1.5) / sqrt(p)."""
    p = draw(st.integers(1, 8))
    shape = draw(st.sampled_from(["dense", "chain", "sparse", "constant"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kappa = rng.uniform(0.5, 5.0, size=1 if shape == "constant" else p) * np.ones(p)
    upper = np.triu(rng.uniform(-1.0, 1.0, size=(p, p)), k=1)
    if shape == "chain":
        upper = np.tril(upper, k=1)
    elif shape == "sparse":
        upper *= rng.random((p, p)) < 0.4
    scale = rng.uniform(0.0, 1.5) / np.sqrt(p)
    lam = (upper + upper.T) * np.sqrt(np.outer(kappa, kappa)) * scale
    params = _params(kappa, lam, mu=rng.uniform(0.0, TWO_PI, size=p))
    assume(certify_unimodal(params).prop1_holds)
    return params


@settings(max_examples=300, deadline=None)
@given(_certified_shapes())
def test_envelope_choice_is_the_nested_rule(params):
    # the flat candidate list keeps the spec that the scalar-or-Jacobi pick
    # per matrix, then the pick across matrices, gave
    _assert_nested_choice(params)


def test_from_params_checks_the_spec_it_builds(monkeypatch):
    # an eigen-solver that overstates lambda_min(P) by 0.5: the bounds it
    # yields pass the range test, but P - diag(d) is not semidefinite
    real = spectral._eigh

    def overstated(a, vectors=True):
        assert not vectors  # the certificate and the envelope read values only
        return real(a, vectors=False) + 0.5

    monkeypatch.setattr(spectral, "_eigh", overstated)
    params = _params([3.0, 3.0, 3.0], REFERENCE_COUPLING)  # lambda_min(P) = 1
    entry_points = (
        ProposalSpec.from_params,
        lambda params, lambda_min: sample_blocks(params, 10, lambda_min),
        lambda params, lambda_min: sample_mvm(params, 10, lambda_min),
        forecast_acceptance,
    )
    for call in entry_points:
        for lambda_min in (None, 1.4):
            with pytest.raises(ValueError, match="does not bound these parameters"):
                call(params, lambda_min)


def test_near_singular_certified_p_names_the_envelope_slack():
    # row dominance holds by 1e-13, so P certifies, but lambda_min(P) lies
    # below the envelope slack and no positive bound is left
    near = 1.0 - 1e-13
    params = _params([1.0, 1.0], np.array([[0.0, near], [near, 0.0]]))
    assert certify_unimodal(params).cor1_holds
    for call in (ProposalSpec.from_params, forecast_acceptance):
        with pytest.raises(ValueError, match=r"lambda_min\(P\) = .* envelope slack") as err:
            call(params)
        assert err.type is ValueError
    with pytest.raises(ValueError, match="envelope slack"):
        sample_mvm(params, 10, seed=0)


def _scaled_near_singular(rng) -> MvmParams:
    """P = E A E with A a random SPD matrix whose smallest eigenvalue is
    moved to +-10**U(-16, -8), and E = diag(10**U(-3, 3))."""
    p = int(rng.integers(2, 6))
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    w = rng.uniform(0.5, 5.0, size=p)
    w[0] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16.0, -8.0)
    a = (q * w) @ q.T
    e = 10.0 ** rng.uniform(-3.0, 3.0, size=p)
    p_matrix = np.outer(e, e) * (0.5 * (a + a.T))
    kappa = np.diag(p_matrix).copy()
    return _params(kappa, np.diag(kappa) - p_matrix)


def test_sampler_gate_is_the_certificate_on_badly_scaled_p():
    # where eigh on P and the certificate's test on the Jacobi-scaled P
    # disagree, the sampler follows the certificate, and the closed form
    # gives a finite value or a ValueError, never a NaN or a warning
    rng = np.random.default_rng(16)
    verdicts = {True: 0, False: 0}
    for _ in range(2000):
        params = _scaled_near_singular(rng)
        certified = certify_unimodal(params).prop1_holds
        verdicts[certified] += 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                ProposalSpec.from_params(params)
            except NotPositiveDefiniteError:
                assert not certified
            except ValueError as exc:
                assert certified and "envelope slack" in str(exc)
            else:
                assert certified
            try:
                assert np.isfinite(high_concentration_log_partition(params))
            except ValueError:
                pass
    assert min(verdicts.values()) > 100


@st.composite
def _definite_params(draw):
    p = draw(st.integers(1, 4))
    entries = st.floats(-5.0, 5.0, allow_nan=False)
    upper = draw(st.lists(entries, min_size=p * p, max_size=p * p))
    lam = np.triu(np.reshape(upper, (p, p)), k=1)
    lam = lam + lam.T
    rows = np.sum(np.abs(lam), axis=1)
    scales = draw(st.lists(st.floats(0.0, 3.0), min_size=p, max_size=p))
    extras = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 60.0)), min_size=p, max_size=p
        )
    )
    kappa = rows * np.asarray(scales) + np.asarray(extras)
    params = _params(kappa, lam)
    assume(sym_eigen(params.p_matrix()).values[0] > 1e-9)
    return params


@settings(max_examples=300, deadline=None)
@given(_definite_params())
def test_from_params_envelope_is_valid_and_no_worse_than_scalar(params):
    spec = ProposalSpec.from_params(params)
    p_matrix = params.p_matrix()
    gap, d = p_matrix, np.asarray(spec.d)
    if spec.collapsed is not None:
        # the proposed coordinates bound P_q, and d_q = kappa_q
        q = spec.collapsed
        gap = sampler._collapsed_matrix(p_matrix, params.lam[:, q], q)
        assert d[q] == params.kappa[q]
        d = np.delete(d, q)
    norm = max(1.0, float(np.max(np.sum(np.abs(p_matrix), axis=1))))
    assert is_positive_definite(gap - np.diag(d), tol=-ENVELOPE_SLACK * norm)
    assert min(spec.d) > 0.0
    # no worse than the better of the scalar and Jacobi product envelopes,
    # which is no worse than the paper's scalar one
    bound = spec.lambda_min_bound
    product = ProposalSpec(bound, params.p, diagonal_oracle(p_matrix, bound))
    scalar = ProposalSpec(lambda_min_bound=bound, p=params.p)
    log_c = log_envelope_constant(params, spec)
    assert log_c <= log_envelope_constant(params, product) <= log_envelope_constant(params, scalar)


@settings(max_examples=200, deadline=None)
@given(_definite_params(), st.integers(0, 2**32 - 1))
def test_collapsed_exponent_never_exceeds_zero(params, seed):
    # each coordinate q in turn collapsed, with the envelope from_params
    # would build on P_q: the acceptance exponent stays <= 1e-12 at random
    # points and where |b_q| is largest, theta_j - mu_j = +-pi/2 by the
    # sign of lambda_qj (the largest gap between log I0(r_q) and its
    # tangent); _exponent raises BoundViolationError above 1e-12
    assume(params.p >= 2)
    rng = np.random.default_rng(seed)
    p_matrix = params.p_matrix()
    for q in range(params.p):
        p_q = sampler._collapsed_matrix(p_matrix, params.lam[:, q], q)
        slack = ENVELOPE_SLACK * min(1.0, float(np.max(np.sum(np.abs(p_q), axis=1))))
        bound = sym_eigen(p_q).values[0] - slack
        assume(bound > 0.0)
        d = np.insert(diagonal_oracle(p_q, bound), q, params.kappa[q])
        spec = ProposalSpec(bound, params.p, tuple(d), q)
        deltas = rng.uniform(-np.pi, np.pi, size=(2000, params.p))
        widest = np.where(params.lam[:, q] < 0.0, -0.5, 0.5) * np.pi
        deltas[:2] = widest, -widest
        log_acc = _exponent(params, spec, np.delete(deltas, q, axis=1))[0]
        assert np.max(log_acc) <= 1e-12


def _doubled_angle_log_c(params, d) -> float:
    """log C of the paper's doubled-angle envelope, whose coordinate i
    proposes exp((d_i / 4) cos 2t) / (2 pi I0(d_i / 4))."""
    quarter = np.asarray(d) / 4.0
    return float(
        np.sum(params.kappa) + np.sum(np.log(TWO_PI) + _log_i0e(quarter))
    )


@settings(max_examples=200, deadline=None)
@given(_definite_params(), st.integers(0, 2**32 - 1))
def test_vm_envelope_bounds_f_and_lies_below_doubled_angle(params, seed):
    rng = np.random.default_rng(seed)
    half_bound = 0.5 * sym_eigen(params.p_matrix()).values[0]
    for spec in (
        ProposalSpec.from_params(params),
        ProposalSpec.from_params(params, lambda_min=half_bound),
    ):
        log_c = log_envelope_constant(params, spec)
        thetas = rng.uniform(0.0, TWO_PI, size=(2000, params.p))
        thetas[0] = params.mu.angles  # the mode, where the bound is tightest
        f = exponent_many(params, thetas)
        log_g = log_proposal_density(params, spec, thetas - params.mu.angles)
        scale = max(1.0, float(np.sum(params.kappa)))
        assert np.max(f - (log_c + log_g)) <= 1e-12 * scale
        assert log_c <= _doubled_angle_log_c(params, spec.d) + 1e-12 * scale
