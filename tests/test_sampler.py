import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    REFERENCE_COUPLING,
    RING_COUPLING,
    bessel_i0_series,
    bessel_i1_series,
    heterogeneous_params,
    random_params,
)
from mvmtorus import (
    MvmParams,
    NotPositiveDefiniteError,
    ProposalSpec,
    TorusPoint,
    acceptance_probability,
    certify_unimodal,
    exponent_many,
    forecast_acceptance,
    is_positive_definite,
    sample_blocks,
    sample_mvm,
    sym_eigen,
    wrap_angles,
)
from mvmtorus import sampler
from mvmtorus.sampler import (
    BLOCK_SIZE,
    ENVELOPE_SLACK,
    LOG_I0_SWITCH,
    AcceptanceStallError,
    BoundViolationError,
    _log_acceptance,
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
    with pytest.raises(ValueError, match="spec is for p = 3"):
        sample_proposal_batch(ProposalSpec(lambda_min_bound=2.0, p=3), 2, 5, rng)


def test_proposal_log_density_normalizes():
    spec = ProposalSpec(lambda_min_bound=4.0, p=1)
    n = 4096
    grid = TWO_PI * np.arange(n) / n
    total = np.sum(np.exp(log_proposal_density(spec, grid[:, None]))) * TWO_PI / n
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
    c = np.cos(thetas - params.mu.angles)
    s = np.sin(thetas - params.mu.angles)
    from mvmtorus.sampler import _log_acceptance

    log_acc = _log_acceptance(params, spec, c, s)
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
        log_g = log_proposal_density(spec, thetas - params.mu.angles)
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
    spec = ProposalSpec.from_params(params)
    batch = sample_mvm(params, 20_000, spec, seed=3)
    rate = forecast_acceptance(params, spec, with_exact=True).exact_rate
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
    params = _params([5.0, 5.0], np.array([[0.0, 2.0], [2.0, 0.0]]))
    a = sample_mvm(params, 12_345, seed=13, workers=1)
    b = sample_mvm(params, 12_345, seed=13, workers=4)
    assert np.array_equal(a.draws, b.draws)
    assert a.trials == b.trials


@pytest.mark.parametrize("workers", [1, 3])
def test_sample_blocks_keep_at_most_workers_in_flight(monkeypatch, workers):
    params = _params([5.0, 5.0], np.array([[0.0, 2.0], [2.0, 0.0]]))
    n = 10 * BLOCK_SIZE + 5
    batch = sample_mvm(params, n, seed=13)
    started = []
    real = sampler._sample_block

    def counted(*args):
        started.append(args[3].spawn_key)
        return real(*args)

    monkeypatch.setattr(sampler, "_sample_block", counted)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        sample_blocks(params, n, workers=0)  # checked before any iteration
    blocks = sample_blocks(params, n, seed=13, workers=workers)
    assert started == []
    for k in range(1, 4):
        draws, trials = next(blocks)
        assert np.array_equal(draws, batch.draws[(k - 1) * BLOCK_SIZE : k * BLOCK_SIZE])
        # the next block is submitted only once one has been consumed
        assert len(started) <= workers + k - 1
    blocks.close()
    # closing cancels the blocks not yet started
    assert len(started) <= workers + 2


def test_sampler_rejects_fewer_than_one_worker():
    params = _params([5.0, 5.0], np.array([[0.0, 2.0], [2.0, 0.0]]))
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            sample_mvm(params, 10, seed=0, workers=workers)


def test_sampler_accounting_identity():
    params = _params([5.0, 5.0], np.array([[0.0, 2.0], [2.0, 0.0]]))
    batch = sample_mvm(params, 4_321, seed=2)
    assert batch.n == 4_321
    assert batch.empirical_acceptance == batch.n / batch.trials


def test_shrinking_bound_preserves_law(rng):
    params = _params([5.0, 5.0], np.array([[0.0, 2.0], [2.0, 0.0]]))
    full = ProposalSpec.from_params(params)
    half = ProposalSpec.from_params(params, lambda_min=full.lambda_min_bound / 2.0)
    n = 20_000
    a = sample_mvm(params, n, full, seed=31)
    b = sample_mvm(params, n, half, seed=31)
    # same law: KS distance within Monte-Carlo noise at alpha ~ 1e-3
    threshold = 1.95 * np.sqrt(2.0 / n)
    for dim in (0, 1):
        assert _ks_distance(a.draws[:, dim], b.draws[:, dim]) < threshold
    # only the efficiency drops
    assert b.empirical_acceptance < a.empirical_acceptance


def test_sampler_stall_guard_trips():
    params = _params([1e16], np.zeros((1, 1)))
    spec = ProposalSpec.from_params(params, lambda_min=1e-12)
    with pytest.raises(AcceptanceStallError):
        sample_mvm(params, 1, spec, seed=0)


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
    spec = ProposalSpec.from_params(params)
    forecast = forecast_acceptance(params, spec, with_exact=True)
    assert forecast.asymptotic_rate == pytest.approx(1.0, rel=1e-9)
    assert forecast.exact_rate == pytest.approx(1.0, rel=1e-9)
    batch = sample_mvm(params, 10_000, spec, seed=4)
    assert batch.empirical_acceptance == pytest.approx(1.0, abs=1e-9)


def test_forecast_reference_rate():
    params = _params([3.0, 3.0, 3.0], REFERENCE_COUPLING)
    forecast = forecast_acceptance(params)
    assert forecast.asymptotic_rate == pytest.approx(1.0 / np.sqrt(7.0), abs=1e-12)


def test_forecast_exact_approaches_asymptote():
    params = _params([50.0, 50.0, 50.0], REFERENCE_COUPLING)
    forecast = forecast_acceptance(params, with_exact=True)
    assert forecast.exact_rate is not None
    assert abs(forecast.exact_rate / forecast.asymptotic_rate - 1.0) < 0.05


def test_forecast_rejects_an_exact_rate_above_one():
    # the 128-node grid aliases a peak of width 1e-2: Z comes out ~4x too big
    params = _params([1e4, 1e4], np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="n_per_dim"):
        forecast_acceptance(params, with_exact=True)
    assert forecast_acceptance(params).exact_rate is None
    fine = forecast_acceptance(params, with_exact=True, n_per_dim=4096)
    assert 0.999 < fine.exact_rate <= 1.0


def test_tiny_kappa_envelope_keeps_a_positive_bound():
    # the slack scales with min(1, |P|_inf): at kappa = 1e-300 an absolute
    # 1e-12 would leave no bound; at |P|_inf >= 1 it is the plain 1e-12
    params = _params([1e-300, 1e-300], np.zeros((2, 2)))
    spec = ProposalSpec.from_params(params)
    assert spec.d == pytest.approx((1e-300 * (1.0 - ENVELOPE_SLACK),) * 2, rel=1e-15)
    forecast = forecast_acceptance(params, spec, with_exact=True)
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
        assert 0.0 < forecast.asymptotic_rate <= 1.0 + 1e-15


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
    params = _params([3.0, 3.0, 3.0], REFERENCE_COUPLING)
    spec = ProposalSpec.from_params(params)
    assert spec.d == (spec.lambda_min_bound,) * 3
    assert spec == ProposalSpec(lambda_min_bound=spec.lambda_min_bound, p=3)


def test_jacobi_envelope_chosen_for_heterogeneous_kappa():
    params = _params([2.0, 8.0, 8.0, 30.0], _HETERO_LAM)
    spec = ProposalSpec.from_params(params)
    p_matrix = params.p_matrix()
    diag = np.diag(p_matrix)
    ratio = np.asarray(spec.d) / diag
    assert np.allclose(ratio, ratio[0], rtol=1e-14)  # d = t * diag(P)
    scaled = p_matrix / np.sqrt(np.outer(diag, diag))
    assert ratio[0] == pytest.approx(sym_eigen(scaled).values[0], abs=1e-11)
    assert np.sum(np.log(spec.d)) > 4 * np.log(spec.lambda_min_bound) + 1.0
    scalar = ProposalSpec.from_params(params, lambda_min=spec.lambda_min_bound)
    assert forecast_acceptance(params, spec).asymptotic_rate > 10.0 * (
        forecast_acceptance(params, scalar).asymptotic_rate
    )


def test_lambda_min_override_forces_scalar_envelope():
    params = _params([2.0, 8.0, 8.0, 30.0], _HETERO_LAM)
    spec = ProposalSpec.from_params(params, lambda_min=1.5)
    assert spec.lambda_min_bound == 1.5
    assert spec.d == (1.5,) * 4


def test_envelope_quantities_use_vector_d():
    params = _params([2.0, 8.0, 8.0, 30.0], _HETERO_LAM)
    spec = ProposalSpec.from_params(params)
    d = np.asarray(spec.d)
    expected = (
        np.sum(params.kappa)
        - np.sum(d)
        + sum(np.log(TWO_PI * bessel_i0_series(x, terms=200)) for x in d)
    )
    assert log_envelope_constant(params, spec) == pytest.approx(expected, abs=1e-12)
    det = np.prod(sym_eigen(params.p_matrix()).values)
    assert forecast_acceptance(params, spec).asymptotic_rate == pytest.approx(
        np.sqrt(np.prod(d) / det), rel=1e-12
    )
    # log acceptance = f - log C - log g at arbitrary points
    thetas = np.random.default_rng(3).uniform(0.0, TWO_PI, size=(64, 4))
    delta = thetas - params.mu.angles
    direct = exponent_many(params, thetas) - log_envelope_constant(params, spec)
    direct -= log_proposal_density(spec, delta)
    log_acc = _log_acceptance(params, spec, np.cos(delta), np.sin(delta))
    assert log_acc == pytest.approx(direct, abs=1e-10)
    assert np.max(log_acc) <= 1e-12


def test_spec_d_must_match_p_and_be_nonnegative():
    with pytest.raises(ValueError, match="d must hold 3"):
        ProposalSpec(lambda_min_bound=1.0, p=3, d=(1.0, 1.0))
    with pytest.raises(ValueError, match="d must hold 2"):
        ProposalSpec(lambda_min_bound=1.0, p=2, d=(1.0, -0.5))


def test_sampler_rejects_spec_that_does_not_bound_params():
    params = _params([2.0, 8.0, 8.0, 30.0], _HETERO_LAM)
    spec = ProposalSpec.from_params(params)
    # the same couplings with kappa reversed: lambda_min(P) still exceeds
    # the spec's scalar bound, but d_4 ~ 29 is far above P_44 = 2
    swapped = _params([30.0, 8.0, 8.0, 2.0], _HETERO_LAM)
    assert spec.lambda_min_bound <= sym_eigen(swapped.p_matrix()).values[0]
    with pytest.raises(ValueError, match="does not bound these parameters"):
        sample_mvm(swapped, 10, spec, seed=0)
    assert sample_mvm(params, 10, spec, seed=0).n == 10


def test_sampler_rejects_spec_of_other_dimension():
    params = _params([3.0, 3.0, 3.0], REFERENCE_COUPLING)
    spec = ProposalSpec(lambda_min_bound=0.5, p=2)
    with pytest.raises(ValueError, match="spec is for p = 2"):
        sample_mvm(params, 10, spec, seed=0)


@pytest.mark.parametrize("with_exact", [False, True])
def test_forecast_checks_a_supplied_spec(with_exact):
    # a spec that sample_mvm refuses must not get a rate either, nor a
    # quadrature error that blames the grid
    params = _params([3.0, 3.0, 3.0], REFERENCE_COUPLING)
    other_p = ProposalSpec(lambda_min_bound=0.5, p=4)
    with pytest.raises(ValueError, match="spec is for p = 4"):
        forecast_acceptance(params, other_p, with_exact=with_exact)
    stale = ProposalSpec(lambda_min_bound=0.5, p=3, d=(3.0, 3.0, 3.0))
    with pytest.raises(ValueError, match="does not bound these parameters"):
        forecast_acceptance(params, stale, with_exact=with_exact)


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
    gap = p_matrix - np.diag(spec.d)
    norm = max(1.0, float(np.max(np.sum(np.abs(p_matrix), axis=1))))
    assert is_positive_definite(gap, tol=-ENVELOPE_SLACK * norm)
    assert min(spec.d) > 0.0
    scalar = ProposalSpec(lambda_min_bound=spec.lambda_min_bound, p=params.p)
    assert log_envelope_constant(params, spec) <= log_envelope_constant(params, scalar)


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
        log_g = log_proposal_density(spec, thetas - params.mu.angles)
        scale = max(1.0, float(np.sum(params.kappa)))
        assert np.max(f - (log_c + log_g)) <= 1e-12 * scale
        assert log_c <= _doubled_angle_log_c(params, spec.d) + 1e-12 * scale
