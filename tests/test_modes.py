import dataclasses
import json
import math
import random
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    REFERENCE_COUPLING,
    RING_COUPLING,
    TWO_MODE_COUPLING,
    first_kept_oracle,
    halving_oracle,
    polish_oracle,
    random_params,
    random_symmetric_coupling,
    six_mode_params,
    six_mode_table,
    solve_stack_oracle,
    start_points_oracle,
)
from mvmtorus import (
    MvmParams,
    exponent_many,
    grad_many,
    PointKind,
    SearchConfig,
    TorusPoint,
    Verdict,
    certify_unimodal,
    classify_critical,
    critical_points,
    grad_f,
    high_concentration_log_partition,
    wrap_angles,
)
from mvmtorus import cli, modes, spectral
from mvmtorus.model import _trig_many
from mvmtorus.modes import (
    CriticalPoint,
    _damped_pass,
    _directions,
    _first_kept,
    _start_points,
    _step_lengths,
    deduplicate,
)
from mvmtorus.spectral import norm_inf

TWO_PI = 2.0 * np.pi


def _params(kappa, lam, mu=None):
    kappa = np.asarray(kappa, dtype=float)
    mu = np.zeros(kappa.size) if mu is None else np.asarray(mu)
    return MvmParams(mu=mu, kappa=kappa, lam=lam)


def _f_range(params):
    return float(np.sum(params.kappa) + 0.5 * np.sum(np.abs(params.lam)))


# ---------------------------------------------------------------------------
# certification


def test_certify_definite_but_not_dominant():
    cert = certify_unimodal(_params([3.0, 3.0, 3.0], REFERENCE_COUPLING))
    assert cert.prop1_holds
    assert not cert.cor1_holds  # 3 < 4 = |−2| + |2|
    assert cert.verdict is Verdict.CERTIFIED_UNIMODAL
    assert cert.p_eigenvalues == pytest.approx([1.0, 1.0, 7.0], abs=1e-10)


def test_certify_dominant_rows():
    cert = certify_unimodal(_params([5.0, 5.0, 5.0], REFERENCE_COUPLING))
    assert cert.cor1_holds  # 5 > 4
    assert cert.prop1_holds
    assert cert.verdict is Verdict.CERTIFIED_UNIMODAL_WITH_MINIMUM


def test_certify_zero_concentration_is_inconclusive():
    cert = certify_unimodal(_params([0.0, 0.0, 0.0], RING_COUPLING))
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert not cert.prop1_holds


def test_certificate_dominance_implies_definiteness(rng):
    for _ in range(200):
        p = int(rng.integers(1, 5))
        params = random_params(rng, p)
        cert = certify_unimodal(params)
        if cert.cor1_holds:
            assert cert.prop1_holds
        expected = (
            Verdict.CERTIFIED_UNIMODAL_WITH_MINIMUM
            if cert.cor1_holds
            else Verdict.CERTIFIED_UNIMODAL
            if cert.prop1_holds
            else Verdict.INCONCLUSIVE
        )
        assert cert.verdict is expected


_BADLY_SCALED = [
    # the reference set (P eigenvalues 1, 1, 7) times 1e-12 and 1e-120
    # (|P| = 7e-360 underflows)
    ([3e-12] * 3, 1e-12 * REFERENCE_COUPLING),
    ([3e-120] * 3, 1e-120 * REFERENCE_COUPLING),
    # the reference set under D = diag(1e5, 1, 1): lambda_min(P) = 1
    ([3e10, 3.0, 3.0], np.outer([1e5, 1.0, 1.0], [1e5, 1.0, 1.0]) * REFERENCE_COUPLING),
    ([1e10, 1.0, 1.0], [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    ([1e200, 1.0, 1.0], [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
]


@pytest.mark.parametrize("kappa,lam", _BADLY_SCALED)
def test_certify_does_not_depend_on_the_scale_of_p(kappa, lam):
    params = _params(kappa, lam)
    assert certify_unimodal(params).verdict is Verdict.CERTIFIED_UNIMODAL
    assert np.isfinite(high_concentration_log_partition(params))


def test_certify_subnormal_kappa_warns_nothing():
    # P = [[5e-324, -1], [-1, 1]] is indefinite; scaling by 1/sqrt(5e-324)
    # must neither overflow nor warn
    cert = certify_unimodal(_params([5e-324, 1.0], [[0.0, 1.0], [1.0, 0.0]]))
    assert cert.verdict is Verdict.INCONCLUSIVE


@st.composite
def _congruence_case(draw):
    """(kappa, Lambda, d) with p in 1..4, kappa zero or in [1e-3, 5],
    |lambda_ij| <= 3 and d log-uniform in [1e-6, 1e6]^p."""
    p = draw(st.integers(1, 4))
    kappa = draw(st.lists(st.just(0.0) | st.floats(1e-3, 5.0), min_size=p, max_size=p))
    upper = draw(st.lists(st.floats(-3.0, 3.0), min_size=p * p, max_size=p * p))
    lam = np.triu(np.reshape(upper, (p, p)), 1)
    exponents = draw(st.lists(st.floats(-6.0, 6.0), min_size=p, max_size=p))
    return np.array(kappa), lam + lam.T, 10.0 ** np.array(exponents)


@settings(max_examples=300, deadline=None)
@given(_congruence_case())
def test_prop1_verdict_is_invariant_under_congruence(case):
    # P -> D P D with D = diag(d) is (kappa, Lambda) -> (d^2 kappa, d d^T o Lambda);
    # Prop. 1's P > 0 is invariant under it (and under P -> cP, d = c^1/2 * 1)
    kappa, lam, d = case
    params = _params(kappa, lam)
    scaled = spectral._jacobi_scaled(params.p_matrix())
    if scaled is not None:
        # rounding may flip a set on the definiteness boundary
        smallest = np.linalg.eigvalsh(scaled)[0]
        assume(abs(smallest - spectral.default_pd_tol(scaled)) > 1e-6)
    congruent = _params(d**2 * kappa, np.outer(d, d) * lam)
    assert certify_unimodal(congruent).prop1_holds == certify_unimodal(params).prop1_holds


# ---------------------------------------------------------------------------
# classification


def test_classify_mean_under_definite_p():
    params = _params([3.0, 3.0, 3.0], REFERENCE_COUPLING)
    point = classify_critical(params, params.mu)
    assert point.kind is PointKind.MAXIMUM
    assert point.f_value == pytest.approx(9.0)


def test_classify_six_mode_maximum_spectrum():
    eta = 0.1
    eps = np.sin(eta)
    params = six_mode_params(eta)
    theta, _ = six_mode_table(eta)[0]
    point = classify_critical(params, TorusPoint(theta))
    assert point.kind is PointKind.MAXIMUM
    assert point.hessian_eigenvalues == pytest.approx(
        [-1.0, -1.0, -eps], abs=5.0 * eps * eps
    )


def test_classify_ridge_points_degenerate():
    # the flat ridge of the ring coupling runs along cube edges; the piece
    # with s_1 = s_3 = 1 is {theta : theta_1 = theta_3 = pi/2}, on which
    # the exponent is identically 1 (verified by the grid scan below)
    params = _params([0.0, 0.0, 0.0], RING_COUPLING)
    from mvmtorus import exponent_many

    t2 = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    ridge = np.stack([np.full(64, np.pi / 2), t2, np.full(64, np.pi / 2)], axis=-1)
    values = exponent_many(params, ridge)
    assert np.max(np.abs(values - 1.0)) < 1e-14
    for t in (0.0, 0.7, 2.0, 4.5):
        point = classify_critical(params, TorusPoint(np.array([np.pi / 2, t, np.pi / 2])))
        assert point.kind is PointKind.DEGENERATE


def test_classify_rejects_noncritical_point():
    params = _params([3.0, 3.0, 3.0], REFERENCE_COUPLING)
    with pytest.raises(ValueError, match="not critical"):
        classify_critical(params, TorusPoint(np.array([1.0, 2.0, 3.0])))


# ---------------------------------------------------------------------------
# mode search: the three benchmark couplings


def test_search_two_mode_coupling():
    mu = np.array([0.4, 1.3, 5.2])
    report = critical_points(_params([0.0, 0.0, 0.0], TWO_MODE_COUPLING, mu=mu))
    assert report.n_maxima == 2
    assert not report.extended_mode_suspected
    targets = [mu + np.pi / 2.0, mu + 3.0 * np.pi / 2.0]
    for target in targets:
        assert any(
            m.theta.distance(TorusPoint(target)) < 1e-6 for m in report.maxima
        )
    for m in report.maxima:
        s = np.sin(m.theta.angles - mu)
        assert np.max(np.abs(np.abs(s) - 1.0)) < 1e-6
        assert m.f_value == pytest.approx(2.58, abs=1e-9)


@pytest.mark.parametrize("eta", [0.05, 0.1])
def test_search_six_mode_coupling(eta):
    report = critical_points(six_mode_params(eta))
    assert report.n_maxima == 6
    located = report.maxima
    for target, _ in six_mode_table(eta):
        matches = [
            m for m in located if m.theta.distance(TorusPoint(target)) < 1e-6
        ]
        assert len(matches) == 1


def test_search_ring_coupling_flags_extended_mode():
    report = critical_points(_params([0.0, 0.0, 0.0], RING_COUPLING))
    assert report.extended_mode_suspected
    ridge = report.degenerate
    assert len(ridge) >= 20
    values = np.array([c.f_value for c in ridge])
    assert np.max(values) - np.min(values) < 1e-9
    assert np.max(np.abs(values - 1.0)) < 1e-9


def test_search_dominant_rows_yields_max_min_saddles():
    mu = np.array([0.3, 5.9, 2.2])
    params = _params([5.0, 5.0, 5.0], REFERENCE_COUPLING, mu=mu)
    report = critical_points(params)
    assert report.n_maxima == 1
    assert len(report.minima) == 1
    assert report.maxima[0].theta.distance(params.mu) < 1e-8
    assert report.minima[0].theta.distance(params.mu.antipode()) < 1e-8
    others = [
        c
        for c in report.criticals
        if c.kind not in (PointKind.MAXIMUM, PointKind.MINIMUM)
    ]
    assert all(c.kind is PointKind.SADDLE for c in others)


def _row_dominant_params(rng, p):
    """A seeded P with kappa_i > sum_j |lambda_ij| in every row (Corollary 1)."""
    lam = random_symmetric_coupling(rng, p, scale=1.0)
    row_sums = np.abs(lam).sum(axis=1)
    kappa = rng.uniform(1.01, 1.5, size=p) * row_sums + 1e-3
    return _params(kappa, lam, mu=rng.uniform(0.0, TWO_PI, size=p))


@pytest.mark.parametrize(
    "p",
    [2, 3, 4, 5, 6]
    + [
        pytest.param(
            7,
            marks=pytest.mark.xfail(
                strict=True,
                reason="the search misses corners at p = 7 (ROADMAP items 10 and 2(a))",
            ),
        )
    ],
)
def test_search_reports_exactly_the_corners_of_a_row_dominant_p(p):
    # with kappa_i > sum_j |lambda_ij|, every critical point has s = 0, so the
    # critical set is exactly the 2**p corners mu + {0, pi}**p, each
    # nondegenerate with Morse index the number of its zero offsets
    rng = np.random.default_rng(7000 + p)
    for _ in range(10):
        params = _row_dominant_params(rng, p)
        assert certify_unimodal(params).cor1_holds
        report = critical_points(params)
        offsets = np.array([c.theta.angles for c in report.criticals]) - params.mu.angles
        # doubling the offset maps both 0 and pi to 0
        assert np.all(np.abs(np.angle(np.exp(2j * offsets))) / 2 < 1e-8)
        at_pi = np.round(offsets / np.pi).astype(int) % 2
        assert len(report.criticals) == len({tuple(row) for row in at_pi}) == 2**p
        indices = [int(np.sum(c.hessian_eigenvalues < 0)) for c in report.criticals]
        assert indices == (p - at_pi.sum(axis=1)).tolist()
        assert np.bincount(indices, minlength=p + 1).tolist() == [
            math.comb(p, k) for k in range(p + 1)
        ]


# ---------------------------------------------------------------------------
# consistency properties


def test_certified_implies_single_maximum_at_mean(rng):
    checked = 0
    for _ in range(25):
        p = int(rng.integers(2, 4))
        params = random_params(rng, p, kappa_range=(0.5, 5.0), coupling_scale=1.5)
        cert = certify_unimodal(params)
        if not cert.prop1_holds:
            continue
        checked += 1
        report = critical_points(params)
        assert report.n_maxima == 1
        assert report.maxima[0].theta.distance(params.mu) < 1e-8
        if cert.cor1_holds:
            assert len(report.minima) == 1
            assert report.minima[0].theta.distance(params.mu.antipode()) < 1e-8
    assert checked >= 5


def test_zero_concentration_maxima_come_in_antipodal_pairs(rng):
    checked = 0
    for _ in range(10):
        lam = random_symmetric_coupling(rng, 3, scale=1.5)
        if np.max(np.abs(lam)) < 1e-9:
            continue
        report = critical_points(_params([0.0, 0.0, 0.0], lam))
        maxima = report.maxima
        if not maxima:
            continue  # purely degenerate landscapes carry no isolated maxima
        checked += 1
        assert report.n_maxima % 2 == 0
        for m in maxima:
            partner = m.theta.antipode()
            assert any(
                other.theta.distance(partner) < 1e-4 for other in maxima
            )
    assert checked >= 5


def test_reported_points_recheck_gradient(rng):
    params = random_params(rng, 3, kappa_range=(0.5, 4.0))
    cfg = SearchConfig()
    report = critical_points(params, cfg)
    assert report.criticals
    for c in report.criticals:
        fresh = np.max(np.abs(grad_f(params, c.theta)))
        assert fresh < cfg.grad_tol


def test_search_points_match_classify_critical():
    params = six_mode_params(0.1)
    cfg = SearchConfig()
    report = critical_points(params, cfg)
    assert report.n_maxima == 6
    for c in report.criticals:
        ref = classify_critical(params, c.theta, cfg.degeneracy_tol, cfg.grad_tol)
        assert ref.kind is c.kind
        assert np.array_equal(ref.hessian_eigenvalues, c.hessian_eigenvalues)
        assert ref.f_value == c.f_value


@pytest.mark.parametrize("p", [6, 8])
def test_classify_critical_agrees_with_the_search_to_roundoff(p):
    # numpy may take another BLAS path for one row than for a stack, so off
    # the six-mode set the spectra and f may differ in the last bits
    params = random_params(np.random.default_rng(p), p)
    cfg = SearchConfig()
    report = critical_points(params, cfg)
    assert report.criticals
    tol = 4 * np.finfo(float).eps * max(1.0, _f_range(params))
    for c in report.criticals:
        ref = classify_critical(params, c.theta, cfg.degeneracy_tol, cfg.grad_tol)
        assert ref.kind is c.kind
        assert np.max(np.abs(ref.hessian_eigenvalues - c.hessian_eigenvalues)) <= tol
        assert abs(ref.f_value - c.f_value) <= tol


@pytest.mark.parametrize("p", [3, 6, 8])
def test_reported_gradient_norms_are_the_polished_norms(p):
    # the polish measures each norm with grad_many on its live rows; the
    # same rows stacked in report order agree to roundoff
    params = random_params(np.random.default_rng(p), p)
    report = critical_points(params)
    rows = np.stack([c.theta.angles for c in report.criticals])
    expected = np.max(np.abs(grad_many(params, rows)), axis=1)
    reported = np.array([c.grad_norm for c in report.criticals])
    tol = 4 * np.finfo(float).eps * max(1.0, _f_range(params))
    assert np.all(np.abs(reported - expected) <= tol)


def _as_criticals(rows):
    p = rows.shape[1]
    return [
        CriticalPoint(TorusPoint(row), 0.0, 0.0, np.zeros(p), PointKind.SADDLE)
        for row in rows
    ]


def _assert_dedup_matches_oracle(rows, radius):
    expected = first_kept_oracle(rows, radius)
    assert _first_kept(rows, radius).tolist() == expected
    points = _as_criticals(rows)
    kept = deduplicate(points, radius)
    assert len(kept) == len(expected)
    assert all(k is points[i] for k, i in zip(kept, expected))


_SEAM = 1e-3
#: coordinates that land on the 0/2*pi seam, on a dyadic grid (so that
#: differences of exactly ``radius`` are representable), or anywhere
_coords = st.one_of(
    st.sampled_from([0.0, _SEAM, TWO_PI - _SEAM, np.nextafter(TWO_PI, 0.0)]),
    st.integers(0, 100).map(lambda k: k / 16.0),
    st.floats(0.0, TWO_PI, exclude_max=True),
)


@st.composite
def _clustered_rows(draw):
    """Rows clustered around a few centres: exact repeats, offsets of
    exactly +-radius, and offsets just inside or outside it."""
    p = draw(st.integers(1, 8))
    radius = draw(st.sampled_from([1e-4, 2 * _SEAM, 0.0625, 0.5]))
    centres = draw(
        st.lists(st.lists(_coords, min_size=p, max_size=p), min_size=1, max_size=4)
    )
    offsets = st.sampled_from(
        [0.0, radius, -radius, 0.5 * radius, -0.5 * radius, 1.5 * radius]
    )
    picks = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(centres) - 1),
                st.lists(offsets, min_size=p, max_size=p),
            ),
            max_size=24,
        )
    )
    rows = np.array([np.add(centres[c], off) for c, off in picks]).reshape(-1, p)
    return wrap_angles(rows), radius


@settings(max_examples=300, deadline=None)
@given(_clustered_rows())
def test_dedup_matches_pairwise_oracle(case):
    rows, radius = case
    _assert_dedup_matches_oracle(rows, radius)


@st.composite
def _pool_rows(draw):
    """Rows like a search's converged pool: repeats of up to 20 distinct
    points, each with jitter far below the radius, in random order."""
    p = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centres = rng.uniform(0.0, TWO_PI, size=(draw(st.integers(1, 20)), p))
    picks = rng.integers(len(centres), size=draw(st.integers(0, 80)))
    return wrap_angles(centres[picks] + rng.normal(scale=1e-9, size=(len(picks), p)))


@settings(max_examples=60, deadline=None)
@given(_pool_rows())
def test_dedup_of_search_like_pools_matches_pairwise_oracle(rows):
    _assert_dedup_matches_oracle(rows, 1e-4)


@pytest.mark.parametrize(
    "rows,radius,expected",
    [
        (np.empty((0, 3)), 1e-4, []),
        (np.array([[1.0, 2.0]]), 1e-4, [0]),
        # exact duplicates keep the first copy
        (np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [3.0, 4.0]]), 1e-4, [0, 1]),
        # exactly radius apart counts as distinct (>=)
        (np.array([[1.0], [1.5], [1.25]]), 0.5, [0, 1]),
        # a cluster straddling the seam collapses to its first member
        (np.array([[TWO_PI - 0.01, 3.0], [0.01, 3.0], [0.0, 3.05]]), 0.1, [0]),
    ],
)
def test_dedup_edge_cases(rows, radius, expected):
    assert first_kept_oracle(rows, radius) == expected
    _assert_dedup_matches_oracle(rows, radius)


def test_deduplication_is_idempotent():
    report = critical_points(_params([0.0, 0.0, 0.0], RING_COUPLING))
    once = deduplicate(report.criticals, 1e-4)
    twice = deduplicate(once, 1e-4)
    assert [c.theta for c in once] == [c.theta for c in twice]
    assert len(once) == len(report.criticals)  # report is already deduplicated


@pytest.mark.parametrize(
    "params",
    [
        six_mode_params(0.1, mu=[2.0, 0.5, 4.0]),
        six_mode_params(0.1),
        random_params(np.random.default_rng(8), 8),
    ],
    ids=["six", "six_at_zero", "rand8"],
)
def test_report_order_holds_when_f_and_angles_move_in_their_last_bits(params):
    # mirror points have equal f (and often equal angles) in exact
    # arithmetic; moving each f and each angle by one ulp either way, and
    # shuffling, must give back the report's order (at mu = 0 some angles
    # sit at 0, where one ulp down wraps to just below 2*pi)
    report = critical_points(params, SearchConfig(seed=3)).criticals
    rng = np.random.default_rng(0)
    for _ in range(10):
        moved = [
            dataclasses.replace(
                c,
                f_value=float(np.nextafter(c.f_value, rng.choice([-np.inf, np.inf]))),
                theta=TorusPoint(np.nextafter(c.theta.angles, rng.choice([-1.0, 7.0], params.p))),
            )
            for c in report
        ]
        index = {id(c): i for i, c in enumerate(moved)}
        rng.shuffle(moved)
        f_values = np.array([c.f_value for c in moved])
        rows = np.stack([c.theta.angles for c in moved])
        kinds = [c.kind for c in moved]
        order = [index[id(moved[i])] for i in modes._report_order(params, f_values, kinds, rows)]
        assert order == list(range(len(report)))



@st.composite
def _unit_range_params(draw):
    """p <= 4 sets, certifiable or not, scaled by a power of two to an f
    range in [1, 2), and a power of two c = 2**-j that takes no nonzero
    entry below the smallest normal float."""
    p = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        params = random_params(rng, p, kappa_range=(2.0, 5.0), coupling_scale=0.5)
    else:
        params = random_params(rng, p)
    k = 1 - int(np.frexp(params.f_range)[1])
    params = MvmParams(params.mu, np.ldexp(params.kappa, k), np.ldexp(params.lam, k))
    assume(1.0 <= params.f_range < 2.0)
    j = draw(st.integers(1, 1000))
    entries = np.abs(np.concatenate([params.kappa, params.lam.ravel()]))
    assume(np.all((entries == 0.0) | (np.ldexp(entries, -j) >= np.finfo(float).tiny)))
    return params, j


def _assert_scaled(got: CriticalPoint, want: CriticalPoint, j: int):
    """``got`` is ``want`` with f, grad_norm and eigenvalues times 2**-j."""
    assert got.theta.angles.tobytes() == want.theta.angles.tobytes()
    assert got.kind is want.kind
    assert got.f_value == math.ldexp(want.f_value, -j)
    assert got.grad_norm == math.ldexp(want.grad_norm, -j)
    eigenvalues = np.ldexp(want.hessian_eigenvalues, -j)
    assert got.hessian_eigenvalues.tobytes() == eigenvalues.tobytes()


@settings(max_examples=25, deadline=None)
@given(_unit_range_params())
def test_search_is_exactly_covariant_under_powers_of_two(case):
    # f -> c * f keeps every critical point and its index; with c = 2**-j
    # the search runs on the same f, so the report scales exactly
    params, j = case
    scaled = MvmParams(params.mu, np.ldexp(params.kappa, -j), np.ldexp(params.lam, -j))
    base, report = critical_points(params), critical_points(scaled)
    assert report.n_maxima == base.n_maxima
    assert report.extended_mode_suspected == base.extended_mode_suspected
    assert report.search_meta == base.search_meta
    assert len(report.criticals) == len(base.criticals)
    for got, want in zip(report.criticals, base.criticals):
        _assert_scaled(got, want, j)
    if base.criticals:
        theta = base.criticals[0].theta
        _assert_scaled(classify_critical(scaled, theta), classify_critical(params, theta), j)


def test_report_counts_match_contents(rng):
    params = random_params(rng, 3, kappa_range=(0.0, 3.0))
    report = critical_points(params)
    n_max = sum(1 for c in report.criticals if c.kind is PointKind.MAXIMUM)
    assert report.n_maxima == n_max
    assert report.extended_mode_suspected == any(
        c.kind is PointKind.DEGENERATE for c in report.criticals
    )


def test_search_is_deterministic():
    params = six_mode_params(0.05)
    a = critical_points(params, SearchConfig(seed=7))
    b = critical_points(params, SearchConfig(seed=7))
    assert len(a.criticals) == len(b.criticals)
    for ca, cb in zip(a.criticals, b.criticals):
        assert np.array_equal(ca.theta.angles, cb.theta.angles)
        assert ca.f_value == cb.f_value
        assert ca.kind is cb.kind


# ---------------------------------------------------------------------------
# damped-Newton driver


@st.composite
def _pass_case(draw, max_p=5):
    """Random kappa in [0, 5], |Lambda_ij| <= 2 and mu at p = 1..``max_p``,
    with a few random starts in [0, 2*pi)."""
    p = draw(st.integers(1, max_p))
    angles = st.floats(0.0, TWO_PI, exclude_max=True)
    kappa = draw(st.lists(st.floats(0.0, 5.0), min_size=p, max_size=p))
    entries = draw(st.lists(st.floats(-2.0, 2.0), min_size=p * p, max_size=p * p))
    upper = np.triu(np.reshape(entries, (p, p)), k=1)
    mu = draw(st.lists(angles, min_size=p, max_size=p))
    n = draw(st.integers(1, 6))
    starts = np.reshape(draw(st.lists(angles, min_size=n * p, max_size=n * p)), (n, p))
    return MvmParams(mu=np.array(mu), kappa=np.array(kappa), lam=upper + upper.T), starts


@settings(max_examples=150, deadline=None)
@given(_pass_case(), st.sampled_from([1.0, -1.0, 0.0]), st.integers(1, 8))
def test_damped_pass_never_worsens_its_merit(case, sign, max_iter):
    # with max_iter = k the driver returns its k-th iterate, so checking every
    # k checks every step: ascent may not lower f, descent may not raise it,
    # and the root pass may not raise |grad|_inf, beyond accumulated roundoff
    params, starts = case
    f_start = exponent_many(params, starts)
    g_start = np.max(np.abs(grad_many(params, starts)), axis=1)
    assert np.array_equal(_damped_pass(params, starts, sign, SearchConfig(max_iter=0)), starts)
    for k in range(1, max_iter + 1):
        out = _damped_pass(params, starts, sign, SearchConfig(max_iter=k))
        if sign:
            f_out = exponent_many(params, out)
            slack = k * 1e-14 * np.maximum(1.0, np.maximum(np.abs(f_start), np.abs(f_out)))
            assert np.all(sign * (f_out - f_start) >= -slack)
        else:
            g_out = np.max(np.abs(grad_many(params, out)), axis=1)
            assert np.all(g_out <= g_start + k * 1e-14 * max(1.0, norm_inf(params.p_matrix())))


@settings(max_examples=150, deadline=None)
@given(
    _pass_case(max_p=8),
    st.sampled_from([1.0, -1.0, 0.0]),
    st.sampled_from([1.0, 0.0, 2.0**20]),
)
def test_step_lengths_match_sequential_halving(case, sign, scale):
    # each row gets the length at which halving its step one length at a
    # time stops (0 where none passes), and the f or gradient call for
    # length 2**-k holds exactly the rows that no longer length passed.  The
    # direction is scaled by a power of two (or zeroed) so that rows need
    # many halvings or find none.  p reaches 8, the largest of the
    # benchmark's random sets
    params, cur = case
    c, s = _trig_many(params, cur)
    g = grad_many(params, cur)
    gnorm = np.max(np.abs(g), axis=1)
    direction = scale * _directions(params, sign, c, s, g, gnorm)[0]
    sizes = []

    def counted(kernel):
        def call(params, rows):
            sizes.append(len(rows))
            return kernel(params, rows)
        return call

    with mock.patch.object(modes, "exponent_many", counted(exponent_many)), mock.patch.object(
        modes, "grad_many", counted(grad_many)
    ):
        found = _step_lengths(params, sign, c, s, gnorm, cur, direction)
    assert np.array_equal(found, halving_oracle(params, sign, cur, direction, gnorm))
    pending = [int(np.sum((found == 0.0) | (found <= 0.5**k))) for k in range(31)]
    assert sizes == [n for n in pending if n]


def test_reference_ascent_row_that_circled_reaches_the_maximum():
    # from this lattice start (mu + pi/4 * (1, 1, 7)) the capped gradient
    # step left f unchanged, and a step that did not lower f used to pass:
    # the row circled at |grad f|_inf = 4.12 through all 80 iterations.  A
    # step must now raise f, so the row climbs to the one maximum, at mu
    mu = [5.923983541798076, 2.9611357265761367, 5.774140607951395]
    params = _params([3.0, 3.0, 3.0], REFERENCE_COUPLING, mu=mu)
    start = np.array([[0.42619639801593845, 3.746533889973585, 4.988742444553946]])
    out = _damped_pass(params, start, 1.0, SearchConfig())
    assert np.max(np.abs(grad_many(params, out))) <= modes._POLISH_TRIGGER
    assert TorusPoint(out[0]).distance(mu) < 1e-5


def test_polish_retires_rows_at_the_roundoff_floor(monkeypatch):
    # grad f is exactly 0 at mu, below the floor: the row is never sent
    # through eigh, and a row near a maximum leaves once it reaches the floor
    params = _params([3.0, 3.0, 3.0], REFERENCE_COUPLING, mu=[0.3, 1.2, 5.0])
    rows = []
    eigh = spectral._eigh
    monkeypatch.setattr(
        spectral, "_eigh", lambda a, vectors=True: rows.append(len(a)) or eigh(a, vectors)
    )
    best, norms = modes._polish(params, params.mu.angles[None])
    assert rows == [] and norms[0] == 0.0
    floor = 8.0 * np.finfo(float).eps * _f_range(params)
    best, norms = modes._polish(params, params.mu.angles[None] + 1e-3)
    assert norms[0] <= floor
    assert len(rows) < modes._POLISH_ROUNDS


# ---------------------------------------------------------------------------
# search configuration


@pytest.mark.parametrize(
    "field,value",
    [
        ("starts_per_dim", 0),
        ("n_random_starts", -1),
        ("seed", -1),
        ("max_iter", -1),
        ("grad_tol", -1.0),
        ("grad_tol", float("inf")),
        ("dedup_radius", 0.0),
        ("dedup_radius", float("nan")),
        ("degeneracy_tol", float("nan")),
        # no two points of the torus are more than pi apart in the sup-metric
        ("dedup_radius", 3.2),
    ],
)
def test_search_config_rejects_out_of_range(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        SearchConfig(**{field: value})


def test_search_config_accepts_smallest_values():
    cfg = SearchConfig(
        starts_per_dim=1,
        n_random_starts=0,
        max_iter=0,
        grad_tol=1e-300,
        dedup_radius=1e-300,
        degeneracy_tol=1e-300,
    )
    report = critical_points(six_mode_params(0.1), cfg)
    assert report.search_meta.starts_used == 1


# ---------------------------------------------------------------------------
# start set


@st.composite
def _start_case(draw):
    p = draw(st.integers(1, 6))
    m = draw(st.integers(1, 5))
    cfg = SearchConfig(
        starts_per_dim=m,
        n_random_starts=draw(st.one_of(st.none(), st.integers(0, 8))),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    mu = np.random.default_rng(cfg.seed).uniform(0.0, TWO_PI, size=p)
    params = MvmParams(mu=mu, kappa=np.ones(p), lam=np.zeros((p, p)))
    return params, cfg, draw(st.integers(1, m**p + 2))


@settings(max_examples=200, deadline=None)
@given(_start_case())
def test_start_points_match_the_stacked_lattice(case):
    # the lattice limit is drawn small, so the subsample meets small lattices
    params, cfg, max_lattice = case
    with mock.patch.object(modes, "_MAX_LATTICE_STARTS", max_lattice):
        starts = _start_points(params, cfg)
    expected = start_points_oracle(params, cfg, max_lattice)
    assert starts.shape == expected.shape
    assert starts.tobytes() == expected.tobytes()


def test_start_points_memory_is_independent_of_the_lattice_size():
    # the 4**20-point lattice would need 176 TB as a stacked array
    p = 20
    params = MvmParams(mu=np.zeros(p), kappa=np.ones(p), lam=np.zeros((p, p)))
    cfg = SearchConfig()
    tracemalloc.start()
    try:
        starts = _start_points(params, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert starts.shape == (modes._MAX_LATTICE_STARTS + 256, p)
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "m,p,fits", [(2, 62, True), (2, 63, False), (4, 32, False), (4, 64, False)]
)
def test_start_lattice_size_limit(m, p, fits):
    # one rule on both sides of an int64 lattice index's reach (fits: m**p
    # < 2**63): the subsample is drawn digit by digit as Python ints
    assert (m**p < 2**63) == fits
    params = MvmParams(mu=np.zeros(p), kappa=np.ones(p), lam=np.zeros((p, p)))
    cfg = SearchConfig(starts_per_dim=m, n_random_starts=0)
    starts = _start_points(params, cfg)
    assert starts.shape == (modes._MAX_LATTICE_STARTS, p)
    offsets = np.pi / m + np.arange(m) * (TWO_PI / m)
    digits = np.abs(starts[:, :, None] - offsets).argmin(axis=2)
    # rows are lattice points, distinct and in lattice (C) order
    assert np.array_equal(offsets[digits], starts)
    assert all(tuple(a) < tuple(b) for a, b in zip(digits[:-1], digits[1:]))
    assert np.array_equal(_start_points(params, cfg), starts)


#: seed-7 start sets: the first five lattice rows and the first five random rows
_PINNED_STARTS = {
    "p6": (
        [
            [4.166784509413793, 2.942232648991373, 3.104316021841094,
             3.1384307385255084, 2.2773090370004567, 1.6195304248785956],
            [4.166784509413793, 2.942232648991373, 3.104316021841094,
             4.709227065320405, 3.8481053637953515, 4.761123078468389],
            [4.166784509413793, 2.942232648991373, 3.104316021841094,
             4.709227065320405, 5.41890169059025, 3.190326751673492],
            [4.166784509413793, 2.942232648991373, 3.104316021841094,
             6.280023392115302, 2.2773090370004567, 3.190326751673492],
            [4.166784509413793, 2.942232648991373, 3.104316021841094,
             6.280023392115302, 5.41890169059025, 3.190326751673492],
        ],
        [
            [1.0479568065838558, 0.3299050544466162, 5.212825592064521,
             1.927954406441465, 1.517361337303063, 3.751512053781857],
            [1.6045650439793366, 2.2284688820256893, 2.411466451134041,
             0.15830012801475313, 5.056634891698192, 4.4763727166401015],
            [5.335850298084738, 0.4568679508452611, 3.3619079928461897,
             1.4794659464265631, 2.9768064581986433, 4.351327578480714],
            [5.690868993491466, 5.769435019180289, 5.0755004561256065,
             0.32280634179187295, 0.8315891147248946, 2.702505043667287],
            [5.663851401323427, 6.208789926006176, 6.275481988150887,
             4.979182427092082, 2.3447746420373665, 2.632645454608836],
        ],
    ),
    "reference": (
        [
            [0.7853981633974483, 0.7853981633974483, 0.7853981633974483],
            [0.7853981633974483, 0.7853981633974483, 2.356194490192345],
            [0.7853981633974483, 0.7853981633974483, 3.9269908169872414],
            [0.7853981633974483, 0.7853981633974483, 5.497787143782138],
            [0.7853981633974483, 2.356194490192345, 0.7853981633974483],
        ],
        [
            [2.034701269983068, 0.9478133132026084, 4.089941916940695],
            [0.45513061209615324, 3.3670459358417375, 2.297691229743574],
            [0.3644179919766519, 3.188312743113666, 0.2355921702057036],
            [2.7246761881093495, 0.4389145710308522, 0.5699666726121587],
            [2.6673327318360354, 5.195265120949573, 0.7778706632954712],
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_STARTS))
def test_start_stream_is_pinned(name):
    # the seed-7 start stream, pinned across versions as the sampler's is: a
    # change to the start rule or its generator moves these numbers, and
    # must update them and say why
    if name == "reference":
        params, lattice = _params([3.0] * 3, REFERENCE_COUPLING), 64
    else:
        params, lattice = random_params(np.random.default_rng(6), 6), 256
    starts = _start_points(params, SearchConfig(seed=7))
    assert starts.shape == (lattice + (32 if params.p <= 4 else 256), params.p)
    head, random_head = _PINNED_STARTS[name]
    np.testing.assert_allclose(starts[:5], head, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(starts[lattice : lattice + 5], random_head, rtol=0.0, atol=1e-15)


#: seed-7 mode reports: point count, kinds in report order, and the first
#: three points' f and angles
_PINNED_REPORTS = {
    "reference": (
        ["Maximum"] + ["Saddle"] * 7 + ["Minimum"] * 2,
        [9.0, 3.0, 3.0],
        [
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 3.141592653589793],
            [1.7763568394002505e-15, 3.141592653589793, 2.088757836940687e-16],
        ],
    ),
    "six_mode": (
        ["Maximum"] * 6 + ["Saddle"] * 19 + ["Minimum"] * 2,
        [1.1098001277262075, 1.1098001277262073, 1.1098001277262075],
        [
            [1.4049476652955867e-17, 1.4707963267948967, 1.4707963267948967],
            [0.0, 4.81238898038469, 4.81238898038469],
            [1.4707963267948967, 0.0, 1.4707963267948967],
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_REPORTS))
def test_mode_report_is_pinned(name):
    # the seed-7 reports, pinned as the start stream is: a change to the
    # search, the classification, the report order or the scale-back moves
    # these, and must update them and say why.  Angles are compared on the
    # torus, since a last-bit change can move an angle at 0 to below 2*pi
    if name == "reference":
        params = _params([3.0] * 3, REFERENCE_COUPLING)
    else:
        params = six_mode_params(0.1)
    criticals = critical_points(params, SearchConfig(seed=7)).criticals
    kinds, head_f, head_angles = _PINNED_REPORTS[name]
    assert [c.kind.value for c in criticals] == kinds
    got = [c.f_value for c in criticals[:3]]
    np.testing.assert_allclose(got, head_f, rtol=0.0, atol=1e-12)
    d = np.abs(np.stack([c.theta.angles for c in criticals[:3]]) - head_angles)
    assert np.all(np.minimum(d, TWO_PI - d) <= 1e-12)


@pytest.mark.parametrize("k", [0, 3])
def test_classifying_no_rows_gives_no_points(k):
    params = _params([3.0] * 3, REFERENCE_COUPLING)
    assert modes._classified(params, np.empty((0, 3)), np.empty(0), 1e-6, k) == []


@pytest.mark.parametrize("kappa", [1e6, 1e300])
def test_search_finds_every_point_at_huge_concentration(kappa):
    # |grad f| cannot be evaluated below about eps * kappa, so a fixed 1e-10
    # level loses the saddles and the minimum once kappa nears 1e6, and at
    # 1e155 and above -H g overflows in the root pass
    params = _params([kappa, kappa], np.array([[0.0, 1.0], [1.0, 0.0]]), mu=[1.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = critical_points(params)
        for c in report.criticals:
            assert classify_critical(params, c.theta).kind is c.kind
    kinds = sorted(c.kind.value for c in report.criticals)
    assert kinds == ["Maximum", "Minimum", "Saddle", "Saddle"]


# ---------------------------------------------------------------------------
# factored Newton steps and the retiring polish against their eigh oracles


@st.composite
def _stack_case(draw):
    """A stack of symmetric Q diag(lam) Q^T, p <= 6, with right-hand sides.
    Each eigenvalue is 0 or has magnitude in [0.1, 10]: away from both
    verdicts' thresholds, and a nonsingular row has condition number at
    most 100."""
    p = draw(st.integers(1, 6))
    n = draw(st.integers(1, 4))
    eig = st.one_of(st.just(0.0), st.floats(0.1, 10.0), st.floats(-10.0, -0.1))
    lam = np.reshape(draw(st.lists(eig, min_size=n * p, max_size=n * p)), (n, p))
    entries = st.floats(-1.0, 1.0, allow_subnormal=False)
    raw = np.reshape(draw(st.lists(entries, min_size=n * p * p, max_size=n * p * p)), (n, p, p))
    q = np.linalg.qr(raw)[0]
    a = np.einsum("nik,nk,njk->nij", q, lam, q)
    rhs = st.floats(-10.0, 10.0, allow_subnormal=False)
    b = np.reshape(draw(st.lists(rhs, min_size=n * p, max_size=n * p)), (n, p))
    return 0.5 * (a + a.transpose(0, 2, 1)), b


@settings(max_examples=300, deadline=None)
@given(_stack_case(), st.booleans())
def test_solve_stack_matches_eigvalsh_and_solve(case, definite):
    a, b = case
    tol = (1e-8 if definite else 1e-10) * np.maximum(1.0, norm_inf(a))
    ok, x = spectral._solve_stack(a, b, tol, definite)
    w = np.linalg.eigvalsh(a)
    nonsingular = np.min(np.abs(w), axis=1) >= 0.05
    if definite:
        assert np.array_equal(ok, np.all(w > tol[:, None], axis=1))
    else:
        # LU pivots bound the smallest singular value from one side only: a
        # zero eigenvalue can be shared out over several pivots above tol
        assert np.all(ok[nonsingular])
    assert np.all(x[~ok] == 0.0)
    rows = ok & nonsingular
    if rows.any():
        ref = np.linalg.solve(a[rows], b[rows][:, :, None])[:, :, 0]
        err = np.max(np.abs(x[rows] - ref), axis=1)
        assert np.all(err <= 1e-12 * np.max(np.abs(ref), axis=1))


def test_solve_stack_matches_its_oracle_on_a_stack():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(64, 5, 5))
    a = a + a.transpose(0, 2, 1)
    a[0] = np.diag([1.0, 0.0, 2.0, -3.0, 4.0])  # an exactly zero pivot fails
    a[1] = np.fliplr(np.eye(5))  # eigenvalues +-1: LU needs its row exchanges
    b = rng.normal(size=(64, 5))
    tol = 1e-8 * np.maximum(1.0, norm_inf(a))
    for matrices in (a, a @ a):  # indefinite, then positive definite
        for definite in (True, False):
            ok, x = spectral._solve_stack(matrices, b, tol, definite)
            expected_ok, expected_x = solve_stack_oracle(matrices, b, tol, definite)
            assert np.array_equal(ok, expected_ok)
            assert not ok[0]
            assert np.allclose(x, expected_x, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize(
    "params",
    [
        _params([3.0, 3.0, 3.0], REFERENCE_COUPLING, mu=[0.3, 1.2, 5.0]),
        six_mode_params(0.1, mu=[2.0, 0.5, 4.0]),
        random_params(np.random.default_rng(6), 6),
        random_params(np.random.default_rng(8), 8),
    ],
    ids=["ref", "six", "rand6", "rand8"],
)
def test_search_matches_the_eigh_oracles(monkeypatch, params):
    # factored Newton steps and the retiring polish find the same unique
    # points and kinds as eigh steps and eight polish rounds on every row
    cfg = SearchConfig(seed=1)
    found = critical_points(params, cfg).criticals
    monkeypatch.setattr(spectral, "_solve_stack", solve_stack_oracle)
    monkeypatch.setattr(modes, "_polish", polish_oracle)
    expected = critical_points(params, cfg).criticals
    assert len(found) == len(expected) > 0
    rows = np.stack([c.theta.angles for c in found])
    for c in expected:
        d = np.abs(rows - c.theta.angles)
        d = np.minimum(d, TWO_PI - d).max(axis=1)
        j = int(np.argmin(d))
        assert d[j] < cfg.dedup_radius
        assert found[j].kind is c.kind


# ---------------------------------------------------------------------------
# Hessian work in row blocks


def _report_json(params, cfg):
    return json.dumps(cli._plain(critical_points(params, cfg)))


def _whole_batch_json(params, cfg):
    # one block however many rows: the stacked path
    with mock.patch.object(modes, "_BLOCK_ROWS", sys.maxsize):
        return _report_json(params, cfg)


@st.composite
def _block_case(draw):
    """Random p = 1..8 sets, certified by row dominance or not, searched
    from the 2**p lattice (at most 256 rows) and 0-40 random starts."""
    p = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = random_params(rng, p)
    if draw(st.booleans()):
        kappa = np.sum(np.abs(params.lam), axis=1) + rng.uniform(0.5, 3.0, size=p)
        params = MvmParams(mu=params.mu.angles, kappa=kappa, lam=params.lam)
    cfg = SearchConfig(
        starts_per_dim=2,
        n_random_starts=draw(st.integers(0, 40)),
        seed=draw(st.integers(0, 2**16)),
    )
    return params, cfg


@settings(max_examples=20, deadline=None)
@given(_block_case())
def test_row_blocks_never_change_a_report(case):
    # blocks of 4 and of 5 rows split every pass, polish and classification
    # with more than that many rows, into blocks of 2 rows or more
    params, cfg = case
    expected = _whole_batch_json(params, cfg)
    for rows in (4, 5):
        with mock.patch.object(modes, "_BLOCK_ROWS", rows):
            assert _report_json(params, cfg) == expected


@pytest.mark.parametrize("rows", [4, 5, 512])
def test_row_blocks_keep_a_p8_report_with_an_odd_remainder(rows):
    # 256 lattice + 1 random start: passes of 257 rows and a polish of 771,
    # which leaves an odd remainder for each block size (cut every 5 rows,
    # one row would be left alone and take BLAS gemv)
    params = random_params(np.random.default_rng(6), 8)
    cfg = SearchConfig(starts_per_dim=2, n_random_starts=1, seed=1)
    with mock.patch.object(modes, "_BLOCK_ROWS", rows):
        report = _report_json(params, cfg)
    assert json.loads(report)["criticals"]
    assert report == _whole_batch_json(params, cfg)


@pytest.mark.parametrize("block", [3, 4, 5, 512])
def test_row_blocks_are_near_equal_and_never_one_row(block):
    sizes = []

    def record(rows):
        sizes.append(len(rows))
        return (rows,)

    def spectra_like(rows, norms):
        # two inputs, outputs of shape (n, p) and (n,), as _spectra returns
        return rows * norms[:, None], rows.sum(axis=1) - norms

    for n in range(1, 4 * block + 2):
        sizes.clear()
        pair = np.arange(3.0 * n).reshape(n, 3), np.arange(n, 0.0, -1.0)
        with mock.patch.object(modes, "_BLOCK_ROWS", block):
            (rows,) = modes._by_blocks(record, np.arange(n))
            got = modes._by_blocks(spectra_like, *pair)
        assert np.array_equal(rows, np.arange(n))
        assert max(sizes) <= block and max(sizes) - min(sizes) <= 1
        assert min(sizes) >= 2 or n == 1
        want = spectra_like(*pair)
        assert len(got) == len(want) == 2
        for g, w in zip(got, want):
            assert g.shape == w.shape and np.array_equal(g, w)


def _random_p16():
    r = random.Random(5)
    p = 16
    lam = np.zeros((p, p))
    for i in range(p):
        for j in range(i + 1, p):
            lam[i, j] = lam[j, i] = r.uniform(-1.0, 1.0)
    kappa = np.array([r.uniform(0.0, 5.0) for _ in range(p)])
    return MvmParams(mu=np.zeros(p), kappa=kappa, lam=lam)


def test_search_memory_is_flat_in_the_start_count():
    # Hessians are stacked at most _BLOCK_ROWS at a time and everything else
    # is O(rows * p), so 8x the starts raise the traced peak about 1.7x; one
    # Hessian stack over every row raised it 4.5x
    params = _random_p16()
    peaks = []
    for n_random in (256, 2048):
        cfg = SearchConfig(n_random_starts=n_random, max_iter=2)
        tracemalloc.start()
        try:
            critical_points(params, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2.5 * peaks[0]
