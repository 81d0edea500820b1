"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see the
lines as they go by)."""

import json
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (
    REFERENCE_COUPLING,
    RING_COUPLING,
    TWO_MODE_COUPLING,
    heterogeneous_params,
    random_params,
    six_mode_params,
    six_mode_table,
)
from mvmtorus import (
    MvmParams,
    PointKind,
    ProposalSpec,
    TorusPoint,
    certify_unimodal,
    critical_points,
    exponent_f,
    exponent_many,
    forecast_acceptance,
    grad_f,
    hessian_f,
    kappa_zero_analysis,
    sample_mvm,
    sym_eigen,
)
from mvmtorus.oracle import marginal_density
from mvmtorus.sampler import log_envelope_constant, log_proposal_density

TWO_PI = 2.0 * np.pi


@contextmanager
def criterion(cid: str, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {cid} FAIL: {description}")
        raise
    print(f"[acceptance] {cid} PASS: {description}")


def test_c01_reference_spectra():
    with criterion("C1", "reference matrix spectra to 1e-10"):
        lam_values = sym_eigen(REFERENCE_COUPLING).values
        assert lam_values == pytest.approx([-4.0, 2.0, 2.0], abs=1e-10)
        p_values = sym_eigen(np.diag([3.0] * 3) - REFERENCE_COUPLING).values
        assert p_values == pytest.approx([1.0, 1.0, 7.0], abs=1e-10)
        h_values = sym_eigen(np.diag([3.0] * 3) + REFERENCE_COUPLING).values
        assert h_values == pytest.approx([-1.0, 5.0, 5.0], abs=1e-10)


def test_c02_two_mode_search():
    with criterion("C2", "two-mode coupling: exactly 2 maxima at s = +-(1,1,1)"):
        params = MvmParams(mu=np.zeros(3), kappa=np.zeros(3), lam=TWO_MODE_COUPLING)
        report = critical_points(params)
        assert report.n_maxima == 2
        signs = []
        for m in report.maxima:
            s = np.sin(m.theta.angles)
            assert np.max(np.abs(np.abs(s) - 1.0)) < 1e-6
            signs.append(tuple(int(np.sign(x)) for x in s))
        assert set(signs) == {(1, 1, 1), (-1, -1, -1)}
        cube = kappa_zero_analysis(TWO_MODE_COUPLING)
        assert set(cube.best_vertices) == set(signs)


@pytest.mark.parametrize("eta", [0.05, 0.1])
def test_c03_six_mode_search(eta):
    with criterion(
        "C3", f"six-mode family (eta={eta}): table match, Hessians, spectra"
    ):
        eps = np.sin(eta)
        params = six_mode_params(eta)
        report = critical_points(params)
        assert report.n_maxima == 6
        for target, hessian_expected in six_mode_table(eta):
            matches = [
                m
                for m in report.maxima
                if m.theta.distance(TorusPoint(target)) < 1e-6
            ]
            assert len(matches) == 1
            located = matches[0]
            h = hessian_f(params, located.theta)
            assert np.max(np.abs(h - hessian_expected)) < 1e-10
            assert located.hessian_eigenvalues == pytest.approx(
                [-1.0, -1.0, -eps], abs=5.0 * eps * eps
            )


def test_c04_ring_extended_mode():
    with criterion("C4", "ring coupling: flat ridge reported as extended mode"):
        params = MvmParams(mu=np.zeros(3), kappa=np.zeros(3), lam=RING_COUPLING)
        report = critical_points(params)
        assert report.extended_mode_suspected
        ridge = report.degenerate
        assert len(ridge) >= 20
        values = np.array([c.f_value for c in ridge])
        assert np.max(values) - np.min(values) < 1e-9
        for c in ridge:
            assert np.max(np.abs(np.sin(c.theta.angles))) > 0.999


def test_c05_certificate_search_consistency():
    with criterion(
        "C5", "100 random (kappa, Lambda): certificates agree with the search"
    ):
        rng = np.random.default_rng(1234)
        certified = 0
        for _ in range(100):
            p = int(rng.integers(2, 4))
            params = random_params(rng, p, kappa_range=(0.5, 5.0), coupling_scale=1.5)
            cert = certify_unimodal(params)
            if not cert.prop1_holds:
                continue
            certified += 1
            report = critical_points(params)
            assert report.n_maxima == 1
            assert report.maxima[0].theta.distance(params.mu) < 1e-8
            if cert.cor1_holds:
                assert len(report.minima) == 1
                assert (
                    report.minima[0].theta.distance(params.mu.antipode()) < 1e-8
                )
        assert certified >= 30  # the sweep must actually exercise the claim


def test_c06_sampler_exactness():
    with criterion(
        "C6", "p=2 sampler: marginals within 4 SE per bin, acceptance within 3 SE"
    ):
        params = MvmParams(
            mu=np.zeros(2),
            kappa=np.array([5.0, 5.0]),
            lam=np.array([[0.0, 2.0], [2.0, 0.0]]),
        )
        n = 100_000
        batch = sample_mvm(params, n, seed=0)
        bins = 64
        edges = TWO_PI * np.arange(bins + 1) / bins
        for dim in (0, 1):
            counts, _ = np.histogram(batch.draws[:, dim], bins=edges)
            for b in range(bins):
                grid = np.linspace(edges[b], edges[b + 1], 17)
                q = np.trapezoid(marginal_density(params, dim, grid, 128), grid)
                se = np.sqrt(n * q * (1.0 - q))
                assert abs(counts[b] - n * q) <= 4.0 * se
        rate = forecast_acceptance(params).exact_rate
        se = np.sqrt(rate * (1.0 - rate) / batch.trials)
        assert abs(batch.empirical_acceptance - rate) <= 3.0 * se


def test_c06b_sampler_exactness_heterogeneous_p4():
    with criterion(
        "C6b",
        "p=4, kappa=(2,8,8,30), Jacobi envelope: marginals within 4 SE per bin, "
        "acceptance within 3 SE",
    ):
        rng = np.random.default_rng(5)
        lam = np.triu(rng.uniform(-0.5, 0.5, size=(4, 4)), k=1)
        params = MvmParams(
            mu=rng.uniform(0.0, TWO_PI, size=4),
            kappa=np.array([2.0, 8.0, 8.0, 30.0]),
            lam=lam + lam.T,
        )
        spec = ProposalSpec.from_params(params)
        assert spec.d != (spec.lambda_min_bound,) * 4
        n = 20_000
        batch = sample_mvm(params, n, seed=0)
        n_per_dim = 32  # log Z within 1e-7 of n = 48 here
        bins = 64
        edges = TWO_PI * np.arange(bins + 1) / bins
        grids = np.linspace(edges[:-1], edges[1:], 17, axis=1)
        for dim in range(4):
            counts, _ = np.histogram(batch.draws[:, dim], bins=edges)
            dens = marginal_density(params, dim, grids, n_per_dim)
            q = np.trapezoid(dens, grids, axis=1)
            # the kappa = 30 marginal leaves tail bins expecting far below
            # one draw, where a binomial SE means nothing: pool those bins
            sparse = n * q < 5.0
            counts = np.append(counts[~sparse], counts[sparse].sum())
            q = np.append(q[~sparse], q[sparse].sum())
            se = np.sqrt(n * q * (1.0 - q))
            assert np.all(np.abs(counts - n * q) <= 4.0 * se)
        rate = forecast_acceptance(params, n_per_dim=n_per_dim).exact_rate
        se = np.sqrt(rate * (1.0 - rate) / batch.trials)
        assert abs(batch.empirical_acceptance - rate) <= 3.0 * se


def test_c07_acceptance_rate_asymptotics():
    with criterion(
        "C7", "acceptance rate approaches the asymptote as concentration grows"
    ):
        # the default envelope draws one coordinate of ref from its
        # conditional: its asymptote sqrt(prod(d) / |P|) takes d_q = kappa_q
        # = 3 and d' = lambda_min(P_q) = 1, so sqrt(3/7), and tends to the
        # rate as kappa grows (0.845 against exact 0.834 at kappa = 10,
        # 0.9759 against 0.976 at 80); the paper's scalar envelope, which
        # lambda_min forces, gives 1/sqrt(7)
        ref3 = MvmParams(mu=np.zeros(3), kappa=np.full(3, 3.0), lam=REFERENCE_COUPLING)
        assert abs(forecast_acceptance(ref3).asymptotic_rate - np.sqrt(3.0 / 7.0)) < 1e-12
        bound = ProposalSpec.from_params(ref3).lambda_min_bound
        asym3 = forecast_acceptance(ref3, lambda_min=bound).asymptotic_rate
        assert abs(asym3 - 1.0 / np.sqrt(7.0)) < 1e-12

        deviations = []
        slacks = []
        for t in (10.0, 20.0, 40.0, 80.0):
            params = MvmParams(
                mu=np.zeros(3), kappa=np.full(3, t), lam=REFERENCE_COUPLING
            )
            forecast = forecast_acceptance(params)
            batch = sample_mvm(params, 40_000, seed=0)
            emp = batch.empirical_acceptance
            deviations.append(abs(emp / forecast.asymptotic_rate - 1.0))
            se = np.sqrt(emp * (1.0 - emp) / batch.trials)
            slacks.append(3.0 * se / forecast.asymptotic_rate)
        for k in range(len(deviations) - 1):
            assert deviations[k + 1] <= deviations[k] + slacks[k] + slacks[k + 1]
        assert deviations[-1] < 0.05


def test_c08_derivatives_match_finite_differences():
    with criterion("C8", "500 random points: gradient and Hessian vs central FD"):
        rng = np.random.default_rng(77)
        h = 1e-5
        for _ in range(500):
            p = int(rng.integers(1, 5))
            params = random_params(rng, p)
            theta = rng.uniform(0.0, TWO_PI, size=p)
            grad = grad_f(params, TorusPoint(theta))
            hess = hessian_f(params, TorusPoint(theta))
            fd_grad = np.empty(p)
            fd_hess = np.empty((p, p))
            for i in range(p):
                step = np.zeros(p)
                step[i] = h
                fd_grad[i] = (
                    exponent_f(params, TorusPoint(theta + step))
                    - exponent_f(params, TorusPoint(theta - step))
                ) / (2.0 * h)
                fd_hess[i] = (
                    grad_f(params, TorusPoint(theta + step))
                    - grad_f(params, TorusPoint(theta - step))
                ) / (2.0 * h)
            g_scale = max(1.0, float(np.max(np.abs(grad))))
            h_scale = max(1.0, float(np.max(np.abs(hess))))
            assert np.max(np.abs(grad - fd_grad)) / g_scale < 1e-6
            assert np.max(np.abs(hess - fd_hess)) / h_scale < 1e-6


def test_c09_envelope_bound_validity():
    with criterion(
        "C9",
        "1e6 random points across 10 certified sets, plus 1e5 on each of 6 "
        "with a kappa spread >= 10x: f <= log C + log g",
    ):
        rng = np.random.default_rng(4242)
        sets = []
        while len(sets) < 10:
            p = int(rng.integers(1, 4))
            params = random_params(rng, p, kappa_range=(1.0, 6.0), coupling_scale=1.0)
            if certify_unimodal(params).prop1_holds:
                sets.append(params)
        hetero_rng = np.random.default_rng(4343)
        for p in (2, 2, 3, 3, 4, 4):
            params = heterogeneous_params(hetero_rng, p)
            while not certify_unimodal(params).prop1_holds:
                params = heterogeneous_params(hetero_rng, p)
            sets.append(params)
        for params in sets:
            spec = ProposalSpec.from_params(params)
            log_c = log_envelope_constant(params, spec)
            thetas = rng.uniform(0.0, TWO_PI, size=(100_000, params.p))
            f = exponent_many(params, thetas)
            log_g = log_proposal_density(params, spec, thetas - params.mu.angles)
            assert np.max(f - (log_c + log_g)) <= 1e-10


def test_c10_sample_command_determinism(tmp_path):
    with criterion(
        "C10", "sample CLI: byte-identical CSV across runs and shard counts"
    ):
        param_file = tmp_path / "params.json"
        param_file.write_text(
            json.dumps(
                {
                    "kappa": [5.0, 5.0],
                    "lambda": [[0.0, 2.0], [2.0, 0.0]],
                    "seed": 99,
                }
            )
        )
        outputs = []
        for name, shards in (("a", 1), ("b", 1), ("c", 4)):
            path = tmp_path / f"{name}.csv"
            result = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "mvmtorus",
                    "sample",
                    "--params",
                    str(param_file),
                    "--n",
                    "10000",
                    "--shards",
                    str(shards),
                    "--out",
                    str(path),
                ],
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]  # repeated runs
        assert outputs[0] == outputs[2]  # sharded equals unsharded
