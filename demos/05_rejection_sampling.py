"""Exact sampling in the concentrated regime.

When P = diag(kappa) - Lambda is positive definite, a product of
von Mises proposals envelopes the target density, so plain rejection
sampling yields exact draws.  Coordinate i of the proposal is VM(0, d_i),
for any d with P - diag(d) positive semidefinite; the acceptance rate is
forecastable, and approaches sqrt(prod(d) / |P|) as the concentration
grows.  The paper's choice is d = b * 1 with b a lower bound on the
eigenvalues of P; when kappa is heterogeneous the Jacobi-scaled
d = t * diag(P) fits far better.

The sampler and the forecast build the envelope from the parameters;
``lambda_min`` alone overrides it, forcing d = lambda_min * 1.
``ProposalSpec.from_params`` shows the envelope a run will use.

The demo draws a sample, compares empirical against forecast acceptance,
validates a marginal histogram against quadrature ground truth, shows
the replay guarantees (same seed -> identical batch, workers only speed
things up), and compares the scalar and Jacobi envelopes on a
heterogeneous set.
"""

import numpy as np

from mvmtorus import (
    MvmParams,
    ProposalSpec,
    forecast_acceptance,
    marginal_density,
    sample_mvm,
)

params = MvmParams(
    mu=np.array([1.0, 4.5]),
    kappa=np.array([5.0, 5.0]),
    lam=np.array([[0.0, 2.0], [2.0, 0.0]]),
)
spec = ProposalSpec.from_params(params)
print("eigenvalue lower bound:", spec.lambda_min_bound)
print("envelope diagonal d:", spec.d)

forecast = forecast_acceptance(params)
print("forecast acceptance: asymptotic", round(forecast.asymptotic_rate, 5),
      "| exact", round(forecast.exact_rate, 5))

n = 50_000
batch = sample_mvm(params, n, seed=2024)
print(f"\ndrew {batch.n} samples in {batch.trials} proposals "
      f"(empirical acceptance {batch.empirical_acceptance:.5f})")

# Marginal check: histogram frequencies against quadrature marginals.
bins = 12
edges = 2.0 * np.pi * np.arange(bins + 1) / bins
counts, _ = np.histogram(batch.draws[:, 0], bins=edges)
print("\nfirst-coordinate marginal, observed vs expected bin fractions:")
for b in range(bins):
    grid = np.linspace(edges[b], edges[b + 1], 33)
    q = np.trapezoid(marginal_density(params, 0, grid, 128), grid)
    print(f"  [{edges[b]:5.2f}, {edges[b+1]:5.2f})  {counts[b]/n:8.5f}  {q:8.5f}")

# Replay contract: the batch is a pure function of
# (params, n, lambda_min, seed).
again = sample_mvm(params, n, seed=2024)
parallel = sample_mvm(params, n, seed=2024, workers=4)
print("\nreplay identical:   ", np.array_equal(batch.draws, again.draws))
print("4 workers identical:", np.array_equal(batch.draws, parallel.draws))

# A smaller (still valid) bound leaves the sampled law unchanged and only
# lowers the acceptance rate.
loose_batch = sample_mvm(params, n, lambda_min=spec.lambda_min_bound / 2, seed=2024)
print("\nhalved bound acceptance:", round(loose_batch.empirical_acceptance, 5),
      "(law unchanged, efficiency lower)")

# Heterogeneous concentrations: one scalar bound b fits the tight
# coordinates badly, while d = t * diag(P) follows each coordinate's scale.
hetero = MvmParams(
    mu=np.zeros(4),
    kappa=np.array([2.0, 8.0, 8.0, 30.0]),
    lam=np.array([
        [0.0, 0.3, -0.2, 0.4],
        [0.3, 0.0, 0.1, -0.3],
        [-0.2, 0.1, 0.0, 0.2],
        [0.4, -0.3, 0.2, 0.0],
    ]),
)
jacobi = ProposalSpec.from_params(hetero)
print("\nkappa = (2, 8, 8, 30): eigenvalue bound b =", round(jacobi.lambda_min_bound, 5))
print("  chosen d:", np.round(jacobi.d, 5))
for label, lambda_min in (("scalar b*1", jacobi.lambda_min_bound), ("Jacobi", None)):
    f = forecast_acceptance(hetero, lambda_min, n_per_dim=32)
    print(f"  {label:<10} forecast acceptance: asymptotic {f.asymptotic_rate:.5f}"
          f" | exact {f.exact_rate:.5f}")
