"""Evaluating the sine-model density and its derivatives.

The distribution on the p-torus is governed by the exponent

    f(theta) = kappa^T cos(theta - mu) + 0.5 sin(theta - mu)^T Lambda sin(theta - mu)

This script builds a 3-dimensional instance, evaluates f, its gradient and
Hessian, checks the derivatives against finite differences, and normalizes
the density with the quadrature partition function.
"""

import numpy as np

from mvmtorus import (
    MvmParams,
    TorusPoint,
    exponent_f,
    grad_f,
    hessian_f,
    log_density,
    log_partition,
)

rng = np.random.default_rng(0)

# A mildly coupled, mildly concentrated instance.
params = MvmParams(
    mu=np.array([0.8, 2.4, 5.0]),
    kappa=np.array([2.0, 1.0, 3.0]),
    lam=np.array(
        [
            [0.0, 0.6, -0.4],
            [0.6, 0.0, 0.9],
            [-0.4, 0.9, 0.0],
        ]
    ),
)

print("parameters")
print("  mu    =", params.mu.angles)
print("  kappa =", params.kappa)
print("  P     =\n", params.p_matrix())

# At the mean the sine terms vanish: f(mu) is just the kappa sum.
print("\nf(mu) =", exponent_f(params, params.mu), "= sum(kappa) =", params.kappa.sum())

theta = TorusPoint(rng.uniform(0.0, 2.0 * np.pi, size=3))
f, grad, hess = exponent_f(params, theta), grad_f(params, theta), hessian_f(params, theta)
print("\nat a random point", theta.angles)
print("  f        =", f)
print("  gradient =", grad)
print("  hessian  =\n", hess)

# Central finite differences reproduce the analytic gradient.
h = 1e-5
fd = np.empty(3)
for i in range(3):
    step = np.zeros(3)
    step[i] = h
    fd[i] = (
        exponent_f(params, theta + step) - exponent_f(params, theta - step)
    ) / (2.0 * h)
print("\nfinite-difference gradient:", fd)
print("max deviation:             ", np.max(np.abs(fd - grad)))

# Normalizing with the quadrature partition function gives a proper density.
log_z = log_partition(params)
print("\nlog Z =", log_z)
print("normalized log-density at theta:", log_density(params, theta, log_z))

# Sanity: integrate exp(log-density) on a coarse grid; the total is ~1.
n = 48
nodes = 2.0 * np.pi * np.arange(n) / n
grid = np.stack(np.meshgrid(nodes, nodes, nodes, indexing="ij"), axis=-1)
from mvmtorus import exponent_many

total = np.sum(np.exp(exponent_many(params, grid) - log_z)) * (2.0 * np.pi / n) ** 3
print("density integrates to:", total)
