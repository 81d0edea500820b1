"""Certifying unimodality from the matrix P = diag(kappa) - Lambda.

Two sufficient conditions are checked:

* P positive definite          -> the density has its only maximum at mu;
* kappa_i > sum_j |lambda_ij|  -> additionally, the only minimum sits at
                                  the antipode mu + pi.

Both are sufficient, not necessary: an inconclusive certificate does not
prove multimodality.  The demo walks a coupling matrix with spectrum
{-4, 2, 2} through three concentration levels, showing how the verdict
changes, and cross-checks each verdict against a multi-start mode search.
"""

import numpy as np

from mvmtorus import MvmParams, certify_unimodal, critical_points

coupling = np.array(
    [
        [0.0, -2.0, 2.0],
        [-2.0, 0.0, 2.0],
        [2.0, 2.0, 0.0],
    ]
)

for level in (1.0, 3.0, 5.0):
    params = MvmParams(mu=np.zeros(3), kappa=np.full(3, level), lam=coupling)
    cert = certify_unimodal(params)
    print(f"kappa = {level} * (1,1,1)")
    print("  P eigenvalues:", np.round(cert.p_eigenvalues, 12))
    print(
        "  Gershgorin discs: centers",
        cert.gershgorin.centers,
        "radii",
        cert.gershgorin.radii,
    )
    print("  positive definite:", cert.prop1_holds)
    print("  row dominance:    ", cert.cor1_holds)
    print("  verdict:          ", cert.verdict.value)

    report = critical_points(params)
    kinds = {}
    for c in report.criticals:
        kinds[c.kind.value] = kinds.get(c.kind.value, 0) + 1
    print("  search found:     ", kinds)
    print()

# At kappa = 3 the distribution is certified unimodal even though row
# dominance fails (3 < |-2| + |2|); the search confirms a single maximum.
# At kappa = 5 dominance holds and the single minimum at mu + pi appears
# in the report as well, with every remaining critical point a saddle.
