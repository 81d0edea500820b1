"""Microbenchmarks of single layers, timed from outside through the
package's public functions.  Each result carries its unit and row count."""

from __future__ import annotations

import statistics
import time

import numpy as np

from mvmtorus import model, oracle, sampler

KERNEL_ROWS = 4096
PROPOSAL_ROWS = 65536


def _median_s(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run(ref, p8, p4, reps: int = 15) -> dict[str, dict]:
    """``ref``: the p = 3 reference set; ``p8``: a p = 8 set; ``p4``: a
    p = 4 set.  Returns ``{name: {"value", "unit", "rows"}}``."""
    rng = np.random.default_rng(0)
    out: dict[str, dict] = {}
    for label, params in (("p3", ref), ("p8", p8)):
        thetas = rng.uniform(0.0, 2.0 * np.pi, size=(KERNEL_ROWS, params.p))
        for kernel in ("grad_many", "hessian_many"):
            fn = getattr(model, kernel)
            t = _median_s(lambda: fn(params, thetas), reps)
            out[f"model.{kernel}.ns_per_row.{label}"] = {
                "value": t / KERNEL_ROWS * 1e9, "unit": "ns/row", "rows": KERNEL_ROWS,
            }

    spec = sampler.ProposalSpec.from_params(ref)
    t = _median_s(lambda: sampler.sample_proposal_batch(spec, ref.p, PROPOSAL_ROWS, rng), reps)
    out["sampler.proposal_ns"] = {
        "value": t / PROPOSAL_ROWS * 1e9, "unit": "ns/row", "rows": PROPOSAL_ROWS,
    }
    shape = (PROPOSAL_ROWS, ref.p)
    t = _median_s(lambda: rng.vonmises(0.0, spec.concentration, size=shape), reps)
    out["sampler.vonmises_ns"] = {
        "value": t / (PROPOSAL_ROWS * ref.p) * 1e9, "unit": "ns/draw",
        "rows": PROPOSAL_ROWS * ref.p,
    }

    for name, params, n in (("p3_n128", ref, 128), ("p4_n48", p4, 48)):
        t = _median_s(lambda: oracle.log_partition(params, n), max(3, reps // 5))
        out[f"oracle.log_partition.{name}_s"] = {"value": t, "unit": "s", "rows": n**params.p}
    return out
