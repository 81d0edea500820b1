"""In-process span tracing of the CLI, recorded from outside the package.

The traced run calls ``mvmtorus.cli.main(argv)`` once per workload step with
the public layer functions replaced by timing wrappers.  Each wrapper is
installed on the module where its caller looks the name up (``modes``
imports the ``model`` kernels by name, so ``mvmtorus.modes.grad_many`` is
wrapped, not ``mvmtorus.model.grad_many``).  Functions called more than
~1e4 times per step (``angular_distance`` inside ``deduplicate``) are not
wrapped; their work is counted by the input and output sizes of the
wrapped caller instead.

Spans stay in memory as ``[name, start, end, parent, step, attrs]`` lists
and are returned to the caller when the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

from workloads import forecast_z

NAME, START, END, PARENT, STEP, ATTRS = range(6)


class Tracer:
    """Span recorder for one thread; ``step`` tags every span opened."""

    def __init__(self):
        self.spans: list[list] = []
        self.step: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, self.step, None])
        self._stack.append(idx)
        self.spans[idx][START] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.  ``count(args,
        kwargs, result)`` may return a dict of counters for the span; it
        runs after the span closes."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self.spans[idx][ATTRS] = count(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the CLI crosses."""
    from mvmtorus import cli, modes, oracle, sampler, spectral

    def rows(args, kwargs, out):
        return {"rows": len(args[1])}

    def report(args, kwargs, out):
        morse = [0] * (len(out.criticals[0].theta) + 1) if out.criticals else [0]
        for c in out.criticals:
            morse[int((c.hessian_eigenvalues < 0.0).sum())] += 1
        return {
            "starts": out.search_meta.starts_used,
            "converged": out.search_meta.converged,
            "unique": len(out.criticals),
            "morse_counts": morse,
            "euler_char": sum((-1) ** k * n for k, n in enumerate(morse)),
        }

    def dedup(args, kwargs, out):
        return {"in": len(args[0]), "out": len(out)}

    def sample(args, kwargs, out):
        return {"trials": out.trials, "accepted": out.n}

    def forecast(args, kwargs, out):
        return {"exact_rate": out.exact_rate}

    def nodes(args, kwargs, out):
        n = args[1] if len(args) > 1 and args[1] else oracle.default_n_per_dim(args[0].p)
        return {"nodes": n ** args[0].p}

    def grid_rows(args, kwargs, out):
        return {"rows": int(out.size)}

    for owner, attr, name, count in (
        (cli, "load_param_file", "cli.load_param_file", None),
        (modes, "certify_unimodal", "modes.certify_unimodal", None),
        (modes, "critical_points", "modes.critical_points", report),
        (modes, "deduplicate", "modes.deduplicate", dedup),
        (modes, "exponent_many", "model.exponent_many", rows),
        (modes, "grad_many", "model.grad_many", rows),
        (modes, "hessian_many", "model.hessian_many", rows),
        (modes, "hessian_f", "model.hessian_f", None),
        (modes, "exponent_f", "model.exponent_f", None),
        (spectral, "sym_eigen", "spectral.sym_eigen", None),
        (sampler, "sample_mvm", "sampler.sample_mvm", sample),
        (sampler, "forecast_acceptance", "sampler.forecast_acceptance", forecast),
        (oracle, "log_partition", "oracle.log_partition", nodes),
        (oracle, "write_density_grid_csv", "oracle.write_density_grid_csv", None),
        (oracle, "density_grid", "oracle.density_grid", grid_rows),
    ):
        tracer.wrap(owner, attr, name, count)


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans: list[list]) -> tuple[list[float], list[float]]:
    """Duration and self time (duration minus child durations) per span.
    Spans come from one thread, so children never overlap."""
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            child[s[PARENT]] += dur[i]
    return dur, [d - c for d, c in zip(dur, child)]


def step_summaries(spans: list[list]) -> dict[str, dict]:
    """Per step: traced wall (root span), the sum of all self times, and
    self time per layer."""
    dur, own = self_times(spans)
    out: dict[str, dict] = {}
    for i, s in enumerate(spans):
        step = out.setdefault(s[STEP], {"wall_s": 0.0, "self_sum_s": 0.0, "self_s": defaultdict(float)})
        if s[PARENT] is None:
            step["wall_s"] += dur[i]
        step["self_sum_s"] += own[i]
        step["self_s"][s[NAME]] += own[i]
    for step in out.values():
        step["self_s"] = dict(sorted(step["self_s"].items(), key=lambda kv: -kv[1]))
    return out


#: per-layer metrics of the traced pass, with units
LAYER_UNITS = {
    "cli.load_param_file_s": "s",
    "cli.self_s": "s",
    "modes.critical_points_s": "s",
    "modes.search_self_s": "s",
    "modes.deduplicate_s": "s",
    "modes.deduplicate.in": "count",
    "modes.deduplicate.out": "count",
    "modes.classify_s": "s",
    "modes.classify.calls": "count",
    "modes.starts": "count",
    "modes.converged": "count",
    "modes.converged_ratio": "ratio",
    "modes.unique_ratio": "ratio",
    "modes.euler_char": "count",
    "model.exponent_many_s": "s",
    "model.exponent_many.rows": "count",
    "model.grad_many_s": "s",
    "model.grad_many.rows": "count",
    "model.hessian_many_s": "s",
    "model.hessian_many.rows": "count",
    "model.hessian_f.calls": "count",
    "spectral.sym_eigen.calls": "count",
    "spectral.sym_eigen_s": "s",
    "sampler.sample_mvm_s": "s",
    "sampler.trials": "count",
    "sampler.accepted": "count",
    "sampler.ns_per_trial": "ns",
    "sampler.forecast_z": "z",
    "oracle.log_partition_s": "s",
    "oracle.log_partition.nodes": "count",
    "oracle.density_grid_s": "s",
    "oracle.write_density_grid_csv_s": "s",
    "oracle.csv_rows": "count",
}

_CLASSIFY = ("model.hessian_f", "spectral.sym_eigen", "model.exponent_f")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Fold one pass of spans into the LAYER_UNITS metrics.  A layer the
    pass never entered reads 0."""
    dur, own = self_times(spans)
    total = defaultdict(float)  # span name -> summed duration
    selft = defaultdict(float)
    calls = defaultdict(int)
    attrs = defaultdict(float)  # "<span name>.<counter>" -> summed value
    classify_s = 0.0
    classify_calls = 0
    euler = 0
    for i, s in enumerate(spans):
        name = s[NAME]
        total[name] += dur[i]
        selft[name] += own[i]
        calls[name] += 1
        for key, value in (s[ATTRS] or {}).items():
            if isinstance(value, (int, float)):
                attrs[f"{name}.{key}"] += value
        parent = s[PARENT]
        if name in _CLASSIFY and parent is not None and spans[parent][NAME] == "modes.critical_points":
            classify_s += dur[i]
            classify_calls += name == "model.hessian_f"
        if name == "modes.critical_points":
            euler += abs((s[ATTRS] or {}).get("euler_char", 0))

    starts = attrs["modes.critical_points.starts"]
    converged = attrs["modes.critical_points.converged"]
    trials = attrs["sampler.sample_mvm.trials"]
    accepted = attrs["sampler.sample_mvm.accepted"]
    rate = attrs["sampler.forecast_acceptance.exact_rate"]
    metrics = {
        "cli.load_param_file_s": total["cli.load_param_file"],
        "cli.self_s": selft["cli.main"],
        "modes.critical_points_s": total["modes.critical_points"],
        "modes.search_self_s": selft["modes.critical_points"],
        "modes.deduplicate_s": total["modes.deduplicate"],
        "modes.deduplicate.in": attrs["modes.deduplicate.in"],
        "modes.deduplicate.out": attrs["modes.deduplicate.out"],
        "modes.classify_s": classify_s,
        "modes.classify.calls": classify_calls,
        "modes.starts": starts,
        "modes.converged": converged,
        # each start runs three passes (ascent, descent, root)
        "modes.converged_ratio": converged / (3 * starts) if starts else 0.0,
        "modes.unique_ratio": attrs["modes.critical_points.unique"] / converged if converged else 0.0,
        # sum over searches of |chi|; chi(T^p) = 0 for a complete search
        "modes.euler_char": euler,
        "spectral.sym_eigen.calls": calls["spectral.sym_eigen"],
        "spectral.sym_eigen_s": total["spectral.sym_eigen"],
        "model.hessian_f.calls": calls["model.hessian_f"],
        "sampler.sample_mvm_s": total["sampler.sample_mvm"],
        "sampler.trials": trials,
        "sampler.accepted": accepted,
        "sampler.ns_per_trial": total["sampler.sample_mvm"] / trials * 1e9 if trials else 0.0,
        "sampler.forecast_z": forecast_z(accepted, trials, rate) if trials and rate else 0.0,
        "oracle.log_partition_s": total["oracle.log_partition"],
        "oracle.log_partition.nodes": attrs["oracle.log_partition.nodes"],
        "oracle.density_grid_s": total["oracle.density_grid"],
        "oracle.write_density_grid_csv_s": total["oracle.write_density_grid_csv"],
        "oracle.csv_rows": attrs["oracle.density_grid.rows"],
    }
    for kernel in ("exponent_many", "grad_many", "hessian_many"):
        metrics[f"model.{kernel}_s"] = total[f"model.{kernel}"]
        metrics[f"model.{kernel}.rows"] = attrs[f"model.{kernel}.rows"]
    return metrics
