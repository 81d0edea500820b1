"""Benchmark of the ``mvmtorus`` command-line interface.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: a fixed sequence of
``python -m mvmtorus ...`` invocations (``PYTHONPATH=<repo>/src``), each
started after the previous one exits.  The parameter files are generated
from ``--seed``; the CLI receives only those files.

``--trace 0`` times whole passes of the workload in fresh interpreters and
prints the end-to-end metrics.  ``--trace 1`` is a separate run: it times
interpreter import, runs one untraced pass, then repeats the pass in
process through ``mvmtorus.cli.main(argv)`` with spans around the layer
functions (see ``tracing.py``), runs the microbenchmarks (``micro.py``),
and prints the per-layer metrics.

Every correctness check runs in the same command and counts in
``error_rate``; any failed check makes the exit code 1.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the ``end_to_end`` or ``per_layer`` names of BENCHMARK.json).
``--workload all`` runs the three workloads with their passes interleaved
and prefixes each metric with its workload.  ``--report PATH`` also writes
the whole record (environment, input and output digests, every metric,
every check, per-step timings and, when tracing, the spans).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: units of every end-to-end metric a workload can report
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "certify_s": "s",
    "modes_s": "s",
    "grid_s": "s",
    "criticals_found": "count",
    "forecast_s": "s",
    "sample_s": "s",
    "draws_per_s": "1/s",
    "acceptance_rate": "ratio",
    "sample_rss_mb": "MB",
    "error_rate": "ratio",
}
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
MAX_TRACED_REPEATS = 5
#: self times of a step must sum to its traced wall within this many seconds
SELF_SUM_TOL_S = 1e-6


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Invocation:
    """One finished child: wall from spawn to exit, rusage, exit code."""

    def __init__(self, argv, cwd: Path, stdout: Path, env: dict):
        with open(stdout, "wb") as out, open(str(stdout) + ".err", "wb") as err:
            self.t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            self.t1 = time.perf_counter()
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.wall_s = self.t1 - self.t0
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB

    def record(self) -> dict:
        return {"wall_s": self.wall_s, "cpu_s": self.cpu_s, "rss_mb": self.rss_mb, "rc": self.rc}


def cli(args, cwd: Path, stdout: Path) -> Invocation:
    return Invocation([sys.executable, "-m", "mvmtorus", *args], cwd, stdout, child_env())


def environment() -> dict:
    probe = (
        "import json, numpy; d = numpy.show_config(mode='dicts');"
        "b = d['Build Dependencies']['blas'];"
        "print(json.dumps(b.get('name', '?') + ' ' + str(b.get('version', '?'))))"
    )
    try:
        blas = json.loads(subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env=child_env(), timeout=60, check=True,
        ).stdout)
    except (subprocess.SubprocessError, ValueError) as exc:
        blas = f"unknown ({type(exc).__name__})"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": blas,
        "blas_threads": {
            k: os.environ.get(k, "unset")
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


class WorkloadRun:
    """State of one workload within a benchmark invocation."""

    def __init__(self, name: str, seed: int, scale: str, seconds: float, workdir: Path):
        self.name = name
        self.seed = seed
        self.sizes = wl.SIZES[scale]
        self.passes = wl.pass_count(name, seconds)
        self.workdir = workdir
        self.steps = wl.steps(name, self.sizes)
        self.checks = wl.Checks()
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, list[str]] = {}
        self.setup_s: list[float] = []
        self.warmup_s: list[float] = []
        self.pass_records: list[dict] = []
        self.searches: dict[str, dict] = {}
        self.sample_info: dict = {}
        self.units = dict(E2E_UNITS)
        # traced runs only: spans per repeat (parent indices are per
        # repeat), self time per step of the first repeat, microbenchmarks
        self.spans: list[list[list]] = []
        self.step_self: dict[str, dict] = {}
        self.micro: dict[str, dict] = {}
        workdir.mkdir(parents=True, exist_ok=True)

    # -- set-up -----------------------------------------------------------

    def write_params(self, k: int) -> None:
        for fname, digest in wl.write_params(self.workdir, wl.param_docs(self.name, self.seed, k)).items():
            self.inputs[f"pass{k}/{fname}" if fname.startswith("rand") else fname] = digest

    def setup(self) -> None:
        """Parameter files for pass 0 plus one warm-up CLI invocation, so
        bytecode compilation is not charged to the first timed pass."""
        t0 = time.perf_counter()
        self.write_params(0)
        inv = cli(["--version"], self.workdir, self.workdir / "warmup.stdout")
        self.setup_s.append(time.perf_counter() - t0)
        self.warmup_s.append(inv.wall_s)
        self.checks.add(f"{self.name} warm-up exit 0", inv.rc == 0, f"rc {inv.rc}")

    # -- passes -----------------------------------------------------------

    def run_pass(self, k: int) -> None:
        """One untraced pass in fresh interpreters, then its checks."""
        self.write_params(k)
        invs = [cli(s.argv, self.workdir, self.workdir / s.stdout) for s in self.steps]
        self.pass_records.append({
            "wall_s": invs[-1].t1 - invs[0].t0,
            "cpu_s": sum(i.cpu_s for i in invs),
            "peak_rss_mb": max(i.rss_mb for i in invs),
            "steps": {s.name: i.record() for s, i in zip(self.steps, invs)},
        })
        for s, i in zip(self.steps, invs):
            self.checks.add(f"{s.name} pass {k} exit 0", i.rc == 0, f"rc {i.rc}")
        self.check_outputs(f"pass{k}")

    def check_outputs(self, label: str) -> None:
        """Content checks; a CSV is checked in full once and must then keep
        the same bytes on every later repeat."""
        for s in self.steps:
            try:
                self.check_step(s, label)
            except wl.OUTPUT_ERRORS as exc:
                self.checks.add(f"{s.name} {label} output in the documented layout", False, repr(exc))

    def check_step(self, s: wl.Step, label: str) -> None:
        stdout = self.workdir / s.stdout
        if s.command == "certify":
            wl.check_certify(self.checks, stdout)
        elif s.command == "modes":
            self.searches[f"{label}/{s.stem}"] = wl.check_modes(self.checks, s, stdout)
        if s.out is None:
            return
        out = self.workdir / s.out
        if not self.checks.add(f"{s.out} written", out.is_file()):
            return
        digests = self.outputs.setdefault(s.out, [])
        digests.append(wl.sha256_file(out))
        if len(digests) > 1:
            self.checks.add(f"{s.out} bytes identical to first repeat", digests[-1] == digests[0])
        elif s.command == "grid":
            n = self.sizes["grid_n"]
            wl.check_csv(self.checks, s.out, out, n * n, angles_only=False)
        elif s.command == "sample":
            forecast = self.workdir / f"forecast.{s.stem}.stdout"
            n = int(s.argv[s.argv.index("--n") + 1])
            self.sample_info = wl.check_sample(self.checks, forecast, out, n)

    # -- metrics ----------------------------------------------------------

    def step_median(self, prefix: str, key: str = "wall_s") -> float:
        """Median over passes of a step quantity summed over the steps
        whose name starts with ``prefix``."""
        return statistics.median(
            sum(v[key] for name, v in rec["steps"].items() if name.startswith(prefix))
            for rec in self.pass_records
        )

    def e2e_metrics(self) -> dict[str, float]:
        recs = self.pass_records
        m = {
            "setup_s": statistics.median(self.setup_s),
            "wall_s": statistics.median(r["wall_s"] for r in recs),
            "cpu_s": statistics.median(r["cpu_s"] for r in recs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in recs),
        }
        if self.name == "explore":
            m["certify_s"] = self.step_median("certify.")
            m["modes_s"] = self.step_median("modes.")
            m["grid_s"] = self.step_median("grid.")
            m["criticals_found"] = sum(
                v.get("unique", 0) for key, v in self.searches.items() if key.startswith("pass0/")
            )
        else:
            m["forecast_s"] = self.step_median("forecast.")
            m["sample_s"] = self.step_median("sample.")
            m["sample_rss_mb"] = self.step_median("sample.", "rss_mb")
            if self.sample_info:
                m["draws_per_s"] = self.sample_info["accepted"] / m["sample_s"]
                m["acceptance_rate"] = self.sample_info["accepted"] / self.sample_info["trials"]
        return m

    # -- traced run -------------------------------------------------------

    def trace(self, seconds: float, scale: str) -> dict[str, float]:
        """Import timings, one untraced pass, traced in-process repeats of
        the same pass until ``seconds`` have passed, microbenchmarks."""
        deadline = time.perf_counter() + seconds
        metrics = {
            "import.mvmtorus_s": self.import_time("mvmtorus.cli"),
            "import.scipy_special_s": self.import_time("scipy.special"),
            # a whole `mvmtorus --version` child: what every invocation pays
            # before its command runs, and again at exit
            "import.cli_start_s": statistics.median(self.warmup_s),
        }
        self.run_pass(0)
        untraced = self.pass_records[0]["wall_s"]

        sys.path.insert(0, str(SRC))
        from mvmtorus import cli as mvm_cli

        tracer = tracing.Tracer()
        tracing.install(tracer)
        reps: list[dict] = []
        try:
            for rep in range(MAX_TRACED_REPEATS):
                tracer.spans = spans = []
                self.spans.append(spans)
                for s in self.steps:
                    tracer.step = f"{s.name}#{rep}"
                    rc = self.step_in_process(mvm_cli, s, tracer.span("cli.main"))
                    self.checks.add(f"{s.name} traced repeat {rep} exit 0", rc == 0, f"rc {rc}")
                self.check_outputs(f"traced{rep}")
                reps.append(tracing.layer_metrics(spans))
                summaries = tracing.step_summaries(spans)
                reps[-1]["trace.wall_s"] = sum(v["wall_s"] for v in summaries.values())
                for step, v in summaries.items():
                    gap = abs(v["self_sum_s"] - v["wall_s"])
                    self.checks.add(f"{step} self times sum to traced wall", gap <= SELF_SUM_TOL_S,
                                    f"gap {gap:.2e} s")
                if rep == 0:
                    self.step_self = {k: v["self_s"] for k, v in summaries.items()}
                if time.perf_counter() >= deadline:
                    break
        finally:
            tracer.restore()

        # the same pass in process, warm, without wrappers: the base for the
        # cost of the wrappers themselves
        plain = 0.0
        for s in self.steps:
            t0 = time.perf_counter()
            rc = self.step_in_process(mvm_cli, s, contextlib.nullcontext())
            plain += time.perf_counter() - t0
            self.checks.add(f"{s.name} in-process exit 0", rc == 0, f"rc {rc}")

        for name in reps[0]:
            metrics[name] = statistics.median(r[name] for r in reps)
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - (
            untraced - len(self.steps) * metrics["import.cli_start_s"]
        )
        metrics["trace.span_overhead_s"] = metrics["trace.wall_s"] - plain
        self.micro = self.run_micro(3 if scale == "tiny" else 15)
        metrics.update({k: v["value"] for k, v in self.micro.items()})
        self.units.update(tracing.LAYER_UNITS)
        self.units.update({k: "s" for k in metrics if k.startswith(("import.", "trace."))})
        self.units.update({k: v["unit"] for k, v in self.micro.items()})
        return metrics

    def step_in_process(self, mvm_cli, step: wl.Step, span) -> int:
        """``mvmtorus.cli.main(argv)`` inside ``span``, with the work
        directory as cwd and stdout/stderr sent to the step's files."""
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with open(step.stdout, "w", encoding="utf-8") as out, \
                    open(step.stdout + ".err", "w", encoding="utf-8") as err, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    with span:
                        return mvm_cli.main(list(step.argv))
                except SystemExit as exc:
                    return exc.code if isinstance(exc.code, int) else 1
                except Exception:  # noqa: BLE001 - a failing step is a failed check
                    traceback.print_exc()
                    return -1
        finally:
            os.chdir(cwd)

    def import_time(self, module: str) -> float:
        code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
        times = []
        for i in range(IMPORT_REPEATS):
            out = self.workdir / "import.stdout"
            inv = Invocation([sys.executable, "-c", code], self.workdir, out, child_env())
            if self.checks.add(f"import {module} #{i} exit 0", inv.rc == 0, f"rc {inv.rc}"):
                times.append(float(out.read_text()))
        return statistics.median(times) if times else 0.0

    def run_micro(self, reps: int) -> dict[str, dict]:
        import micro
        import numpy as np
        from mvmtorus import MvmParams

        def params(doc):
            return MvmParams(mu=np.asarray(doc["mu"]), kappa=np.asarray(doc["kappa"]),
                             lam=np.asarray(doc["lambda"]))

        explore = wl.param_docs("explore", self.seed, 0)
        rare = wl.param_docs("sample_rare", self.seed, 0)
        return micro.run(params(explore["ref"]), params(explore["rand8"]), params(rare["rare"]), reps)

    def record(self) -> dict:
        out = {
            "passes": len(self.pass_records),
            "inputs": self.inputs,
            "outputs": self.outputs,
            "searches": self.searches,
            "sample": self.sample_info,
            "setup_s": self.setup_s,
            "pass_records": self.pass_records,
        }
        if self.spans:
            out["step_self_s"] = self.step_self
            out["micro"] = self.micro
            out["spans"] = [
                [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "step": s[4], "attrs": s[5]}
                 for s in spans]
                for spans in self.spans
            ]
        return out


def contract_metrics(trace: bool) -> dict[str, str]:
    """Metric names and units the last line must carry (BENCHMARK.json)."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(wl.SIZES), default="full",
                        help="tiny shrinks grid and sample sizes for the self-test")
    parser.add_argument("--report", default=None, help="write the full record as JSON here")
    args = parser.parse_args(argv)

    if not (SRC / "mvmtorus" / "__main__.py").is_file():
        print(f"error: no package source at {SRC}/mvmtorus", file=sys.stderr)
        return 2
    contract = contract_metrics(bool(args.trace))

    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    try:
        runs = [WorkloadRun(n, args.seed, args.scale, args.seconds, work / n) for n in names]
        metrics: dict[str, dict[str, float]] = {}
        for run in runs:
            for _ in range(SETUP_REPEATS):
                run.setup()
        if args.trace:
            for run in runs:
                m = run.trace(args.seconds, args.scale)
                m["setup_s"] = statistics.median(run.setup_s)
                metrics[run.name] = m
        else:
            for k in range(max(r.passes for r in runs)):
                for run in runs:  # interleaved, so host drift hits every workload alike
                    if k < run.passes:
                        run.run_pass(k)
            for run in runs:
                metrics[run.name] = run.e2e_metrics()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.checks.attempted for r in runs)
    failed = sum(r.checks.failed for r in runs)
    final: dict[str, dict] = {}
    for run in runs:
        m = metrics[run.name]
        m["error_rate"] = run.checks.failed / run.checks.attempted
        print(f"workload {run.name} seed {args.seed} trace {args.trace} passes "
              f"{len(run.pass_records)} scale {args.scale}")
        for fname, digest in run.inputs.items():
            print(f"  input  {fname} sha256 {digest}")
        for fname, digests in run.outputs.items():
            print(f"  output {fname} sha256 {digests[0]} x{len(digests)}")
        for key, s in run.searches.items():
            print(f"  search {key} " + json.dumps(s))
        for step, layers in run.step_self.items():
            top = ", ".join(f"{k} {v:.4f}" for k, v in list(layers.items())[:3])
            print(f"  self   {step}: {top}")
        for name, value in m.items():
            print(f"  metric {name} = {value:.6g} {run.units[name]}")
        for c in run.checks.items:
            if not c["ok"]:
                print(f"  FAILED {c['name']} {c['detail']}")
        prefix = f"{run.name}." if args.workload == "all" else ""
        for name, unit in contract.items():
            if name in m:
                final[prefix + name] = {"value": m[name], "unit": unit}
            else:
                failed += 1
                attempted += 1
                print(f"  FAILED metric {name} missing")

    if args.report:
        doc = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "scale": args.scale, "env": env,
            "metrics": {r.name: {k: {"value": v, "unit": r.units[k]}
                                 for k, v in metrics[r.name].items()} for r in runs},
            "checks": {r.name: r.checks.items for r in runs},
            "workloads": {r.name: r.record() for r in runs},
        }
        Path(args.report).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": final}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
