"""Self-test of the benchmark: every workload at tiny sizes, end-to-end and
traced, must pass its checks and report every metric with a unit.

    python3 -m pytest -q perfbench/tests

Takes about a minute and a half on a 2-core host.  Scratch files go under
``perfbench/.work/`` and are removed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
SCRATCH = HERE / ".work" / "selftest"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

COMMON_E2E = ["setup_s", "wall_s", "cpu_s", "peak_rss_mb", "error_rate"]
WORKLOAD_E2E = {
    "explore": COMMON_E2E + ["certify_s", "modes_s", "grid_s", "criticals_found"],
    "sample_bulk": COMMON_E2E + ["forecast_s", "sample_s", "draws_per_s", "acceptance_rate",
                                 "sample_rss_mb"],
}
WORKLOAD_E2E["sample_rare"] = WORKLOAD_E2E["sample_bulk"]
LAYERS = [
    "import.mvmtorus_s", "import.scipy_special_s",
    "cli.load_param_file_s", "cli.self_s",
    "modes.critical_points_s", "modes.search_self_s", "modes.deduplicate_s",
    "modes.deduplicate.in", "modes.deduplicate.out", "modes.classify_s",
    "modes.classify.calls", "modes.starts", "modes.converged", "modes.converged_ratio",
    "modes.unique_ratio", "modes.euler_char",
    "model.exponent_many_s", "model.grad_many_s", "model.hessian_many_s",
    "model.exponent_many.rows", "model.grad_many.rows", "model.hessian_many.rows",
    "model.hessian_f.calls", "model.grad_many.ns_per_row.p3", "model.grad_many.ns_per_row.p8",
    "model.hessian_many.ns_per_row.p3", "model.hessian_many.ns_per_row.p8",
    "spectral.sym_eigen.calls", "spectral.sym_eigen_s",
    "sampler.sample_mvm_s", "sampler.trials", "sampler.accepted", "sampler.ns_per_trial",
    "sampler.proposal_ns", "sampler.vonmises_ns", "sampler.forecast_z",
    "oracle.log_partition_s", "oracle.log_partition.nodes", "oracle.density_grid_s",
    "oracle.write_density_grid_csv_s", "oracle.csv_rows",
    "oracle.log_partition.p3_n128_s", "oracle.log_partition.p4_n48_s",
    "trace.wall_s", "trace.overhead_s",
]
NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    SCRATCH.mkdir(parents=True, exist_ok=True)
    report = SCRATCH / f"{workload}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny", "--report", str(report)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    doc = json.loads(report.read_text(encoding="utf-8")) if report.exists() else None
    return proc, doc


@pytest.fixture(scope="module", autouse=True)
def _cleanup():
    yield
    shutil.rmtree(SCRATCH, ignore_errors=True)


def test_benchmark_json_schema():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                              "per_layer"}
    assert BENCHMARK["paths"] == ["perfbench"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == ["explore", "sample_bulk", "sample_rare"]
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    all_names = [m["name"] for m in metrics] + names
    assert len(set(all_names)) == len(all_names)
    for m in metrics:
        assert set(m["name"]) <= NAME_CHARS and len(m["name"]) <= 64
        assert m["better"] in ("lower", "higher")
    for m in BENCHMARK["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert set(LAYERS) <= {m["name"] for m in BENCHMARK["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["explore", "sample_bulk", "sample_rare"])
def test_workload_tiny(workload, trace):
    proc, doc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    contract = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in contract}
    for m in contract:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]

    metrics = doc["metrics"][workload]
    expected = LAYERS if trace else WORKLOAD_E2E[workload]
    for name in expected:
        assert name in metrics, name
        assert metrics[name]["unit"], name
    assert metrics["error_rate"]["value"] == 0
    assert doc["env"]["nproc"] >= 1 and doc["env"]["numpy"] and doc["env"]["blas"]
    record = doc["workloads"][workload]
    assert record["inputs"] and record["outputs"]
    for digests in record["outputs"].values():
        assert len(digests) >= 2 and len(set(digests)) == 1
    if trace:
        for step, layers in record["step_self_s"].items():
            assert layers, step


def test_fails_without_package():
    """In a directory holding only BENCHMARK.json and perfbench/, the run
    exits non-zero and prints no result."""
    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explore", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
