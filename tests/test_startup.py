"""The start-up contract of the package and the ``mvmtorus`` command.

``import mvmtorus`` loads no submodule, each CLI command loads only the
modules it uses (only ``sample`` loads ``numpy.random``), and a ``python -m mvmtorus`` process runs OpenBLAS on one
thread unless ``OPENBLAS_NUM_THREADS`` is set.  Each test runs a fresh
interpreter, since this process has long since imported everything.
"""

import json
import os
import subprocess
import sys

import pytest

from conftest import REFERENCE_COUPLING, RING_COUPLING


def run_python(code: str, *argv: str, **kwargs) -> subprocess.CompletedProcess:
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, **kwargs
    )
    assert out.returncode == 0, out.stderr
    return out


def write_params(path, kappa, coupling) -> str:
    path.write_text(json.dumps({"kappa": kappa, "lambda": [list(r) for r in coupling]}))
    return str(path)


def test_package_import_loads_no_numpy():
    code = (
        "import sys, mvmtorus\n"
        "print([m for m in sys.modules if m.startswith(('numpy', 'mvmtorus.'))])"
    )
    assert run_python(code).stdout == "[]\n"


def test_every_exported_name_resolves_lazily():
    code = """
import mvmtorus
listed = dir(mvmtorus)
assert [n for n in mvmtorus.__all__ if n not in listed] == []
assert mvmtorus.oracle.__name__ == "mvmtorus.oracle"  # submodules load on access too
namespace = {}
exec("from mvmtorus import *", namespace)
assert [n for n in mvmtorus.__all__ if n not in namespace] == []
# the moved errors are the same objects everywhere
from mvmtorus import model, sampler
for name in ("NotPositiveDefiniteError", "BoundViolationError", "AcceptanceStallError"):
    assert getattr(mvmtorus, name) is getattr(sampler, name) is getattr(model, name)
print(mvmtorus.sampler.sample_mvm is mvmtorus.sample_mvm)
"""
    assert run_python(code).stdout == "True\n"


def test_certificate_lives_in_spectral():
    code = (
        "import sys\n"
        "from mvmtorus import certify_unimodal\n"
        "print(certify_unimodal.__module__, 'mvmtorus.modes' in sys.modules)"
    )
    assert run_python(code).stdout == "mvmtorus.spectral False\n"


#: per command: its flags and the modules it must not load, package modules
#: by their short names; only sample draws from ``numpy.random``
COMMANDS = {
    "certify": ((), {"modes", "sampler", "oracle", "numpy.random"}),
    "modes": (("--max-iter", "5"), {"sampler", "oracle", "numpy.random"}),
    "sample": (("--n", "10"), {"modes", "oracle"}),
    "forecast": ((), {"modes", "numpy.random"}),
    "grid": (("--n", "4"), {"modes", "sampler", "numpy.random"}),
    "cube": (("--grid-n", "0"), {"modes", "sampler", "numpy.random"}),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_loads_only_its_modules(command, tmp_path):
    flags, unused = COMMANDS[command]
    if command == "cube":
        params = write_params(tmp_path / "ring.json", [0.0] * 3, RING_COUPLING)
    else:
        params = write_params(tmp_path / "ref.json", [3.0] * 3, REFERENCE_COUPLING)
    code = """
import json, sys
from mvmtorus import cli
code = cli.main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    json.dump(sorted(m for m in sys.modules if m.startswith(("mvmtorus.", "numpy.random"))), fh)
sys.exit(code)
"""
    loaded = tmp_path / "loaded.json"
    run_python(code, str(loaded), command, "--params", params, "--out", str(tmp_path / "o"),
               *flags)
    loaded = {m.removeprefix("mvmtorus.") for m in json.loads(loaded.read_text())}
    assert "cli" in loaded and loaded & unused == set()


#: reports, when the child exits, what OpenBLAS was told and how many
#: threads the process runs
THREAD_REPORT = """
import atexit, os, sys

def report():
    tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
    print("blas-threads", os.environ.get("OPENBLAS_NUM_THREADS"), tasks, file=sys.stderr)

atexit.register(report)
"""


@pytest.mark.parametrize("preset", [None, "2"])
def test_cli_runs_one_blas_thread_unless_set(preset, tmp_path):
    hook = tmp_path / "hook"
    hook.mkdir()
    # a sitecustomize module runs in every interpreter that finds it on the
    # path, so the child stays a plain `python -m mvmtorus`
    (hook / "sitecustomize.py").write_text(THREAD_REPORT)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(hook), env.get("PYTHONPATH")]))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    params = write_params(tmp_path / "ref.json", [3.0] * 3, REFERENCE_COUPLING)
    out = subprocess.run(
        [sys.executable, "-m", "mvmtorus", "certify", "--params", params, "--json"],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr
    _, blas, tasks = out.stderr.splitlines()[-1].split()
    assert blas == (preset or "1")
    if preset is None and sys.platform.startswith("linux"):
        assert tasks == "1"
