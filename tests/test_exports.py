import importlib
from pathlib import Path

import pytest

MODULES = ["mvmtorus", "mvmtorus.model", "mvmtorus.spectral", "mvmtorus.modes",
           "mvmtorus.sampler", "mvmtorus.oracle"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_readme_quick_start_runs():
    # the README's first python block, its 1e7-draw stream cut to 1e5 draws
    readme = Path(__file__).resolve().parents[1] / "README.md"
    code = readme.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    assert "10_000_000" in code
    exec(compile(code.replace("10_000_000", "100_000"), str(readme), "exec"), {})
