import importlib

import pytest

MODULES = ["mvmtorus", "mvmtorus.model", "mvmtorus.spectral", "mvmtorus.modes",
           "mvmtorus.sampler", "mvmtorus.oracle"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
