import importlib
import pkgutil

import pytest

import squeeze_dyn

MODULES = ["squeeze_dyn"] + [
    f"squeeze_dyn.{info.name}" for info in pkgutil.iter_modules(squeeze_dyn.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    assert len(set(exported)) == len(exported)
