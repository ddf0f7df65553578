"""Package hygiene: every exported name exists."""

import importlib
import pkgutil

import pytest

import matchboard

MODULES = ["matchboard"] + sorted(
    f"matchboard.{m.name}" for m in pkgutil.iter_modules(matchboard.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing
