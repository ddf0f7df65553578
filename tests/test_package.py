"""Package hygiene: every exported name exists and every import is used."""

import ast
import importlib
import inspect
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


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    module = importlib.import_module(name)
    tree = ast.parse(inspect.getsource(module))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = imported - used - set(getattr(module, "__all__", ()))
    assert not unused, sorted(unused)
