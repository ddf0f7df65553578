"""Package hygiene: every exported name exists, every import is used, and
each entry point loads only the modules it runs."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

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


def loaded_modules(code: str) -> set[str]:
    """The matchboard modules held by a fresh interpreter after running code,
    and "dataclasses" or "inspect" when the code loaded it."""
    src = os.path.dirname(matchboard.__path__[0])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    report = (
        "print(*(m for m in sys.modules if m.split('.')[0] == 'matchboard'"
        " or m in ('dataclasses', 'inspect') and m not in before))"
    )
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; before = set(sys.modules)\n{code}\n{report}"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    )
    return set(done.stdout.splitlines()[-1].split())


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--family", "matching", "--n", "4", "--avoid", "123,321", "--by-shape"],
        ["count", "--family", "partition", "--n", "5", "--avoid", "312"],
        ["count", "--family", "matching", "--n", "4", "--avoid", "312", "--stat", "valleys"],
        ["count", "--family", "matching", "--n", "7", "--avoid", "123"],
        ["count", "--family", "matching", "--n", "4", "--avoid", "312", "--by-shape",
         "--stat", "valleys"],
    ],
    ids=["by-shape", "partition", "valleys", "matching", "by-shape-valleys"],
)
def test_count_loads_no_series_code(argv):
    # a count that the scan answers loads no series code, no object model
    # (model, bijections) and no dataclasses
    loaded = loaded_modules(f"from matchboard import cli\nassert cli.main({argv!r}) == 0")
    assert loaded == {
        "matchboard", "matchboard.errors", "matchboard.cli", "matchboard.patterns",
        "matchboard.families",
    }, sorted(loaded)


def test_cross_check_with_a_scan_oracle_loads_no_object_model():
    argv = ["cross-check", "--formula", "p312", "--max-n", "5"]
    loaded = loaded_modules(f"from matchboard import cli\nassert cli.main({argv!r}) == 0")
    assert "matchboard.families" in loaded
    unused = {"matchboard.model", "matchboard.bijections", "dataclasses"}
    assert not loaded & unused, sorted(loaded)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "all", "--max-n", "4"],
        ["apply", "--map", "kappa", "--input", "(1,6)(2,12)(3,4)(5,7)(8,10)(9,11)"],
        ["apply", "--map", "delta321", "--input", "border:EEESESSEESSS;rooks:5,1,6,4,3,2"],
        ["count", "--family", "pair", "--n", "4"],
        ["count", "--family", "placement-minimal", "--n", "4", "--avoid", "321"],
        ["count", "--family", "labeled-L-peak", "--n", "4"],
        ["cross-check", "--formula", "dnk_pairs", "--max-n", "5"],
    ],
    ids=["verify", "apply-kappa", "apply-delta321", "count-pairs", "count-minimal",
         "count-labeled", "cross-check-dnk-pairs"],
)
def test_object_model_loads_no_dataclasses(argv):
    # the value classes are slotted classes, so building objects loads
    # neither dataclasses nor the inspect module it imports
    loaded = loaded_modules(f"from matchboard import cli\nassert cli.main({argv!r}) == 0")
    assert "matchboard.model" in loaded
    assert not loaded & {"dataclasses", "inspect"}, sorted(loaded)


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_dataclasses(name):
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert "dataclasses" not in imported


def test_series_loads_only_errors():
    loaded = loaded_modules("import matchboard.series")
    assert loaded == {"matchboard", "matchboard.errors", "matchboard.series"}


def test_cli_loads_only_errors():
    loaded = loaded_modules("import matchboard.cli")
    assert loaded == {"matchboard", "matchboard.errors", "matchboard.cli"}


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--formula", "m312", "--order", "5"],
        ["series", "--formula", "dnk_pairs", "--order", "5"],
        ["series", "--formula", "x", "--order", "5"],
        ["series", "--help"],
    ],
    ids=["series", "dnk-pairs", "bad-formula", "help"],
)
def test_series_command_loads_no_enumeration_code(argv):
    loaded = loaded_modules(f"from matchboard import cli\ncli.main({argv!r})")
    enumeration = {f"matchboard.{m}" for m in ("families", "bijections", "model", "patterns")}
    assert "matchboard.formulas" in loaded
    assert not loaded & (enumeration | {"dataclasses"}), sorted(loaded)


def test_formulas_load_no_enumeration_code():
    loaded = loaded_modules("import matchboard.formulas")
    enumeration = {f"matchboard.{m}" for m in ("families", "bijections", "model", "patterns")}
    assert not loaded & enumeration, sorted(loaded & enumeration)
