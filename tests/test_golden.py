"""Every benchmark op whose stdout is recorded under perfbench/golden gives
the same bytes when run in this process.  The benchmark's op list and library
round trips are read from perfbench/ without importing it as a package."""

import json
import runpy
from pathlib import Path

import pytest

from matchboard import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))
child = runpy.run_path(str(PERFBENCH / "child.py"))


@pytest.mark.parametrize("op", workloads["golden_ops"](), ids=lambda op: op.name)
def test_stdout_equals_golden(op, capsys):
    if op.is_cli:
        cli.main(list(op.argv[1:]))
        out = capsys.readouterr().out.encode()
    else:
        _, name, *args = op.argv
        out = (json.dumps(child["LIB"][name](*args), sort_keys=True) + "\n").encode()
    assert workloads["check_golden"](out, op.want) is None
