"""Every benchmark op gives correct stdout when run in this process: an op
whose stdout is recorded under perfbench/golden gives the same bytes, and
every other op of each workload's first pass passes its own check (a
reference count, a closed form, or an exact library result).  The
benchmark's op list and library round trips are read from perfbench/
without importing it as a package."""

import json
import runpy
from pathlib import Path

import pytest

from matchboard import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))
child = runpy.run_path(str(PERFBENCH / "child.py"))

CHECKED_OPS = [
    op
    for workload in workloads["WORKLOADS"]
    for op in workloads["build_ops"](workload, 0)
    if op.check != "golden"
]


def _stdout(op, capsys) -> bytes:
    if op.is_cli:
        cli.main(list(op.argv[1:]))
        return capsys.readouterr().out.encode()
    _, name, *args = op.argv
    return (json.dumps(child["LIB"][name](*args), sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("op", workloads["golden_ops"](), ids=lambda op: op.name)
def test_stdout_equals_golden(op, capsys):
    assert workloads["check_golden"](_stdout(op, capsys), op.want) is None


@pytest.mark.parametrize("op", CHECKED_OPS, ids=lambda op: op.name)
def test_stdout_passes_its_check(op, capsys):
    assert workloads["judge"](op, _stdout(op, capsys)) is None
