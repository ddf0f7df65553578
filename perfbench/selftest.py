"""Self-tests of the benchmark at tiny sizes (a few seconds in all):

    python3 -m pytest -q perfbench/selftest.py

The file name keeps them out of the package's own test run.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, build_ops  # noqa: E402


@pytest.fixture(autouse=True)
def _work_dir():
    run.WORK.mkdir(exist_ok=True)


def tiny_ops() -> list[Op]:
    return [
        Op("t.count", ("cli", "count", "--family", "matching", "--n", "4", "--avoid", "123"),
           "total", 84, "reference"),
        Op("t.shape", ("cli", "count", "--family", "matching", "--n", "5", "--avoid", "123,321",
                       "--by-shape"), "by_shape", 313, "reference"),
        Op("t.series", ("cli", "series", "--formula", "maps", "--order", "8"),
           "series", ("maps", 8), "closed-form"),
        Op("t.routes", ("lib", "routes", "catalan_v", "8"), "series", ("catalan_v", 8),
           "closed-form"),
        Op("t.kappa", ("lib", "kappa", "3"), "exact", (("matchings", 15), ("mismatch", 0)),
           "closed-form"),
    ]


def test_reference_copy_matches_package():
    from matchboard.reference import TABLE_MATCHINGS, TABLE_PAIR_CLASSES, TABLE_PARTITIONS

    for tau, want in workloads.M7.items():
        assert TABLE_MATCHINGS[tau][6] == want
    for tau, want in workloads.M6.items():
        assert TABLE_MATCHINGS[tau][5] == want
    for tau, row in workloads.P_N.items():
        assert all(TABLE_PARTITIONS[tau][n] == v for n, v in row.items())
    for cls, want in workloads.PAIR7.items():
        assert TABLE_PAIR_CLASSES[cls][6] == want


CORRUPTED = {
    "t.count": 85,
    "t.shape": 314,
    "t.series": ("catalan_v", 8),
    "t.routes": ("maps", 8),
    "t.kappa": (("matchings", 16), ("mismatch", 0)),
}


def test_ops_pass_and_corrupted_expectation_fails():
    for op in tiny_ops():
        assert run.run_op(op, 60).error is None, op.name
        bad = Op(op.name, op.argv, op.check, CORRUPTED[op.name], op.source)
        assert run.run_op(bad, 60).error is not None, op.name


def test_nonzero_exit_and_missing_golden_fail():
    usage_error = Op("t.bad", ("cli", "count", "--family", "matching", "--n", "x"),
                     "total", 0, "reference")
    assert "exit code 2" in run.run_op(usage_error, 60).error
    assert workloads.judge(Op("t.gold", (), "golden", "no-such-op", "seed-stdout"), b"") \
        == "no recorded seed stdout no-such-op.out"


def test_traced_stdout_is_identical_and_counts_repeat():
    ops = tiny_ops()
    first, results = run.per_layer(ops, run.Clock())
    assert all(r.error is None for r in results), [r.error for r in results]
    assert set(first) == set(run.PER_LAYER_UNITS)
    second, _ = run.per_layer(ops, run.Clock())
    for name, unit in run.PER_LAYER_UNITS.items():
        if unit in ("count", "bits", "bytes"):
            assert first[name] == second[name], name
    assert first["patterns.calls"] > 0 and first["model.calls"] > 0
    assert first["series.mul_calls"] > 0 and first["cli.stdout_bytes"] > 0


def test_same_seed_same_op_list():
    for w in workloads.WORKLOADS:
        assert build_ops(w, 7) == build_ops(w, 7)
        assert any(build_ops(w, 7) != build_ops(w, s) for s in range(8, 12))


def _slots(ops: list[Op]) -> list:
    """What must not depend on the seed: the op names (the drawn CLI series
    ids aside), the subcommands and every size argument."""
    out = []
    for op in ops:
        name = "cli-series" if op.name.startswith("cli-series.") else op.name
        sizes = tuple(a for prev, a in zip(op.argv, op.argv[1:])
                      if a.isdigit() and prev != "--avoid")
        out.append((name, op.argv[:2], sizes))
    return sorted(out)


def test_other_seed_draws_from_same_pools_at_same_sizes():
    pools = {f"count.m7.pair{c}": p for c, p in workloads.PAIR_POOLS.items()}
    pools.update({f"count.p{n}": workloads.SINGLETON_POOL for n in (10, 11)})
    for w in workloads.WORKLOADS:
        base = _slots(build_ops(w, 1))
        for seed in range(2, 12):
            ops = build_ops(w, seed)
            assert _slots(ops) == base
            for op in ops:
                if op.name in pools:
                    assert op.argv[op.argv.index("--avoid") + 1] in pools[op.name]
            drawn = [op.argv[3] for op in ops if op.name.startswith("cli-series.")]
            if w == "series":
                for pool, k in workloads.CLI_SERIES_DRAWS:
                    assert sum(f in pool for f in drawn) == k


def test_every_golden_op_has_recorded_stdout():
    for op in workloads.golden_ops():
        assert (workloads.GOLDEN_DIR / f"{op.name}.out").is_file(), op.name


def test_benchmark_json_names_the_reported_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_host_factor_scales_by_mean_probe_and_drops_preempted_probes():
    assert run.host_factor([2 * run.PROBE_REF_S] * 9 + [1.0]) == pytest.approx(0.5)
    assert run.host_factor([run.PROBE_REF_S, 3 * run.PROBE_REF_S]) == pytest.approx(0.5)


def test_probed_spawn_normalizes_and_unprobed_does_not():
    cwd = Path(tempfile.mkdtemp(dir=run.WORK))
    argv = [sys.executable, "-c", "pass"]
    try:
        wall, norm, _, code, timed_out = run.spawn(argv, cwd, 60, probed=True)
        assert code == 0 and not timed_out and norm > 0 and norm != wall
        wall, norm, _, code, _ = run.spawn(argv, cwd, 60)
        assert code == 0 and norm == wall
    finally:
        shutil.rmtree(cwd)
