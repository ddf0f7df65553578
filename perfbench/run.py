"""matchboard benchmark: one closed-loop client runs a workload's ops one at
a time, each in a fresh interpreter with PYTHONPATH=src, checks every op's
stdout, and prints the end-to-end metrics (or, with --trace 1, the
per-layer metrics) by name with their units.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

End-to-end times are host-normalized: the client and its op children share
one CPU, and while an op runs the client times a short fixed probe loop on
that CPU every PROBE_EVERY_S; each op's wall time is scaled by
PROBE_REF_S / (mean probe time during the op).  This cancels the host's
speed changes (other tenants on the same physical core), which move raw
wall times by up to 1.8x between runs of the same code.

    python3 perfbench/run.py --workload count --seed 1 --seconds 30 --trace 0

Workloads, metrics and the layer table are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import INCLUSIVE, LAYERS
from workloads import WORKLOADS, Op, build_ops, judge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"  # per-op private cwds and trace files; git-ignored
CHILD = HERE / "child.py"

SETUP_REPS = 9
PROBE_ITERS = 2000
PROBE_EVERY_S = 0.02
# about what the probe takes on an uncontended CPU of the 2-vCPU Xeon
# (Sapphire Rapids) KVM guest the baseline was taken on
PROBE_REF_S = 125e-6
OP_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 170.0  # a run must exit within 180 s
PYTHONHASHSEED = "0"

END_TO_END_UNITS = {"wall_s": "s", "op_geomean_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "patterns.calls": "count",
    "model.calls": "count",
    "bijections.calls": "count",
    "families.profile_s": "s",
    "families.objects": "count",
    "families.cache_hit_ratio": "ratio",
    "series.mul_calls": "count",
    "series.inverse_calls": "count",
    "series.fe_s": "s",
    "series.residual_s": "s",
    "series.max_coeff_bits": "bits",
    "series.terms": "count",
    "formulas.primary_s": "s",
    "formulas.secondary_s": "s",
    "formulas.oracle_s": "s",
    "cli.stdout_bytes": "bytes",
    "proc.cpu_s": "s",
    "trace.overhead_frac": "ratio",
}


@dataclass
class OpResult:
    op: Op
    wall_s: float
    norm_s: float  # wall_s, host-normalized (equal to wall_s when not probed)
    cpu_s: float
    maxrss_kb: int
    stdout: bytes
    error: str | None
    trace: dict | None = None


def op_env() -> dict:
    """Hermetic child environment: no result cache file, fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if k not in ("MATCHBOARD_CACHE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = PYTHONHASHSEED
    return env


def pin_to_one_cpu() -> None:
    """Pin this process, and so every child it starts, to one CPU, so that
    the probe measures the CPU the op runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def probe() -> float:
    """Time of a fixed pure-Python loop."""
    started = time.perf_counter()
    s = 0
    for i in range(PROBE_ITERS):
        s += i * i % 7
    return time.perf_counter() - started


def host_factor(probes: list[float]) -> float:
    """PROBE_REF_S over the mean probe time; probes that were preempted
    (over 3x the median) are left out."""
    cap = 3 * statistics.median(probes)
    return PROBE_REF_S / statistics.fmean(p for p in probes if p <= cap)


def spawn(argv: list[str], cwd: Path, timeout: float, probed: bool = False):
    """Run argv to completion; returns (wall s, host-normalized wall s,
    rusage, exit code, timed out).  stdout and stderr go to files in cwd.
    With probed, a thread of this process times probe() every PROBE_EVERY_S
    while the child runs; otherwise the normalized time is the wall time."""
    probes: list[float] = []
    done = threading.Event()

    def probing():
        while True:
            probes.append(probe())
            if done.wait(PROBE_EVERY_S):
                return

    with open(cwd / "stdout", "wb") as out, open(cwd / "stderr", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=op_env(), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        fired = threading.Event()

        def kill():
            fired.set()
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:  # exited just as the timer fired
                pass

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        prober = threading.Thread(target=probing, daemon=True)
        if probed:
            prober.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            done.set()
            if probed:
                prober.join()
        wall = time.perf_counter() - started
    # reaped by wait4 above; tell Popen so that it does not wait again
    proc.returncode = os.waitstatus_to_exitcode(status)
    norm = wall * host_factor(probes) if probed else wall
    return wall, norm, usage, proc.returncode, fired.is_set()


def run_op(op: Op, timeout: float, traced: bool = False, probed: bool = False) -> OpResult:
    cwd = Path(tempfile.mkdtemp(prefix="op-", dir=WORK))
    try:
        argv = [sys.executable, str(CHILD)]
        if traced:
            argv += ["--trace", str(cwd / "trace.json")]
        wall, norm, usage, code, timed_out = spawn(argv + list(op.argv), cwd, timeout, probed)
        stdout = (cwd / "stdout").read_bytes()
        stderr = (cwd / "stderr").read_bytes()
        if timed_out:
            error = f"timed out after {timeout:.0f} s"
        elif code != 0:
            error = f"exit code {code}: {stderr[-300:]!r}"
        elif b"Traceback" in stderr:
            error = "traceback on stderr"
        else:
            error = judge(op, stdout)
        trace = None
        if traced and error is None:
            trace = json.loads((cwd / "trace.json").read_text())
            keep = WORK / "trace" / f"{op.name}.json"
            keep.parent.mkdir(parents=True, exist_ok=True)
            os.replace(cwd / "trace.json", keep)
        return OpResult(op, wall, norm, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                        stdout, error, trace)
    finally:
        shutil.rmtree(cwd, ignore_errors=True)


def measure_setup(reps: int = SETUP_REPS) -> tuple[float, float]:
    """Median time, raw and host-normalized, from spawning an interpreter to
    `import matchboard.cli` completing.  One unmeasured spawn first writes
    the bytecode cache."""
    cwd = Path(tempfile.mkdtemp(prefix="setup-", dir=WORK))
    try:
        argv = [sys.executable, "-c", "import matchboard.cli"]
        raw, norm = [], []
        for i in range(reps + 1):
            wall, host, _, code, _ = spawn(argv, cwd, OP_TIMEOUT_S, probed=True)
            if code != 0:
                raise SystemExit(f"import matchboard.cli failed: {(cwd / 'stderr').read_text()}")
            raw.append(wall)
            norm.append(host)
        return statistics.median(raw[1:]), statistics.median(norm[1:])
    finally:
        shutil.rmtree(cwd, ignore_errors=True)


class Clock:
    """Per-op timeouts that keep the whole run inside RUN_DEADLINE_S."""

    def __init__(self):
        self.start = time.perf_counter()

    def timeout(self) -> float:
        left = RUN_DEADLINE_S - (time.perf_counter() - self.start)
        return min(OP_TIMEOUT_S, left)


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def pass_metrics(ops: list[Op], results: list[OpResult], time_of) -> dict:
    """wall_s: median over passes of the pass's summed op times;
    op_geomean_s: geometric mean over the ops of each op's median time."""
    n = len(ops)
    passes = [sum(time_of(r) for r in results[i:i + n]) for i in range(0, len(results), n)]
    per_op = {op.name: [] for op in ops}
    for r in results:
        per_op[r.op.name].append(time_of(r))
    return {"wall_s": statistics.median(passes),
            "op_geomean_s": geomean(statistics.median(v) for v in per_op.values())}


def end_to_end(ops: list[Op], seconds: int, clock: Clock) -> tuple[dict, dict, list[OpResult]]:
    """Whole passes over the ops until the next pass would overrun `seconds`
    (always at least one).  Returns the host-normalized metrics, the same
    metrics from raw wall times, and every op result."""
    results: list[OpResult] = []
    passes: list[float] = []
    started = time.perf_counter()
    while True:
        t = time.perf_counter()
        results += [run_op(op, clock.timeout(), probed=True) for op in ops]
        passes.append(time.perf_counter() - t)
        if time.perf_counter() - started + statistics.median(passes) > seconds:
            break
    metrics = pass_metrics(ops, results, lambda r: r.norm_s)
    metrics["peak_rss_mb"] = max(r.maxrss_kb for r in results) / 1024
    return metrics, pass_metrics(ops, results, lambda r: r.wall_s), results


def per_layer(ops: list[Op], clock: Clock) -> tuple[dict, list[OpResult]]:
    """One pass; each op runs untraced, then traced, and both stdouts must
    be byte-identical."""
    plain, traced = [], []
    for op in ops:
        a = run_op(op, clock.timeout())
        b = run_op(op, clock.timeout(), traced=True)
        if b.error is None and b.stdout != a.stdout:
            b.error = "traced stdout differs from untraced stdout"
        plain.append(a)
        traced.append(b)
    summaries = [r.trace for r in traced if r.trace is not None]

    def total(key: str, name: str) -> float:
        return sum(s[key].get(name, 0) for s in summaries)

    def calls(prefix: str) -> int:
        return sum(n for s in summaries for q, n in s["calls"].items() if q.startswith(prefix))

    hits = sum(s["profile_hits"] for s in summaries)
    lookups = hits + sum(s["profile_misses"] for s in summaries)
    m = {f"{layer}.self_s": total("self_s", layer) for layer in LAYERS}
    for name in ("patterns", "model", "bijections"):
        m[f"{name}.calls"] = calls(f"{name}.")
    for metric in set(INCLUSIVE.values()):
        m[metric] = sum(total("inclusive_s", q) for q, k in INCLUSIVE.items() if k == metric)
    m["families.objects"] = total("yields", "families") + sum(s["profile_objects"] for s in summaries)
    m["families.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    m["series.mul_calls"] = sum(
        total("calls", f"series.{cls}.{meth}")
        for cls in ("TruncSeries", "AuxSeries") for meth in ("__mul__", "__rmul__")
    )
    m["series.inverse_calls"] = total("calls", "series.TruncSeries.inverse") + total(
        "calls", "series.AuxSeries.inverse")
    m["series.max_coeff_bits"] = max((s["series_max_bits"] for s in summaries), default=0)
    m["series.terms"] = sum(s["series_terms"] for s in summaries)
    m["cli.stdout_bytes"] = sum(len(r.stdout) for r in plain if r.op.is_cli)
    m["proc.cpu_s"] = sum(r.cpu_s for r in plain)
    m["trace.overhead_frac"] = sum(r.wall_s for r in traced) / sum(r.wall_s for r in plain) - 1
    return {k: m[k] for k in PER_LAYER_UNITS}, plain + traced


def read_git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    clock = Clock()
    stamp = {"workload": workload, "seed": seed, "git_sha": read_git_sha(),
             "python": platform.python_version(), "nproc": os.cpu_count(),
             "loadavg_start": loadavg()}
    ops = build_ops(workload, seed)
    if trace:
        metrics, results = per_layer(ops, clock)
        units = PER_LAYER_UNITS
    else:
        raw_setup_s, setup_s = measure_setup()
        metrics, raw, results = end_to_end(ops, seconds, clock)
        metrics["setup_s"] = setup_s
        stamp["raw_wall_time"] = {**raw, "setup_s": raw_setup_s}
        units = END_TO_END_UNITS
    stamp["loadavg_end"] = loadavg()
    failed = [r for r in results if r.error is not None]
    print(f"# workload {workload}: {len(ops)} ops, {len(results)} runs, {len(failed)} failed")
    for r in failed:
        print(f"#   FAIL {r.op.name}: {r.error}")
    for name, value in metrics.items():
        print(f"{workload:8s} {name:26s} {value:14.6f} {units[name]}")
    print(f"{workload:8s} {'fail_frac':26s} {len(failed) / len(results):14.6f} ratio")
    print("# stamp " + json.dumps(stamp, sort_keys=True))
    return {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "matchboard" / "cli.py").is_file():
        print(f"error: no matchboard sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    pin_to_one_cpu()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    docs = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    if len(docs) == 1:
        (doc,) = docs.values()
    else:
        doc = {
            "correct": all(d["correct"] for d in docs.values()),
            "attempted": sum(d["attempted"] for d in docs.values()),
            "failed": sum(d["failed"] for d in docs.values()),
            "metrics": {f"{w}.{k}": v for w, d in docs.items() for k, v in d["metrics"].items()},
        }
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
