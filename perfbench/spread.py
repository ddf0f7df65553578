"""Run the benchmark once per seed and report, for each metric, the median,
the quartiles and the spread (third minus first quartile, as a share of the
median) over the runs; with --out, also write every run to a JSON file.

    python3 perfbench/spread.py --workload count --seeds 1-10 [--trace 1] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BOUNDS = {m["name"]: m.get("bound") for m in
          json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    runs = []
    for seed in seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        started = time.perf_counter()
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        doc = json.loads(out.strip().splitlines()[-1])
        stamp = next(line for line in out.splitlines() if line.startswith("# stamp "))
        doc["stamp"] = json.loads(stamp[len("# stamp "):])
        doc["run_s"] = time.perf_counter() - started
        runs.append(doc)
        vals = {k: round(v["value"], 4) for k, v in doc["metrics"].items()}
        print(f"seed {seed}: {doc['run_s']:.1f} s correct={doc['correct']} "
              f"failed={doc['failed']}/{doc['attempted']} {vals}", flush=True)
    series = {name: [r["metrics"][name]["value"] for r in runs] for name in runs[0]["metrics"]}
    for name in runs[0]["stamp"].get("raw_wall_time", {}):
        series[f"raw.{name}"] = [r["stamp"]["raw_wall_time"][name] for r in runs]
    summary = {}
    for name, values in series.items():
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0}
        bound = BOUNDS.get(name)
        note = f" (bound {bound}, target < {bound / 3:.3f})" if bound else ""
        print(f"{name:26s} median {med:12.6f}  q1 {q1:12.6f}  q3 {q3:12.6f}  "
              f"spread {summary[name]['spread']:.4f}{note}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "trace": args.trace, "summary": summary, "runs": runs},
            indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
