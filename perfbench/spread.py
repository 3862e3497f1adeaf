"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py                      # every workload, seed 1
    python3 perfbench/spread.py --workload battery --seeds 1-10 [--trace 1]

Runs ``perfbench/run.py`` once per workload and seed, one run at a
time, echoes each run's report (every metric with its unit, the task
counts, the error rate and the output digest) and then prints, per
workload and metric, the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile
distance as a share of the median, next to the metric's bound in
``BENCHMARK.json``.  Exits with code 1 if a run fails or reports
wrong outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d: %s"
                           % (workload, seed, proc.returncode,
                              proc.stderr[-2000:]))
    print("\n".join(lines[:-1]), flush=True)
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError("%s seed %d: %d of %d tasks failed"
                           % (workload, seed, result["failed"],
                              result["attempted"]))
    return result["metrics"]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser()
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", default="1", type=seed_range)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in
              spec["end_to_end"] + spec["per_layer"]}
    tables = []
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in args.seeds:
            try:
                runs.append(one_run(workload, seed, args.seconds,
                                    args.trace))
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 1
        tables.append((workload, runs))
    for workload, runs in tables:
        print("\n%s, %d runs" % (workload, len(runs)))
        print("%-26s %-6s %12s %12s %12s %8s %6s"
              % ("metric", "unit", "median", "q1", "q3", "iqr/med",
                 "bound"))
        for name, first in runs[0].items():
            values = [r[name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            share = (q3 - q1) / med if med else float("nan")
            print("%-26s %-6s %12.6g %12.6g %12.6g %8.4f %6s"
                  % (name, first["unit"], med, q1, q3, share,
                     bounds.get(name)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
