"""zerodim benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; zerodim is imported from ``src/``.
One process with one thread generates the load.  It runs one
unmeasured pass whose outputs the oracles check, then measures passes
through the task list until ``--seconds`` have gone by; every later
pass must reproduce the first pass's outputs byte for byte.  A task's
latency is its least one over the measured passes.  Between passes,
spread over the run, it times ``SETUP_RUNS`` fresh interpreters, one
at a time, from start until ready (import, bundled systems, the seeded
inputs and one warm-up task) and reports their median as ``setup_s``.

With ``--trace 1`` the measured passes alternate between untraced and
traced; the result carries the per-layer metrics instead of the
end-to-end ones.  The spans of the first traced pass are written to
``.perfbench/spans-<workload>.jsonl.gz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 7
OUT_DIR = ROOT / ".perfbench"

# per-layer metric prefix -> span names it covers
LAYERS = (("groups", ("groups",)), ("subgroups", ("subgroups",)),
          ("cantor.point", ("cantor.point",)),
          ("cantor.clopen", ("cantor.clopen",)),
          ("flows.act", ("flows.act",)),
          ("flows.distance", ("flows.distance",)),
          ("analysis", ("analysis",)),
          ("harness", ("harness", "harness.check")),
          ("cli", ("cli",)), ("verdict", ("verdict",)))
ERRORS = (("groups", ("groups",)), ("subgroups", ("subgroups",)),
          ("cantor", ("cantor.point", "cantor.clopen")),
          ("flows", ("flows.act", "flows.distance")),
          ("analysis", ("analysis",)))


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (used to time "
                        "set-up in a fresh interpreter)")
    return p.parse_args(argv)


def _import_program():
    """Import zerodim from this checkout's src/ and the benchmark's
    own modules; refuse a zerodim found anywhere else."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import zerodim
    found = Path(zerodim.__file__).resolve().parent
    if found != ROOT / "src" / "zerodim":
        raise ImportError("zerodim imported from %s, not from %s"
                          % (found, ROOT / "src"))


def set_up(workload: str, seed: int) -> list:
    """Bundled systems, seeded inputs and the warm-up task."""
    import zerodim as zd
    import workloads
    systems = {sid: zd.get_system(sid) for sid in zd.available_systems()}
    tasks, warmup = workloads.generate(workload, seed, systems)
    warmup.run()
    return tasks


def time_setup(workload: str, seed: int) -> float:
    """Wall time from starting a fresh interpreter until it is ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        code = proc.wait(timeout=170)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError("set-up process failed with exit code %s" % code)
    return elapsed


def run_pass(tasks: list, tracer=None) -> tuple:
    """Run every task once: (wall seconds, latencies, outputs, indices
    of tasks that raised)."""
    clock = time.perf_counter
    latencies, outputs, raised = [], [], set()
    gc.collect()
    start = clock()
    for i, task in enumerate(tasks):
        call = task.run
        if tracer is not None:
            tracer.task = i
            call = tracer.wrap("task", call)
        t0 = clock()
        try:
            out = call()
        except Exception:  # a failing task is counted, the pass goes on
            out = None
            if not raised:
                traceback.print_exc()
            raised.add(i)
        latencies.append(clock() - t0)
        outputs.append(out)
    return clock() - start, latencies, outputs, raised


def canonical(tasks: list, outputs: list, raised: set) -> list:
    """Canonical JSON text of each task's output (None if it raised)."""
    return [None if i in raised else
            json.dumps(t.canon(out), sort_keys=True, separators=(",", ":"))
            for i, (t, out) in enumerate(zip(tasks, outputs))]


def oracle_failures(tasks: list, lines: list) -> set:
    bad = set()
    for i, (task, line) in enumerate(zip(tasks, lines)):
        if line is None:
            bad.add(i)
            continue
        try:
            ok = task.oracle(json.loads(line))
        except Exception:  # an oracle that cannot read the output rejects it
            ok = False
        if not ok:
            bad.add(i)
            print("oracle rejected task %d (%s): %s"
                  % (i, task.family, line[:300]), file=sys.stderr)
    return bad


def quantile(values: list, q: float) -> float:
    """Inclusive quantile, as statistics.quantiles computes it."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def layer_metrics(summaries: list, multiplies: list, overhead: float) -> dict:
    """Per-layer metrics: counts from the first traced pass, self times
    from the traced pass where the layer took least."""
    first = summaries[0]

    def count(names, key="calls"):
        return sum(first.get(n, {}).get(key, 0) for n in names)

    def self_s(names):
        return min(sum(s.get(n, {}).get("self_s", 0.0) for n in names)
                   for s in summaries)

    m: dict = {}
    for prefix, names in LAYERS:
        if prefix == "harness":
            m["harness.checks"] = (count(("harness.check",)), "count")
        else:
            m[prefix + ".calls"] = (count(names), "count")
        m[prefix + ".self_s"] = (self_s(names), "s")
    for prefix, names in ERRORS:
        m[prefix + ".errors"] = (count(names, "errors"), "count")
    m["groups.multiply_calls"] = (multiplies[0], "count")
    m["groups.multiply_per_call"] = (
        multiplies[0] / max(1, m["groups.calls"][0]), "1/call")
    m["analysis.acts_per_call"] = (
        m["flows.act.calls"][0] / max(1, m["analysis.calls"][0]), "1/call")
    m["trace.overhead_s"] = (overhead, "s")
    return m


def write_spans(workload: str, spans: list) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / ("spans-%s.jsonl.gz" % workload)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return path


def least(best, latencies: list) -> list:
    """Per-task least latency so far."""
    return list(latencies) if best is None else list(map(min, best,
                                                         latencies))


def measure(args, tasks: list) -> tuple:
    """The unmeasured checking pass, then measured passes until the
    time is up.  Returns (metrics, attempted, failed).

    Every task is deterministic (its output is checked to repeat byte
    for byte), so its timings across passes differ only by disturbance
    from outside the process; each task's latency is its least one.
    ``wall_s`` sums those over the task list, and the task percentiles
    are taken over them.  On a shared 2-core host whose speed changes
    by up to 1.7x in phases of seconds to tens of seconds, medians over
    passes swing with the share of slow phases in a run; least
    latencies do not."""
    import spans as tr

    wall, _, outputs, raised = run_pass(tasks)
    reference = canonical(tasks, outputs, raised)
    failed = len(raised | oracle_failures(tasks, reference))
    attempted = len(tasks)
    digest = hashlib.sha256("\n".join(
        line or "" for line in reference).encode()).hexdigest()
    print("workload %s seed %d: %d tasks per pass, checking pass %.3f s"
          % (args.workload, args.seed, len(tasks), wall))
    print("output digest sha256 %s" % digest)

    best = best_traced = first_spans = None
    walls, summaries, multiplies, setups = [], [], [], []
    start = time.perf_counter()
    deadline = start + args.seconds
    n = 0
    while (time.perf_counter() < deadline or best is None
           or (args.trace and best_traced is None)):
        traced = bool(args.trace) and n % 2 == 1
        n += 1
        tracer = undo = None
        if traced:
            tracer = tr.Tracer()
            undo = tr.install(tracer)
        try:
            wall, lat, outputs, raised = run_pass(tasks, tracer)
        finally:
            if undo is not None:
                tr.uninstall(undo)
        lines = canonical(tasks, outputs, raised)
        attempted += len(tasks)
        failed += sum(1 for a, b in zip(lines, reference)
                      if a is None or a != b)
        if traced:
            best_traced = least(best_traced, lat)
            summaries.append(tr.summarize(tracer.spans))
            multiplies.append(tracer.multiply_calls)
            first_spans = first_spans or tracer.spans
        else:
            best = least(best, lat)
            walls.append(wall)
            # fresh set-ups, one at a time, spread over the run
            if len(setups) < SETUP_RUNS and time.perf_counter() >= \
                    start + len(setups) * args.seconds / SETUP_RUNS:
                setups.append(time_setup(args.workload, args.seed))
    while not args.trace and len(setups) < SETUP_RUNS:
        setups.append(time_setup(args.workload, args.seed))
    print("measured passes: %d untraced (median wall %.3f s), %d traced"
          % (len(walls), statistics.median(walls), len(summaries)))

    if args.trace:
        path = write_spans(args.workload, first_spans)
        print("spans of the first traced pass: %d, written to %s"
              % (len(first_spans), path.relative_to(ROOT)))
        metrics = layer_metrics(summaries, multiplies,
                                sum(best_traced) - sum(best))
        total = sum(v for k, (v, _) in metrics.items()
                    if k.endswith(".self_s"))
        print("layer self-time shares: " + ", ".join(
            "%s %.1f%%" % (k[:-7], 100 * v / total) for k, (v, _) in
            sorted(metrics.items(), key=lambda kv: -kv[1][0])
            if k.endswith(".self_s") and total))
    else:
        p95 = quantile(best, 0.95)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (sum(best), "s"),
            "task_p50_ms": (1000 * quantile(best, 0.50), "ms"),
            "task_p95_ms": (1000 * p95, "ms"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print("tasks: %d per pass, %d above task_p95_ms"
              % (len(best), sum(1 for x in best if x > p95)))
    for name, (value, unit) in metrics.items():
        print("  %-26s %14.6f %s" % (name, value, unit))
    print("  %-26s %14.6f fraction (%d failed of %d attempted)"
          % ("error_rate", failed / attempted, failed, attempted))
    return metrics, attempted, failed


def main(argv=None) -> int:
    args = _parse(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # fixed string hashing makes set orders, and with them the
        # work counts of the traced run, repeat between processes
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable,
                  [sys.executable, str(HERE / "run.py")] + sys.argv[1:], env)
    try:
        _import_program()
    except ImportError as exc:
        print("perfbench: cannot import the program: %s" % exc,
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (have: %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    if args.setup_only:
        set_up(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    tasks = set_up(args.workload, args.seed)
    metrics, attempted, failed = measure(args, tasks)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
