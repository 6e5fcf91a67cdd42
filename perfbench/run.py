"""Benchmark of the mrwitness package: four seeded workloads against its public API.

Run from the root of a source checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload single-n --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

With --trace 0 a run prints the end-to-end metrics: set-up time (median
over fresh interpreters of the CPU time their main thread takes to import
the package and make one tiny warm-up call), ops per second, median op
latency and peak resident memory (op latency p90 and p99 are printed too,
without a bound).  With --trace 1 it runs the workload once untraced and
once with every traced function wrapped, and prints the per-layer metrics
of the traced run and the tracing overhead.  Every op's output is checked; failed ops are listed
in the result file under perfbench/results/.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SETUP_REPEATS = 11
SCHEMA = 1


def _source_root() -> Path | None:
    root = Path.cwd()
    return root if (root / "src" / "mrwitness" / "__init__.py").is_file() else None


def measure_setup(root: Path, warm_up: str) -> list[float]:
    """Main-thread CPU seconds to import mrwitness and make the warm-up call,
    per fresh interpreter.  CPU time rather than wall time: numpy starts
    BLAS threads at import, and on a shared machine whether they get a CPU
    of their own or share the main thread's changes from minute to minute,
    which moves the wall time of the same set-up by a third."""
    code = ("import time\nt0 = time.thread_time()\nimport mrwitness\n" + warm_up
            + "\nprint(repr(time.thread_time() - t0))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def machine() -> dict:
    import numpy
    from mrwitness.concurrency import thread_count

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "scan_workers": thread_count(),
        "platform": platform.platform(),
    }


def end_to_end(outcome, setup: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (outcome.ops_per_s(), "1/s"),
        "op_p50_ms": (outcome.latency_ms()[0], "ms"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
    }


def per_layer(untraced, traced, tracer) -> dict:
    from tracer import layer_metrics

    m = layer_metrics(tracer.spans)
    m["cli.stdout_bytes"] = (traced.stdout_bytes, "B")
    base = untraced.ops_per_s()
    with_spans = traced.ops_per_s()
    m["trace.untraced_ops_per_s"] = (base, "1/s")
    m["trace.traced_ops_per_s"] = (with_spans, "1/s")
    m["trace.overhead"] = (base / with_spans, "ratio")
    m["trace.spans"] = (len(tracer.spans), "count")
    attempted = untraced.attempted + traced.attempted
    m["run.fail_frac"] = ((untraced.failed + traced.failed) / attempted, "ratio")
    m["run.latency_samples"] = (len(untraced.latencies_ms), "count")
    _, p90, p99 = untraced.latency_ms()
    m["run.op_p90_ms"] = (p90, "ms")
    m["run.op_p99_ms"] = (p99, "ms")
    return m


def run_one(args, root: Path) -> int:
    from workloads import WORKLOADS, Outcome

    wl = WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed)
    setup = [] if args.trace else measure_setup(root, wl.warm_up)

    exec(wl.warm_up, {})  # the same lazy set-up as in the fresh interpreters
    outcomes: list[Outcome] = [wl.run(inputs, args.seconds)]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            outcomes.append(wl.run(inputs, args.seconds, tracer))
        finally:
            tracer.uninstall()
        metrics = per_layer(outcomes[0], outcomes[1], tracer)
    else:
        metrics = end_to_end(outcomes[0], setup)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    _, p90, p99 = outcomes[0].latency_ms()
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "schema": SCHEMA,
        "workload": args.workload,
        "why": inputs["why"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": inputs["properties"],
        "machine": machine(),
        "setup_samples_s": setup,
        "latency_samples": len(outcomes[0].latencies_ms),
        "op_p90_ms": p90,
        "op_p99_ms": p99,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "failures": [f for o in outcomes for f in o.failures],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}.spans.jsonl.gz")

    print(f"# {args.workload} seed={args.seed}: {inputs['why']}")
    print(f"# inputs {json.dumps(inputs['properties'])}")
    print(f"# machine {json.dumps(record['machine'])} (compare results from one machine only)")
    for f in record["failures"][:20]:
        print(f"# FAILED {f['op']}: {f['reason']}")
    print(f"{'fail_frac':<48} {record['fail_frac']:>14.6g} ratio  ({failed} of {attempted} ops)")
    print(f"{'latency_samples':<48} {record['latency_samples']:>14d} count")
    print(f"{'op_p90_ms':<48} {p90:>14.6g} ms  (no bound: see README)")
    print(f"{'op_p99_ms':<48} {p99:>14.6g} ms  (no bound: see README)")
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>14.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process (peak memory is per process)."""
    from workloads import WORKLOADS

    rows = {}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"# {name}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        rows[name] = result
        print(f"# {name}: {result['failed']} of {result['attempted']} ops failed")
        for metric, mv in result["metrics"].items():
            print(f"{name:<14} {metric:<48} {mv['value']:>14.6g} {mv['unit']}")
    print(json.dumps({"workloads": rows}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["single-n", "range-scan", "characters", "verify-suites", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = _source_root()
    if root is None:
        print("perfbench: run from the root of an mrwitness checkout (no src/mrwitness here)",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(root / "src"))
    return run_one(args, root)


if __name__ == "__main__":
    sys.exit(main())
