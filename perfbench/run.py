"""energyde benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
workload twice on the same seed, untraced and then traced, and reports the
per-layer metrics of the traced run together with the tracing overhead
(traced minus untraced, per end-to-end metric).  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is 1 when any oracle failed.  ``--smoke`` runs every workload on a tiny
corpus and checks only correctness.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# the end-to-end metrics the result line carries, with bounds in
# BENCHMARK.json; catalog_p50_ms and pipeline_us_per_triple are printed
# above it (README.md says why they are not gated)
GATED = ("setup_s", "latency_p50_ms", "latency_p80_ms", "throughput_rps",
         "node_peak_rss_mb")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="energyde benchmark")
    parser.add_argument("--workload", choices=("flagship", "lookups", "pipeline-build"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--countries", type=int, default=100,
                        help="corpus scale: capacity records = countries x 20 x 5")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, tiny corpus, correctness only")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "energyde" / "__init__.py").is_file():
        print(f"energyde sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    from workloads import Settings, split_cpus
    settings = Settings(seed=args.seed, seconds=args.seconds, countries=args.countries,
                        node_cpu=split_cpus())
    runs = measure(args.workload, settings, traced=bool(args.trace))
    return report(runs, traced=bool(args.trace))


def measure(workload: str, settings, traced: bool) -> list:
    """The untraced run, then with ``traced`` the traced one."""
    from workloads import Workload
    from spans import NullTracer
    runs = [Workload(workload, settings, NullTracer()).execute()]
    if traced:
        runs.append(traced_run(workload, settings))
    return runs


def traced_run(workload: str, settings):
    import instrument
    from metrics import layer_metrics
    from spans import TraceSummary, Tracer
    from workloads import Workload
    trace_dir = ROOT / ".bench_out" / f"{workload}-seed{settings.seed}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    tracer = Tracer("bench")
    instrument.client_side(tracer)
    w = Workload(workload, settings, tracer, trace_dir)
    run = w.execute()
    tracer.dump(trace_dir / "bench.jsonl.gz")
    node = TraceSummary({})
    for summary in w.summaries:
        node = node.merge(summary)
    run.layers = layer_metrics(tracer.summary(), node, w.extra)
    return run


def report(runs: list, traced: bool) -> int:
    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    for what in failures[:20]:
        print(f"FAILED: {what}")
    for label, run in zip(("untraced", "traced"), runs):
        print(f"{label:8} {'samples':32} {run.samples:14d}")
        for name, (value, unit) in run.metrics.items():
            print(f"{label:8} {name:32} {value:14.4f} {unit}")
    print(f"failed_ratio {len(failures) / max(attempted, 1):.6f} "
          f"({len(failures)} of {attempted})")
    metrics = {}
    if traced:
        base, run = runs
        for name, (value, unit) in run.layers.items():
            print(f"layer    {name:40} {value:14.4f} {unit}")
            metrics[name] = {"value": value, "unit": unit}
        for name, (value, unit) in run.metrics.items():
            metrics[f"tracing.overhead.{name}"] = {
                "value": value - base.metrics[name][0], "unit": unit}
    else:
        metrics = {name: {"value": runs[0].metrics[name][0],
                          "unit": runs[0].metrics[name][1]} for name in GATED}
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


def smoke() -> int:
    """Every workload, untraced and traced, on a 2-country corpus; each in
    its own process, as the benchmark command runs it."""
    from workloads import WORKLOADS
    failed = False
    for workload in WORKLOADS:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", "1", "--seconds", "0.5", "--countries", "2", "--trace", "1"],
            capture_output=True, text=True, timeout=300)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
        ok = proc.returncode == 0 and result.get("correct") is True
        print(f"{'PASS' if ok else 'FAIL'} {workload}: {result.get('attempted')} "
              f"operations, {result.get('failed')} failed, "
              f"{time.perf_counter() - start:.1f} s")
        if not ok:
            failures = [line for line in lines if line.startswith("FAILED")]
            print("\n".join(failures[:5]) + proc.stderr[-2000:])
        failed = failed or not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
