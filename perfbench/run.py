"""The skyline diagram service benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload serve-quadrant --seed 1 \
        --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1    # every workload

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that records spans around every
call the benchmark makes into a layer, writes them to
``perfbench/out/spans-<workload>-<seed>.jsonl`` and reports the
per-layer metrics.  Every answer is checked; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``, and the exit code is 0 only when every check passed.
``--out FILE`` also appends the full result record (report metrics,
details and environment) to ``FILE`` as one JSON line, the input of
``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("serve-quadrant", "engine-read-write", "build-composite")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Skyline diagram service benchmark")
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result record (JSON line)")
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    worst = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            command += ["--out", args.out]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(command).returncode)
    return worst


def env_record() -> dict:
    from repro.bench.harness import env_metadata

    env = env_metadata()
    env["nproc"] = len(os.sched_getaffinity(0))
    return env


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)

    from spans import BENCH_LAYER, NullTracer, Tracer
    from workloads import END_TO_END, PER_LAYER, WORKLOADS, Run

    tracer = Tracer() if args.trace else NullTracer()
    run = Run(args.workload, args.seed, args.seconds, tracer, OUT_DIR, SRC)
    started = time.perf_counter()
    with tracer.span(BENCH_LAYER, args.workload):
        WORKLOADS[args.workload](run)
    wall = time.perf_counter() - started

    if args.trace:
        for layer, seconds in tracer.self_seconds().items():
            run.layer[f"self_s.{layer}"] = seconds
        run.layer["trace.spans"] = len(tracer.spans)
        spans_path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write(spans_path)
        units = PER_LAYER
        values = {name: float(run.layer.get(name, 0.0)) for name in units}
    else:
        units = END_TO_END
        values = {name: float(run.e2e[name]) for name in units}

    speed = sorted(run.speed.factors)[len(run.speed.factors) // 2]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  wall {wall:.1f}s  "
          f"machine speed {speed:.3f} of nominal")
    for name, unit in units.items():
        raw = run.raw.get(name) if not args.trace else None
        unscaled = "" if raw is None else f"   (raw {raw:.6g})"
        print(f"  {name:<40} {values[name]:>14.6g} {unit}{unscaled}")
    for name, (value, unit) in run.report.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    for step in run.detail.get("serve_steps", ()):
        latency = step.get("latency_ms", {})
        print(f"  step {step['rate']:>7g}/s  sent {step['sent']:>6}  "
              f"ok {step['succeeded']:>6}  failed {step['failed']:>3}  "
              f"p50 {latency.get('p50', float('nan')):7.2f} ms  "
              f"p99 {step.get('p99_ms', float('nan')):7.2f} ms  "
              f"late p50 {step['late_p50_ms']:.2f} ms  "
              f"backlog {step['backlog']}")
    failed_frac = run.failed / max(1, run.attempted)
    print(f"  {'failed_frac':<40} {failed_frac:>14.6g} ratio "
          f"({run.failed} of {run.attempted})")
    if "executor_reported" in run.detail:
        print(f"  pipeline.executor_reported: {run.detail['executor_reported']}")
    if args.trace:
        print(f"  spans written to {os.path.relpath(spans_path, ROOT)}")
    for problem in run.problems:
        print(f"  FAILED: {problem}")

    correct = run.failed == 0 and run.attempted > 0
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "correct": correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": values,
            "raw": run.raw,
            "machine_speed": speed,
            "report": {k: v for k, (v, _) in run.report.items()},
            "detail": run.detail,
            "env": env_record(),
            "wall_s": wall,
        }
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
