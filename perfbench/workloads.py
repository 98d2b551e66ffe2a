"""The three workloads, each measured end to end through the public API.

Every workload fills a :class:`Run`: the end-to-end metrics (always
measured with tracing off unless the run is the traced one), the
named report metrics printed beside them, and — on a traced run — the
per-layer metrics from direct calls into each layer plus span self time.
Every answer the benchmark receives is checked; a wrong answer or a
failed call counts in ``failed``.

Inputs come from the benchmark's own generators below, seeded by
``--seed``; the program under test only ever receives points and
queries.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
import statistics
import tempfile
import time

import numpy as np

from repro import (
    BuildOptions,
    SkylineDatabase,
    dynamic_scanning,
    global_diagram,
    quadrant_scanning,
    save_diagram,
)
from repro.diagram.maintenance import delete_point, insert_point
from repro.index.serialize import map_diagram
from repro.serve.pool import SnapshotWorkerPool
from serveload import ServerProcess, open_loop, pin_threads, saturate
from stats import percentile, summary
from spans import BENCH_LAYER, LAYERS

PIPELINE, STORE, MAINT, ENGINE, SERIALIZE, QUERY, SERVE = LAYERS
VECTORIZED = BuildOptions(executor="vectorized")
SETUP_REPEATS = 3
BATCH_SIZE = 256
#: Samples per round a p99 needs so that ten lie beyond it.
P99_SAMPLES = 1000
#: Probes of single-query latency take this many interleaved samples.
PROBE_SINGLES = 2000
#: Seconds each round spends on single queries and on batches.
SINGLE_BURST = 0.15
BATCH_BURST = 0.08
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
#: Repeats of each probed build.
BUILD_REPEATS = 3
#: Standard deviation of the anticorrelated generator's noise.
ANTI_SPREAD = 0.05
#: The reference workload (see :class:`Speed`) and its nominal duration.
REFERENCE_TUPLES = 3000
REFERENCE_NOMINAL_S = 1.0e-3

#: Every per-layer metric, in report order, with its unit.  A workload
#: that does not exercise a layer reports 0 for that layer's metrics.
PER_LAYER = {
    "pipeline.build_s.quadrant": "s",
    "pipeline.build_s.global": "s",
    "pipeline.build_s.dynamic": "s",
    "pipeline.phase_s.rank_space": "s",
    "pipeline.phase_s.row_scan": "s",
    "pipeline.phase_s.intern": "s",
    "pipeline.phase_s.assemble": "s",
    "pipeline.cells": "count",
    "pipeline.distinct_results": "count",
    "pipeline.cells_per_s": "1/s",
    "pipeline.executor_vectorized_frac": "ratio",
    "store.fingerprint_s": "s",
    "store.materialize_s": "s",
    "store.audit_s": "s",
    "store.grid_nbytes": "bytes",
    "engine.attach_overhead_s": "s",
    "engine.query_overhead_us": "us",
    "engine.update_overhead_ms": "ms",
    "engine.tier.diagram": "count",
    "engine.tier.partial": "count",
    "engine.tier.scratch": "count",
    "engine.rejected": "count",
    "maintenance.insert_s": "s",
    "maintenance.delete_s": "s",
    "maintenance.rows_scanned_frac": "ratio",
    "maintenance.vs_rebuild": "ratio",
    "query.kernel_single_us": "us",
    "query.kernel_batch_us": "us",
    "query.planner_batch_us": "us",
    "query.union_batch_us.global": "us",
    "query.union_batch_us.dynamic": "us",
    "query.constrained_batch_us": "us",
    "query.boundary_hits": "count",
    "serialize.save_s": "s",
    "serialize.map_s": "s",
    "serialize.snapshot_bytes": "bytes",
    "serve.startup_s": "s",
    "serve.pool_batch_us": "us",
    "serve.batcher.mean_batch": "count",
    "serve.batcher.size_flushes": "count",
    "serve.batcher.timer_flushes": "count",
    "serve.pool.respawns": "count",
    "serve.generator_late_ms": "ms",
    **{f"self_s.{layer}": "s" for layer in (*LAYERS, BENCH_LAYER)},
    "trace.spans": "count",
    "trace.overhead_us": "us",
    "trace.overhead_frac": "ratio",
}

#: End-to-end metrics every workload reports (see perfbench/README.md
#: for what the headline operation ``op`` is on each workload).
END_TO_END = {
    "setup_s": "s",
    "query_p50_us": "us",
    "query_mean_us": "us",
    "batch_qps": "1/s",
    "op_ms": "ms",
    "store_mb": "MB",
    "peak_rss_mb": "MB",
}


class Run:
    """Outcome of one workload run: counts, metrics and the report."""

    def __init__(self, workload: str, seed: int, seconds: float, tracer,
                 out_dir: str, src_dir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tr = tracer
        self.out_dir = out_dir
        self.src_dir = src_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.e2e: dict[str, float] = {}
        self.raw: dict[str, float] = {}
        self.speed = Speed()
        self.report: dict[str, tuple[float, str]] = {}
        self.layer: dict[str, float] = {}
        self.detail: dict = {}

    def tally(self, ok: bool, what: str = "", count: int = 1) -> None:
        """Count ``count`` attempted operations; all failed unless ``ok``."""
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.problems) < 20:
                self.problems.append(what)

    def note(self, name: str, value: float, unit: str) -> None:
        """A report metric: printed by name, kept in the result record."""
        self.report[name] = (value, unit)


def reference_s() -> float:
    """Seconds a fixed pure-Python workload takes now (median of three).

    The workload builds small tuples, the allocation pattern that
    dominates the program's own Python paths; of the candidates tried
    (an arithmetic loop, random reads of a large list, tuple building)
    it tracked the program's slowdowns most closely.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        [tuple(range(6)) for _ in range(REFERENCE_TUPLES)]
        times.append(time.perf_counter() - start)
    return percentile(times, 50)


class Speed:
    """Scale factors from the reference workload, timed around measurements.

    A shared or virtualised machine can run the same code 1.5x slower
    for seconds to minutes at a time (measured on a 2-vCPU virtual
    machine), which no amount of sampling inside one run averages out.
    Timing the reference workload right before and after a measurement
    and scaling the measured time by ``REFERENCE_NOMINAL_S / reference``
    reports it as it would read on a machine that runs the reference in
    exactly ``REFERENCE_NOMINAL_S``; a change to the program moves the
    scaled value exactly as it moves the raw one.
    """

    def __init__(self) -> None:
        self.last = reference_s()
        self.factors: list[float] = []

    def mark(self) -> None:
        """Start the next measured interval now."""
        self.last = reference_s()

    def median(self) -> float:
        """The run's median factor, for operations long enough to span a
        change of speed that the reference timings around them miss."""
        return percentile(self.factors, 50)

    def factor(self) -> float:
        """Scale factor for what ran since the previous call."""
        now = reference_s()
        factor = REFERENCE_NOMINAL_S / ((self.last + now) / 2.0)
        self.last = now
        self.factors.append(factor)
        return factor


class Rounds:
    """Per-round samples, each round with its own ``Speed`` factor.

    Short measurements (query bursts) are scaled by the factor timed
    right around them; a long single operation can span a change of
    speed, so updates and refreshes use the run's median factor.
    """

    def __init__(self) -> None:
        self.samples: dict[str, list[tuple[list[float], float]]] = {}

    def add(self, name: str, values, factor: float) -> None:
        self.samples.setdefault(name, []).append((list(values), factor))

    def scaled(self, name: str) -> list[float]:
        return [v * f for values, f in self.samples[name] for v in values]

    def raw(self, name: str) -> list[float]:
        return [v for values, _ in self.samples[name] for v in values]

    def read_queries(self, run: "Run", batch_size: int) -> None:
        """``query_p50_us``, ``query_mean_us`` and ``batch_qps``, scaled.

        ``query_p99_us`` is a report metric: the tail of a ~20 µs call is
        set by what else the host runs, so it varies too much from run
        to run to be bounded (see perfbench/README.md).
        """
        for into, values in ((run.e2e, self.scaled), (run.raw, self.raw)):
            singles, batches = values("single"), values("batch")
            into["query_p50_us"] = percentile(singles, 50) * 1e6
            into["query_mean_us"] = statistics.fmean(singles) * 1e6
            into["batch_qps"] = batch_size / percentile(batches, 50)
        run.note("query_p99_us", percentile(self.scaled("single"), 99) * 1e6,
                 "us")
        run.detail["rounds"] = len(self.samples["single"])
        run.detail["query_samples"] = len(self.raw("single"))
        run.detail["batch_samples"] = len(self.raw("batch"))


# ----------------------------------------------------------------------
# Input generators.  They are the benchmark's own, so inputs never come
# from the program under test, and they are stratified (one point per
# row and column stratum), so the work a dataset causes varies little
# from seed to seed while every seed still gives different points.
# ----------------------------------------------------------------------
def _strata(rng, n: int) -> np.ndarray:
    return (rng.permutation(n) + rng.random(n)) / n


def independent(rng, n: int, domain: int | None = None) -> list[tuple]:
    coords = np.column_stack([_strata(rng, n), _strata(rng, n)])
    if domain is not None:
        coords = np.minimum(np.floor(coords * domain), domain - 1)
    return [tuple(map(float, row)) for row in coords]


def anticorrelated(rng, n: int) -> list[tuple]:
    t = _strata(rng, n)
    coords = (np.column_stack([t, 1.0 - t])
              + rng.normal(0.0, ANTI_SPREAD, (n, 2)))
    coords = np.clip(coords, 0.0, 1.0)
    return [tuple(map(float, row)) for row in coords]


# ----------------------------------------------------------------------
# Shared measurement helpers
# ----------------------------------------------------------------------
def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def store_bytes(*dbs) -> int:
    return sum(
        entry["store_nbytes"]
        for db in dbs
        for entry in db.health()["memory"].values()
    )


def timed_setup(run: Run, build, teardown=None):
    """Set up ``SETUP_REPEATS`` times; keep the last, report the median."""
    raw, scaled = [], []
    made = None
    for _ in range(SETUP_REPEATS):
        if made is not None and teardown is not None:
            teardown(made)
        made = None
        gc.collect()
        run.speed.mark()
        start = time.perf_counter()
        with run.tr.span(BENCH_LAYER, "setup"):
            made = build()
        raw.append(time.perf_counter() - start)
        scaled.append(raw[-1] * run.speed.factor())
    run.e2e["setup_s"] = percentile(scaled, 50)
    run.raw["setup_s"] = percentile(raw, 50)
    run.detail["setup_s"] = raw
    return made


def closed_loop(run: Run, layer: str, name: str, fn, items, expected,
                seconds: float, min_count: int, offset: int) -> list[float]:
    """Call ``fn(item)`` back to back, cycling ``items``; check each answer.

    Starts at item ``offset``, runs for ``seconds`` and at least
    ``min_count`` calls; returns the per-call latencies in seconds.
    """
    clock = time.perf_counter
    tracer = run.tr
    latencies = []
    wrong = errors = 0
    count = len(items)
    end = clock() + seconds
    i = 0
    while True:
        k = (offset + i) % count
        start = clock()
        try:
            if tracer.on:
                with tracer.span(layer, name, request=i):
                    out = fn(items[k])
            else:
                out = fn(items[k])
        except Exception as exc:  # a failed call counts, the loop goes on
            errors += 1
            out = exc
        stop = clock()
        latencies.append(stop - start)
        if out != expected[k]:
            wrong += 1
        i += 1
        if stop >= end and i >= min_count:
            break
    run.tally(True, count=i - wrong - errors)
    if wrong or errors:
        run.tally(False, f"{name}: {wrong} wrong, {errors} raised",
                  count=wrong + errors)
    return latencies


def scratch_sample(run: Run, db, items, answers, what: str, **spec) -> None:
    """Cross-check ``answers`` against the from-scratch oracle."""
    wrong = sum(
        1 for q, answer in zip(items, answers)
        if tuple(db.query_from_scratch(q, **spec)) != tuple(answer)
    )
    run.tally(wrong == 0, f"{what}: {wrong} answers differ from scratch",
              count=len(items))
    run.detail.setdefault("scratch_checked", 0)
    run.detail["scratch_checked"] += len(items)


def per_query_us(fn, arg, per_call: int, repeats: int = 15) -> float:
    """Median over ``repeats`` calls of ``fn(arg)``, per query, in µs."""
    fn(arg)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - start)
    return percentile(times, 50) / per_call * 1e6


# ----------------------------------------------------------------------
# Per-layer probes (traced runs only): direct calls into one layer
# ----------------------------------------------------------------------
def probe_builds(run: Run, builds) -> dict:
    """Direct constructor builds paired with ``db.<kind>_diagram()`` calls.

    Each of ``BUILD_REPEATS`` repeats builds every kind once directly
    (the pipeline layer) and once through a fresh database (engine
    precompute and attach); the
    attach overhead is the median paired difference, summed over kinds.
    Returns the last direct build of each kind.
    """
    layer = run.layer
    diagrams = {}
    cells = distinct = 0
    build_total = overhead_total = 0.0
    vectorized = 0
    for kind, constructor, points in builds:
        direct, through_db, phases = [], [], {}
        for _ in range(BUILD_REPEATS):
            diagrams.pop(kind, None)
            gc.collect()
            start = time.perf_counter()
            with run.tr.span(PIPELINE, f"build.{kind}"):
                diagram = constructor(points, build_options=VECTORIZED)
            direct.append(time.perf_counter() - start)
            diagrams[kind] = diagram
            for phase, seconds in diagram.build_report.phases.items():
                phases.setdefault(phase, []).append(seconds)
            db = SkylineDatabase(points, build_options=VECTORIZED)
            gc.collect()
            start = time.perf_counter()
            with run.tr.span(ENGINE, f"{kind}_diagram"):
                getattr(db, f"{kind}_diagram")()
            through_db.append(time.perf_counter() - start)
            del db
        report = diagrams[kind].build_report
        build_s = percentile(direct, 50)
        layer[f"pipeline.build_s.{kind}"] = build_s
        for phase, times in phases.items():
            key = f"pipeline.phase_s.{phase}"
            if key in PER_LAYER:
                layer[key] = layer.get(key, 0.0) + percentile(times, 50)
        cells += report.cells
        distinct += report.distinct_results
        build_total += build_s
        overhead_total += percentile(
            [b - a for a, b in zip(direct, through_db)], 50)
        vectorized += report.executor == "vectorized"
        run.detail.setdefault("executor_reported", {})[kind] = report.executor
    layer["pipeline.cells"] = cells
    layer["pipeline.distinct_results"] = distinct
    layer["pipeline.cells_per_s"] = cells / build_total
    layer["pipeline.executor_vectorized_frac"] = vectorized / len(builds)
    layer["engine.attach_overhead_s"] = overhead_total
    return diagrams


def probe_store(run: Run, diagrams) -> None:
    """Fingerprint, first materialization and audit on fresh stores."""
    layer = run.layer
    for key in ("store.fingerprint_s", "store.materialize_s",
                "store.audit_s", "store.grid_nbytes"):
        layer[key] = 0.0
    for diagram in diagrams.values():
        store = diagram.store
        with run.tr.span(STORE, "table_view"):
            start = time.perf_counter()
            store.table_view()
            layer["store.materialize_s"] += time.perf_counter() - start
        with run.tr.span(STORE, "fingerprint"):
            start = time.perf_counter()
            store.fingerprint()
            layer["store.fingerprint_s"] += time.perf_counter() - start
        with run.tr.span(STORE, "audit"):
            start = time.perf_counter()
            store.audit(len(diagram.grid.dataset))
            layer["store.audit_s"] += time.perf_counter() - start
        layer["store.grid_nbytes"] += store.backend.nbytes()


def engine_counters(run: Run, *dbs) -> None:
    for tier in ("diagram", "partial", "scratch"):
        run.layer[f"engine.tier.{tier}"] = sum(
            db.metrics.snapshot()["tiers"][tier] for db in dbs
        )
    run.layer["engine.rejected"] = sum(
        db.metrics.rejected_count() for db in dbs
    )
    run.layer["query.boundary_hits"] = sum(
        db.metrics.snapshot()["counters"].get("boundary_hits", 0)
        for db in dbs
    )


def probe_singles(run: Run, engine_fn, kernel_fn, items) -> None:
    """Engine single queries untraced and traced, and the kernel alone.

    The three are interleaved query by query on the same items, so their
    medians differ only by the layer or the tracing between them:
    ``engine.query_overhead_us`` is engine minus kernel, and
    ``trace.overhead_us`` is traced minus untraced end to end.
    """
    clock = time.perf_counter
    untraced, traced, kernel = [], [], []
    for i, item in enumerate(items[:PROBE_SINGLES]):
        kernel_fn(item)
        start = clock()
        kernel_fn(item)
        kernel.append(clock() - start)
        for traced_first in ((True, False) if i % 2 else (False, True)):
            start = clock()
            if traced_first:
                with run.tr.span(ENGINE, "db.query"):
                    engine_fn(item)
                traced.append(clock() - start)
            else:
                engine_fn(item)
                untraced.append(clock() - start)
    base = percentile(untraced, 50) * 1e6
    traced_us = percentile(traced, 50) * 1e6
    kernel_us = percentile(kernel, 50) * 1e6
    run.layer["query.kernel_single_us"] = kernel_us
    run.layer["engine.query_overhead_us"] = base - kernel_us
    run.layer["trace.overhead_us"] = traced_us - base
    run.layer["trace.overhead_frac"] = (traced_us - base) / base


# ----------------------------------------------------------------------
# serve-quadrant
# ----------------------------------------------------------------------
SERVE_N, SERVE_DOMAIN = 10_000, 1024
SERVE_FIXED_RATE = 2000.0
#: Share of the run spent in rounds at the fixed rate (the rest: the ladder).
SERVE_FIXED_SHARE = 0.7
SERVE_SEGMENT_S = 0.3
SERVE_LADDER = (2000, 4000, 6000, 8000, 10000, 12000, 14000, 16000, 20000)
SERVE_P99_LIMIT_MS = 25.0
SERVE_CONNECTIONS = min(2, os.cpu_count() or 1)
#: Requests per round sent at full load, and how many are kept
#: outstanding: the server batcher's ``max_batch``, so that batches of
#: plain queries fill and flush on size rather than on its timer.
SATURATE_REQUESTS = 4096
SATURATE_WINDOW = 64


def _serve_queries(rng, count: int):
    """Uniform plain queries, integer hot spots (on grid lines) and boxes."""
    domain = float(SERVE_DOMAIN)
    centers = rng.integers(64, SERVE_DOMAIN - 64, (4, 2))
    boxes = []
    for _ in range(4):
        lo = rng.integers(0, SERVE_DOMAIN // 2, 2)
        hi = lo + rng.integers(SERVE_DOMAIN // 4, SERVE_DOMAIN // 2, 2)
        boxes.append((tuple(map(float, lo)), tuple(map(float, hi))))
    plain, boxed = [], []
    for i in range(count):
        draw = rng.random()
        if draw < 0.1:
            q = tuple(map(float, rng.random(2) * domain))
            boxed.append((q, boxes[i % len(boxes)]))
        elif draw < 0.3:
            c = centers[i % len(centers)]
            off = np.round(rng.normal(0.0, 8.0, 2))
            plain.append(tuple(map(float, np.clip(c + off, 0, domain - 1))))
        else:
            plain.append(tuple(map(float, rng.random(2) * domain)))
    return plain, boxed


def serve_quadrant(run: Run) -> None:
    rng = np.random.default_rng(run.seed)
    points = independent(rng, SERVE_N, SERVE_DOMAIN)
    plain, boxed = _serve_queries(rng, 4096)
    workdir = tempfile.mkdtemp(prefix="serve-", dir=run.out_dir)
    snapshot = os.path.join(workdir, "quadrant.snap")
    tr = run.tr
    startups = []
    server = None
    try:
        def build():
            with tr.span(ENGINE, "SkylineDatabase(precompute=quadrant)"):
                db = SkylineDatabase(points, precompute=["quadrant"],
                                     build_options=VECTORIZED)
            with tr.span(SERIALIZE, "save_diagram"):
                save_diagram(db.quadrant_diagram(), snapshot)
            with tr.span(SERVE, "startup"):
                srv = ServerProcess(snapshot, run.src_dir)
            startups.append(srv.startup_s)
            return db, srv

        def teardown(made):
            code = made[1].shutdown()
            run.tally(code == 0, f"setup server exited {code}")

        db, server = timed_setup(run, build, teardown)
        seconds = run.seconds

        # Expected answers come from the in-process diagram; a sample of
        # them is checked against from-scratch evaluation.
        plain_expected = [tuple(r) for r in
                          db.query_batch(plain, kind="quadrant")]
        boxed_expected = [
            tuple(db.query(q, kind="constrained", box=box))
            for q, box in boxed
        ]
        scratch_sample(run, db, plain[:48], plain_expected[:48],
                       "quadrant", kind="quadrant")
        for (q, box), answer in list(zip(boxed, boxed_expected))[:16]:
            scratch_sample(run, db, [q], [answer], "constrained",
                           kind="constrained", box=box)

        batches = [plain[i:i + BATCH_SIZE]
                   for i in range(0, len(plain) - BATCH_SIZE, BATCH_SIZE)]
        batch_expected = [
            plain_expected[i:i + BATCH_SIZE]
            for i in range(0, len(plain) - BATCH_SIZE, BATCH_SIZE)
        ]
        # Served traffic: plain and boxed requests interleaved, ~10% boxed.
        requests = [(q, None, a) for q, a in zip(plain, plain_expected)]
        for i, ((q, box), answer) in enumerate(zip(boxed, boxed_expected)):
            requests.insert(10 * i + 9, (q, box, answer))
        steps = []

        def step(rate, duration, offset=0):
            with tr.span(BENCH_LAYER, f"open_loop@{rate:g}"):
                result = open_loop(server.host, server.port, rate, duration,
                                   requests, tr, SERVE_CONNECTIONS, offset)
            run.tally(True, count=result["succeeded"])
            if result["failed"]:
                run.tally(False, f"{result['failed']} of {result['sent']} "
                          f"requests failed at {rate:g}/s",
                          count=result["failed"])
            steps.append(result)
            return result

        # Rounds of in-process singles and batches and one segment of
        # served traffic at the fixed offered rate, then the rate ladder.
        rounds = Rounds()

        def in_process_round(r):
            singles = closed_loop(
                run, ENGINE, "db.query",
                lambda q: db.query(q, kind="quadrant"),
                plain, plain_expected, SINGLE_BURST, P99_SAMPLES, r * 997)
            batch = closed_loop(
                run, ENGINE, "db.query_batch",
                lambda b: db.query_batch(b, kind="quadrant"),
                batches, batch_expected, BATCH_BURST, 3, r)
            factor = run.speed.factor()
            rounds.add("single", singles, factor)
            rounds.add("batch", batch, factor)

        allowed = os.sched_getaffinity(0)
        one_cpu = {min(allowed)}
        serve_cpu = []

        def saturated_round(r):
            # Client, server and worker share one CPU here, so the CPU
            # time does not depend on how the scheduler spreads them over
            # the CPUs: over five runs, two of them beside a CPU-bound
            # process, the raw value's quartile spread was 0.17 unpinned
            # and 0.06 pinned.
            plan = [requests[(r * 1013 + i) % len(requests)]
                    for i in range(SATURATE_REQUESTS)]
            server.pin(one_cpu)
            pin_threads(os.getpid(), one_cpu)
            try:
                before = server.cpu_seconds()
                with tr.span(BENCH_LAYER, "saturate"):
                    result = saturate(server.host, server.port, plan,
                                      SATURATE_WINDOW, SERVE_CONNECTIONS)
                serve_cpu.append((server.cpu_seconds() - before)
                                 / result["sent"])
            finally:
                pin_threads(os.getpid(), allowed)
                server.pin(allowed)
            run.speed.mark()
            run.tally(True, count=result["succeeded"])
            if result["failed"]:
                run.tally(False, f"{result['failed']} of {result['sent']} "
                          "requests failed at full load",
                          count=result["failed"])

        clock = time.perf_counter
        end = clock() + SERVE_FIXED_SHARE * seconds
        run.speed.mark()
        r = 0
        while clock() < end or r < 3:
            in_process_round(r)
            samples = step(SERVE_FIXED_RATE, SERVE_SEGMENT_S,
                           r * 1009).pop("samples")
            rounds.add("serve", samples, run.speed.factor())
            saturated_round(r)
            r += 1
        # The headline is the server's CPU time per request at full load.
        # Served latency is not: each round trip waits for four process
        # wake-ups, and on a shared host whole runs see every one of them
        # delayed (fixed-rate medians of 7-19 ms against 3.5 ms, in two
        # consecutive runs whose in-process timings did not move).  Like
        # an update, it is scaled by the run's median factor: a reference
        # timed right beside it competes with the pinned server.
        run.raw["op_ms"] = percentile(serve_cpu, 50) * 1e3
        run.e2e["op_ms"] = run.raw["op_ms"] * run.speed.median()
        run.detail["serve_cpu_s"] = serve_cpu
        served = rounds.raw("serve")
        run.note("serve_p50_ms", percentile(served, 50) * 1e3, "ms")
        run.note("serve_p99_ms", percentile(served, 99) * 1e3, "ms")
        max_qps = 0.0
        ladder_step = (1.0 - SERVE_FIXED_SHARE) * seconds / len(SERVE_LADDER)
        for k, rate in enumerate(SERVE_LADDER):
            in_process_round(r + k)
            result = step(rate, ladder_step)
            run.speed.mark()
            result.pop("samples")
            backlog = result["backlog"]
            growing = (
                len(backlog) > 1
                and backlog[-1] > rate * SERVE_P99_LIMIT_MS / 1e3
                and all(a < b for a, b in zip(backlog, backlog[1:]))
            )
            result["growing_backlog"] = growing
            if (result["failed"] or growing
                    or result.get("p99_ms", math.inf) > SERVE_P99_LIMIT_MS):
                break
            max_qps = float(rate)
        rounds.read_queries(run, BATCH_SIZE)
        run.note("serve_max_qps", max_qps, "1/s")
        run.note("serve_p99_limit_ms", SERVE_P99_LIMIT_MS, "ms")
        run.detail["serve_steps"] = steps

        health = server.request({"op": "health", "id": 1})["health"]
        run.detail["server_health"] = {
            "batcher": health["batcher"], "pool": health["pool"],
            "requests": health["requests"], "errors": health["errors"],
        }
        snapshot_bytes = os.path.getsize(snapshot)
        run.note("snapshot_mb", snapshot_bytes / 1e6, "MB")
        run.e2e["store_mb"] = store_bytes(db) / 1e6
        server_rss = server.peak_rss_bytes()
        code = server.shutdown()
        server = None
        run.tally(code == 0, f"server exited {code}")
        run.e2e["peak_rss_mb"] = (peak_rss_bytes() + server_rss) / 1e6

        if tr.on:
            layer = run.layer
            layer["serve.startup_s"] = percentile(startups, 50)
            layer["serve.batcher.mean_batch"] = health["batcher"]["mean_batch"]
            layer["serve.batcher.size_flushes"] = \
                health["batcher"]["size_flushes"]
            layer["serve.batcher.timer_flushes"] = \
                health["batcher"]["timer_flushes"]
            layer["serve.pool.respawns"] = health["pool"]["respawns"]
            layer["serve.generator_late_ms"] = max(
                s["late_p50_ms"] for s in steps)
            mean_batch = max(1, round(health["batcher"]["mean_batch"]))
            pool = SnapshotWorkerPool(snapshot, workers=1)
            try:
                with tr.span(SERVE, "pool.query_batch"):
                    layer["serve.pool_batch_us"] = per_query_us(
                        pool.query_batch, plain[:mean_batch], mean_batch, 200)
            finally:
                pool.close()
            start = time.perf_counter()
            with tr.span(SERIALIZE, "save_diagram"):
                save_diagram(db.quadrant_diagram(),
                             os.path.join(workdir, "probe.snap"))
            layer["serialize.save_s"] = time.perf_counter() - start
            start = time.perf_counter()
            with tr.span(SERIALIZE, "map_diagram"):
                mapped, _ = map_diagram(snapshot)
            layer["serialize.map_s"] = time.perf_counter() - start
            del mapped
            layer["serialize.snapshot_bytes"] = snapshot_bytes
            with tr.span(ENGINE, "db.query_batch"):
                layer["query.planner_batch_us"] = per_query_us(
                    lambda b: db.query_batch(b, kind="quadrant"),
                    batches[0], BATCH_SIZE)
            box = boxed[0][1]
            with tr.span(ENGINE, "db.query_batch(constrained)"):
                layer["query.constrained_batch_us"] = per_query_us(
                    lambda b: db.query_batch(b, kind="constrained", box=box),
                    batches[0], BATCH_SIZE)
            diagram = db.quadrant_diagram()
            with tr.span(QUERY, "diagram.query_batch"):
                layer["query.kernel_batch_us"] = per_query_us(
                    diagram.query_batch, batches[0], BATCH_SIZE)
            probe_singles(run, lambda q: db.query(q, kind="quadrant"),
                          diagram.query, plain)
            engine_counters(run, db)
            del db, diagram
            diagrams = probe_builds(
                run, [("quadrant", quadrant_scanning, points)])
            probe_store(run, diagrams)
    finally:
        if server is not None:
            server.kill()
        shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# engine-read-write
# ----------------------------------------------------------------------
RW_N = 1000


def _update_rank(k: int) -> float:
    """Low-discrepancy y-rank fractions in [0, 1) for the k-th update.

    The schedule is the same for every seed, so runs differ only in
    their points, not in which ranks their updates happened to hit.
    """
    return (0.5 + k * GOLDEN) % 1.0


def engine_read_write(run: Run) -> None:
    rng = np.random.default_rng(run.seed)
    points = independent(rng, RW_N)
    queries = [tuple(map(float, q)) for q in rng.random((4096, 2))]
    tr = run.tr

    def build():
        with tr.span(ENGINE, "SkylineDatabase(precompute=quadrant)"):
            return SkylineDatabase(points, precompute=["quadrant"],
                                   build_options=VECTORIZED)

    db = timed_setup(run, build)
    batches = [queries[i:i + BATCH_SIZE]
               for i in range(0, len(queries), BATCH_SIZE)]
    rounds = Rounds()
    clock = time.perf_counter
    end = clock() + run.seconds
    run.speed.mark()
    k = 0
    while clock() < end or k < 4:
        # Reads against the current generation, checked against the
        # generation's own batch answers (and a sample against scratch).
        expected = [tuple(r) for r in db.query_batch(queries, kind="quadrant")]
        batch_expected = [expected[i:i + BATCH_SIZE]
                          for i in range(0, len(queries), BATCH_SIZE)]
        at = k * 211 % len(queries)
        scratch_sample(run, db, queries[at:at + 2], expected[at:at + 2],
                       "quadrant", kind="quadrant")
        run.speed.mark()
        singles = closed_loop(
            run, ENGINE, "db.query", lambda q: db.query(q, kind="quadrant"),
            queries, expected, SINGLE_BURST, P99_SAMPLES, at)
        batch = closed_loop(
            run, ENGINE, "db.query_batch",
            lambda b: db.query_batch(b, kind="quadrant"),
            batches, batch_expected, BATCH_BURST, 3, k)
        factor = run.speed.factor()
        rounds.add("single", singles, factor)
        rounds.add("batch", batch, factor)
        # One update per round, alternating insert and delete, with the
        # y-rank (and so the dirty block) spread evenly over [0, 1).
        rank = _update_rank(k // 2)
        if k % 2 == 0:
            op, value = "insert", (float(rng.random()), _y_at(db, rank))
        else:
            op, value = "delete", _id_at_rank(db, rank)
        run.speed.mark()
        start = clock()
        try:
            with tr.span(ENGINE, f"apply_update.{op}", request=k):
                outcome = db.apply_update(op, value)
            ok = outcome.get("applied") == 1 and outcome.get("pending") == 0
        except Exception as exc:  # counted, not fatal
            ok, outcome = False, repr(exc)
        elapsed = clock() - start
        rounds.add(op, [elapsed], run.speed.factor())
        run.tally(ok, f"{op} failed: {outcome}")
        k += 1

    rounds.read_queries(run, BATCH_SIZE)
    # Update cost depends on the rank by design: the headline is the
    # mean over insert+delete pairs of the pair's mean.  The ranks follow
    # a low-discrepancy schedule, so the mean over however many pairs
    # fit in the run estimates the mean over all ranks; a median of ~12
    # pairs jumps with the number of pairs that fit.
    inserts, deletes = rounds.raw("insert"), rounds.raw("delete")
    pairs = [(a + b) / 2.0 for a, b in zip(inserts, deletes)]
    run.raw["op_ms"] = statistics.fmean(pairs) * 1e3
    run.e2e["op_ms"] = run.raw["op_ms"] * run.speed.median()
    upd = summary(inserts + deletes, 1e3)
    run.note("update_p50_ms", upd["p50"], "ms")
    run.note(f"update_tail_ms[{upd['tail_label']}]", upd["tail"], "ms")
    run.note("insert_p50_ms", percentile(inserts, 50) * 1e3, "ms")
    run.note("delete_p50_ms", percentile(deletes, 50) * 1e3, "ms")
    run.detail["updates"] = {"insert_s": inserts, "delete_s": deletes}

    # The maintained store must be byte-identical to a fresh build.
    with tr.span(PIPELINE, "fresh build for fingerprint check"):
        fresh = quadrant_scanning(db.dataset.points,
                                  build_options=VECTORIZED)
    maintained = db.quadrant_diagram().store.fingerprint()
    run.tally(fresh.store.fingerprint() == maintained,
              "maintained fingerprint differs from a fresh build")
    run.detail["fingerprint_checked"] = True
    run.e2e["store_mb"] = store_bytes(db) / 1e6
    run.e2e["peak_rss_mb"] = peak_rss_bytes() / 1e6

    if tr.on:
        current = list(db.dataset.points)
        diagram = db.quadrant_diagram()
        with tr.span(QUERY, "diagram.query_batch"):
            run.layer["query.kernel_batch_us"] = per_query_us(
                diagram.query_batch, queries[:BATCH_SIZE], BATCH_SIZE)
        with tr.span(ENGINE, "db.query_batch"):
            run.layer["query.planner_batch_us"] = per_query_us(
                lambda b: db.query_batch(b, kind="quadrant"),
                queries[:BATCH_SIZE], BATCH_SIZE)
        probe_singles(run, lambda q: db.query(q, kind="quadrant"),
                      diagram.query, queries)
        engine_counters(run, db)
        del diagram
        _probe_maintenance(run, db, rng)
        del db
        diagrams = probe_builds(
            run, [("quadrant", quadrant_scanning, current)])
        probe_store(run, diagrams)


def _y_at(db, rank: float) -> float:
    """A fresh y coordinate at the given rank fraction of the dataset."""
    ys = sorted(p[1] for p in db.dataset.points)
    i = min(len(ys) - 2, int(rank * (len(ys) - 1)))
    return (ys[i] + ys[i + 1]) / 2.0


def _id_at_rank(db, rank: float) -> int:
    """The id of the point whose y-rank is the given fraction."""
    points = db.dataset.points
    order = sorted(range(len(points)), key=lambda i: points[i][1])
    return order[min(len(order) - 1, int(rank * len(order)))]


def _probe_maintenance(run: Run, db, rng) -> None:
    """Maintenance calls on copies vs the engine path vs a rebuild."""
    layer = run.layer
    ratios, overheads, scanned = [], [], []
    ins, dels = [], []
    for rank in (0.25, 0.75):
        for op in ("insert", "delete"):
            diagram = db.quadrant_diagram()
            if op == "insert":
                value = (float(rng.random()), _y_at(db, rank))
                fn = insert_point
            else:
                value = _id_at_rank(db, rank)
                fn = delete_point
            gc.collect()
            start = time.perf_counter()
            with run.tr.span(MAINT, f"{fn.__name__}"):
                updated = fn(diagram, value, build_options=VECTORIZED)
            maint_s = time.perf_counter() - start
            (ins if op == "insert" else dels).append(maint_s)
            report = updated.build_report
            scanned.append(report.rows_scanned / updated.store.shape[1])
            new_points = updated.grid.dataset.points
            gc.collect()
            start = time.perf_counter()
            with run.tr.span(PIPELINE, "vectorized rebuild"):
                quadrant_scanning(new_points, build_options=VECTORIZED)
            rebuild_s = time.perf_counter() - start
            ratios.append(maint_s / rebuild_s)
            gc.collect()
            start = time.perf_counter()
            with run.tr.span(ENGINE, f"apply_update.{op}"):
                db.apply_update(op, value)
            overheads.append(time.perf_counter() - start - maint_s)
    layer["maintenance.insert_s"] = percentile(ins, 50)
    layer["maintenance.delete_s"] = percentile(dels, 50)
    layer["maintenance.rows_scanned_frac"] = percentile(scanned, 50)
    layer["maintenance.vs_rebuild"] = percentile(ratios, 50)
    layer["engine.update_overhead_ms"] = percentile(overheads, 50) * 1e3


# ----------------------------------------------------------------------
# build-composite
# ----------------------------------------------------------------------
GLOBAL_N, DYNAMIC_N = 300, 20
BOUNDARY_EVERY = 10


def _composite_queries(rng, g_points, d_points, count: int):
    """Uniform queries; every tenth lies exactly on a grid/bisector line."""
    g_lines = [p[0] for p in g_points]
    d_lines = [p[0] for p in d_points] + [
        (a[0] + b[0]) / 2.0
        for i, a in enumerate(d_points) for b in d_points[i + 1:]
    ]
    out = {}
    for kind, lines in (("global", g_lines), ("dynamic", d_lines)):
        coords = rng.random((count, 2))
        on_line = rng.integers(len(lines), size=count)
        out[kind] = [
            (lines[on_line[i]] if i % BOUNDARY_EVERY == 0 else float(x),
             float(y))
            for i, (x, y) in enumerate(coords)
        ]
    return out


def build_composite(run: Run) -> None:
    rng = np.random.default_rng(run.seed)
    g_points = anticorrelated(rng, GLOBAL_N)
    d_points = independent(rng, DYNAMIC_N)
    queries = _composite_queries(rng, g_points, d_points, 8192)
    tr = run.tr

    def build():
        with tr.span(ENGINE, "SkylineDatabase(precompute=global)"):
            g_db = SkylineDatabase(g_points, precompute=["global"],
                                   build_options=VECTORIZED)
        with tr.span(ENGINE, "SkylineDatabase(precompute=dynamic)"):
            d_db = SkylineDatabase(d_points, precompute=["dynamic"],
                                   build_options=VECTORIZED)
        return g_db, d_db

    g_db, d_db = timed_setup(run, build)
    dbs = {"global": g_db, "dynamic": d_db}
    expected = {
        kind: [tuple(r) for r in dbs[kind].query_batch(qs, kind=kind)]
        for kind, qs in queries.items()
    }
    for kind, qs in queries.items():
        scratch_sample(run, dbs[kind], qs[:64], expected[kind][:64], kind,
                       kind=kind)
    # Single queries: the global union lookup (the larger diagram).
    singles = queries["global"]

    def single(q):
        return g_db.query(q, kind="global")

    batches = {
        kind: [qs[i:i + BATCH_SIZE] for i in range(0, len(qs), BATCH_SIZE)]
        for kind, qs in queries.items()
    }
    batch_expected = {
        kind: [expected[kind][i:i + BATCH_SIZE]
               for i in range(0, len(qs), BATCH_SIZE)]
        for kind, qs in queries.items()
    }
    pairs = list(zip(batches["global"], batches["dynamic"]))
    pair_expected = [tuple(e) for e in zip(batch_expected["global"],
                                           batch_expected["dynamic"])]

    def both(pair):
        return (g_db.query_batch(pair[0], kind="global"),
                d_db.query_batch(pair[1], kind="dynamic"))

    # Rounds: single queries, union batches, then one generation refresh
    # of both databases.
    rounds = Rounds()
    clock = time.perf_counter
    end = clock() + run.seconds
    run.speed.mark()
    r = 0
    while clock() < end or r < 3:
        singles_lat = closed_loop(
            run, ENGINE, "db.query", single, singles, expected["global"],
            SINGLE_BURST, P99_SAMPLES, r * 997)
        batch = closed_loop(
            run, ENGINE, "db.query_batch", both, pairs, pair_expected,
            BATCH_BURST, 3, r)
        factor = run.speed.factor()
        rounds.add("single", singles_lat, factor)
        rounds.add("batch", batch, factor)
        for kind, db in dbs.items():
            start = clock()
            try:
                with tr.span(ENGINE, f"rebuild.{kind}", request=r):
                    outcome = db.rebuild(refresh=True)
                ok = outcome == {kind: "refreshed"}
            except Exception as exc:  # counted, not fatal
                ok, outcome = False, repr(exc)
            rounds.add(kind, [clock() - start], run.speed.factor())
            run.tally(ok, f"rebuild {kind}: {outcome}")
        r += 1
    # One batch step answers a global and a dynamic batch.
    rounds.read_queries(run, 2 * BATCH_SIZE)
    # The headline refreshes both databases: the sum of the two medians.
    run.raw["op_ms"] = sum(
        percentile(rounds.raw(kind), 50) for kind in dbs) * 1e3
    run.e2e["op_ms"] = run.raw["op_ms"] * run.speed.median()
    totals = [g + d for g, d in zip(rounds.raw("global"),
                                    rounds.raw("dynamic"))]
    run.note("rebuild_p50_s", percentile(totals, 50), "s")
    for kind in dbs:
        run.note(f"rebuild_p50_s.{kind}", percentile(rounds.raw(kind), 50),
                 "s")
    # Refreshed diagrams must still answer exactly as the oracle does.
    for kind, qs in queries.items():
        answers = dbs[kind].query_batch(qs[:64], kind=kind)
        scratch_sample(run, dbs[kind], qs[:64], answers, f"{kind} refreshed",
                       kind=kind)
    run.e2e["store_mb"] = store_bytes(g_db, d_db) / 1e6
    run.e2e["peak_rss_mb"] = peak_rss_bytes() / 1e6

    if tr.on:
        layer = run.layer
        for kind, db in dbs.items():
            diagram = getattr(db, f"{kind}_diagram")()
            with tr.span(QUERY, f"diagram.query_batch.{kind}"):
                layer[f"query.union_batch_us.{kind}"] = per_query_us(
                    diagram.query_batch, batches[kind][0], BATCH_SIZE)
        with tr.span(ENGINE, "db.query_batch"):
            layer["query.planner_batch_us"] = per_query_us(
                lambda b: g_db.query_batch(b, kind="global"),
                batches["global"][0], BATCH_SIZE)
        probe_singles(run, single, g_db.global_diagram().query, singles)
        engine_counters(run, g_db, d_db)
        del g_db, d_db, dbs
        diagrams = probe_builds(run, [
            ("global", global_diagram, g_points),
            ("dynamic", dynamic_scanning, d_points),
        ])
        probe_store(run, diagrams)


WORKLOADS = {
    "serve-quadrant": serve_quadrant,
    "engine-read-write": engine_read_write,
    "build-composite": build_composite,
}
