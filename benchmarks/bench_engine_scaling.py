"""Engine scaling: throughput (events/sec) vs worker count, by stage.

The sharded engine's pitch is data-parallel scale-out of the offline
analyses (docs/ENGINE.md): partition once into zero-copy columnar shard
buffers (the v3 transport), then analyze shards on N worker processes
that attach to the buffers without deserializing anything.  This
benchmark measures both halves separately:

* the **partition** stage — one pass over the trace's columns (an
  Eclipse-style ``Import`` operation, the paper's heaviest workload
  shape, ≥200k events at the default scale), run once; its published
  ``shard_bytes`` is the entire transport payload (33 bytes/event plus
  the intern table), and
* the **analyze+merge** phase — timed at 1, 2, and 4 workers against
  the same shard buffers, the same way a ``--resume`` run would execute
  it.  The timed rounds run with telemetry off; one extra traced round
  per cell records the per-stage breakdown from the engine's own spans
  (``attach_s`` = ``shard.attach`` summed across workers, ``analyze_s``
  = ``engine.analyze``, ``merge_s`` = ``engine.merge``).  Pool workers
  write their spans to ``spans-<pid>.jsonl`` in the same directory.

Results are pushed into the session recorder that
``benchmarks/conftest.py`` serializes to ``benchmarks/BENCH_engine.json``,
so successive PRs can track the throughput trajectory machine-readably.
``cpus`` is recorded alongside: on a single-core container the 4-worker
speedup is bounded at ~1.0 by hardware, not by the engine — which is why
the speedup *gate* is opt-in: the CI engine-scaling job (a multi-core
runner) exports ``REPRO_BENCH_MIN_SPEEDUP`` and the summary test fails
below it; locally the numbers are recorded without judgment.

Tunables: ``BENCH_ENGINE_SCALE`` (workload scale, default 8500 ≈ 204k
events), ``BENCH_ENGINE_SHARDS`` (default 8), ``BENCH_ENGINE_ROUNDS``
(default 3, min is kept), ``REPRO_BENCH_MIN_SPEEDUP`` (4v1 floor;
unset = record only).
"""

import os
import shutil
import tempfile
import time

import pytest

from repro import engine, obs
from repro.bench.eclipse import import_program
from repro.engine.checkpoint import Workdir
from repro.runtime.scheduler import run_program

TOOL = "FastTrack"
WORKER_COUNTS = (1, 2, 4)
ENGINE_SCALE = int(os.environ.get("BENCH_ENGINE_SCALE", "8500"))
NSHARDS = int(os.environ.get("BENCH_ENGINE_SHARDS", "8"))
ROUNDS = int(os.environ.get("BENCH_ENGINE_ROUNDS", "3"))
MIN_SPEEDUP = os.environ.get("REPRO_BENCH_MIN_SPEEDUP")


def _traced(run):
    """Run ``run()`` with telemetry on; returns every span it wrote,
    the pool workers' included."""
    directory = tempfile.mkdtemp(prefix="bench-engine-spans-")
    obs.enable(directory)
    try:
        run()
    finally:
        obs.disable()
    try:
        return obs.read_all_spans(directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _span_seconds(spans, name):
    return sum(
        span["wall_s"] for span in spans
        if span.get("type") == "span" and span["name"] == name
    )


@pytest.fixture(scope="module")
def partitioned(tmp_path_factory):
    """One partitioned working directory shared by every worker count:
    the buffers are attached by every (jobs, round) cell below, and the
    mmap'd shard files share one page-cache copy across all of them — as
    the service's resident partitions do (docs/SERVICE.md).  The
    partition runs once, traced, through the engine."""
    trace = run_program(import_program(ENGINE_SCALE), seed=0)
    root = str(tmp_path_factory.mktemp("engine_scaling"))
    spans = _traced(lambda: engine.check_events(
        iter(trace.events), tool=TOOL, nshards=NSHARDS, workdir=root
    ))
    (partition,) = [s for s in spans if s["name"] == "engine.partition"]
    stage = {
        "partition_s": partition["wall_s"],
        "shard_bytes": partition["attrs"]["bytes"],
    }
    return root, len(trace), stage


def _timed_analysis(root, jobs):
    """Analyze all shards with ``jobs`` workers; partition cost excluded."""
    Workdir(root).clear_results(TOOL, NSHARDS)
    start = time.perf_counter()
    report = engine.check_events(
        (), tool=TOOL, workdir=root, resume=True, jobs=jobs
    )
    return time.perf_counter() - start, report


@pytest.mark.parametrize("jobs", WORKER_COUNTS)
def test_engine_scaling_cell(
    benchmark, partitioned, jobs, engine_bench_recorder
):
    root, events, partition_stage = partitioned
    best = None
    reference_warnings = None
    for _ in range(ROUNDS):
        seconds, report = _timed_analysis(root, jobs)
        best = seconds if best is None else min(best, seconds)
        if reference_warnings is None:
            reference_warnings = [str(w) for w in report.warnings]
        else:
            # Worker count must never change the verdict.
            assert [str(w) for w in report.warnings] == reference_warnings
    spans = _traced(lambda: _timed_analysis(root, jobs))
    engine_bench_recorder.setdefault("engine_scaling", {}).update(
        {
            "workload": "eclipse-import",
            "tool": TOOL,
            "events": events,
            "nshards": NSHARDS,
            "cpus": os.cpu_count(),
            # The jobs-independent stage, measured once in the fixture.
            "partition": partition_stage,
        }
    )
    engine_bench_recorder["engine_scaling"].setdefault("results", {})[
        str(jobs)
    ] = {
        "seconds": best,
        "events_per_sec": events / best if best else None,
        "warnings": len(reference_warnings),
        # The traced round's per-stage breakdown: attach_s is the
        # per-shard attach cost summed across workers (under v3 there is
        # no deserialization — this is the whole transport tax),
        # analyze_s the parallel phase wall-clock, merge_s the k-way
        # merge.
        "stages": {
            "attach_s": _span_seconds(spans, "shard.attach"),
            "analyze_s": _span_seconds(spans, "engine.analyze"),
            "merge_s": _span_seconds(spans, "engine.merge"),
            "shard_bytes": partition_stage["shard_bytes"],
        },
        # More workers than cores: wall-clock reflects contention, not
        # the engine (flagged so trend tooling can discount the cell).
        "oversubscribed": jobs > (os.cpu_count() or 1),
    }
    benchmark.extra_info["events"] = events
    benchmark.extra_info["jobs"] = jobs
    benchmark.pedantic(
        lambda: _timed_analysis(root, jobs), rounds=1, iterations=1
    )


def test_engine_scaling_summary(partitioned, engine_bench_recorder):
    """Derive the speedup table once all cells have run (items are sorted
    by nodeid, so `summary` follows the `cell` parametrizations), and
    enforce the CI floor when ``REPRO_BENCH_MIN_SPEEDUP`` is exported."""
    data = engine_bench_recorder.get("engine_scaling", {})
    results = data.get("results", {})
    if str(WORKER_COUNTS[0]) not in results:
        pytest.skip("scaling cells did not run")
    base = results[str(WORKER_COUNTS[0])]["seconds"]
    data["speedup"] = {
        f"{jobs}v1": base / results[str(jobs)]["seconds"]
        for jobs in WORKER_COUNTS
        if str(jobs) in results
    }
    partition = data.get("partition", {})
    print()
    print(f"engine scaling over {data['events']} events, {NSHARDS} shards, "
          f"{data['cpus']} cpu(s):")
    if partition:
        print(
            f"  partition: {partition['partition_s']:.3f}s "
            f"({partition['shard_bytes']:,} shard bytes)"
        )
    for jobs in WORKER_COUNTS:
        cell = results.get(str(jobs))
        if cell:
            stages = cell.get("stages", {})
            print(
                f"  jobs={jobs}: {cell['seconds']:.3f}s "
                f"({cell['events_per_sec']:,.0f} events/s, "
                f"speedup {data['speedup'][f'{jobs}v1']:.2f}x; "
                f"attach {stages.get('attach_s') or 0.0:.3f}s, "
                f"analyze {stages.get('analyze_s') or 0.0:.3f}s, "
                f"merge {stages.get('merge_s') or 0.0:.3f}s)"
            )
    if MIN_SPEEDUP:
        floor = float(MIN_SPEEDUP)
        achieved = data["speedup"].get("4v1", 0.0)
        assert achieved >= floor, (
            f"4-worker speedup {achieved:.2f}x is below the "
            f"REPRO_BENCH_MIN_SPEEDUP={floor:g}x floor on a "
            f"{data['cpus']}-cpu runner — the transport stopped scaling"
        )
