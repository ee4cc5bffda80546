"""Telemetry overhead gate: ``repro.obs`` must be free when disabled.

The observability ISSUE admits the telemetry layer only if instrumenting
the analysis paths costs <2% throughput when telemetry is *disabled* (the
default for every ``repro check``).  This benchmark measures the FastTrack
fused kernel the way the instrumented engine/CLI run it, in three modes:

* **raw**      — ``run_kernel(tool, columns)`` alone, the pre-obs
  baseline;
* **disabled** — the same analysis wrapped in the exact per-run
  instrumentation the CLI and engine add (``obs.span`` around the run,
  ``obs.record_rules`` after it) with no telemetry sink active — the
  span must be the shared null span and the rule flush a no-op;
* **enabled**  — the same with ``obs.enable`` pointed at a throwaway
  directory, to document what turning telemetry on actually costs.

The three are timed in interleaved best-of rounds (``gc.collect()``
before each timed region) so scheduling noise hits all modes equally.
The gate asserts ``disabled/raw - 1 < 2%``; the enabled-mode overhead is
recorded but not gated (it is opt-in).  Results go to the session
recorder that ``benchmarks/conftest.py`` serializes to
``benchmarks/BENCH_obs.json``.

Since the distributed-tracing PR the file also records (not gates) the
tracing-era costs: what a histogram observation pays for carrying an
exemplar, how fast :func:`repro.obs.stitch_traces` +
:func:`repro.obs.critical_path` chew through span records, and the
end-to-end wall of a traced job through the *service* path (a ``repro
serve`` process, ``X-Repro-Trace-Id`` submitted, telemetry sink on) next
to the same job on a second daemon with telemetry off, timed in
alternating pairs.

Tunables: ``BENCH_OBS_SCALE`` (default 4000 ≈ 96k events) and
``BENCH_OBS_ROUNDS`` (default 7, best kept).
"""

import gc
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import repro
from repro import obs
from repro.bench.eclipse import import_program
from repro.kernels import run_kernel
from repro.obs.metrics import MetricsRegistry
from repro.runtime.scheduler import run_program
from repro.trace.columnar import ColumnarTrace

OBS_SCALE = int(os.environ.get("BENCH_OBS_SCALE", "4000"))
ROUNDS = int(os.environ.get("BENCH_OBS_ROUNDS", "7"))

#: Traced/untraced job pairs for the service wall: one job per mode read
#: +33%, +40% and -0.1% on three runs of one tree.
PAIRS = 7

TOOL = "FastTrack"

#: The ISSUE's acceptance bound on telemetry-disabled overhead.
MAX_DISABLED_OVERHEAD = 0.02


def _columns():
    trace = run_program(import_program(OBS_SCALE), seed=0)
    return ColumnarTrace.from_events(list(trace.events))


def _run_raw(columns):
    return run_kernel(TOOL, columns)


def _run_instrumented(columns):
    """The analysis as the instrumented CLI/engine executes it: a span
    around the run, a batched rule flush after it."""
    with obs.span("kernels", tool=TOOL, events=len(columns)) as span:
        detector = run_kernel(TOOL, columns)
    obs.record_rules(TOOL, detector.stats)
    del span
    return detector


def test_obs_overhead(obs_bench_recorder):
    columns = _columns()
    n = len(columns)
    assert not obs.enabled()
    assert obs.span("probe") is obs.NULL_SPAN  # disabled => shared null span

    telemetry_dir = tempfile.mkdtemp(prefix="repro-obs-bench-")
    raw_best = disabled_best = enabled_best = float("inf")
    try:
        for _ in range(ROUNDS):
            gc.collect()
            start = time.perf_counter()
            _run_raw(columns)
            raw_best = min(raw_best, time.perf_counter() - start)

            gc.collect()
            start = time.perf_counter()
            _run_instrumented(columns)
            disabled_best = min(disabled_best, time.perf_counter() - start)

            obs.enable(telemetry_dir)
            try:
                gc.collect()
                start = time.perf_counter()
                _run_instrumented(columns)
                enabled_best = min(
                    enabled_best, time.perf_counter() - start
                )
            finally:
                obs.disable()
    finally:
        shutil.rmtree(telemetry_dir, ignore_errors=True)

    disabled_overhead = disabled_best / raw_best - 1.0
    enabled_overhead = enabled_best / raw_best - 1.0
    obs_bench_recorder["obs_overhead"] = {
        "workload": "eclipse-import",
        "tool": TOOL,
        "events": n,
        "rounds": ROUNDS,
        "cpus": os.cpu_count(),
        "raw_seconds": raw_best,
        "disabled_seconds": disabled_best,
        "enabled_seconds": enabled_best,
        "raw_events_per_sec": n / raw_best,
        "disabled_events_per_sec": n / disabled_best,
        "enabled_events_per_sec": n / enabled_best,
        "disabled_overhead": disabled_overhead,
        "enabled_overhead": enabled_overhead,
        "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
    }
    print(
        f"\nraw {n / raw_best:,.0f} ev/s, "
        f"disabled {n / disabled_best:,.0f} ev/s "
        f"({disabled_overhead:+.2%}), "
        f"enabled {n / enabled_best:,.0f} ev/s ({enabled_overhead:+.2%})"
    )
    assert disabled_overhead < MAX_DISABLED_OVERHEAD, (
        f"telemetry-disabled overhead {disabled_overhead:+.2%} exceeds "
        f"the {MAX_DISABLED_OVERHEAD:.0%} budget"
    )


def test_exemplar_and_stitching_overhead(obs_bench_recorder):
    """Document (never gate) what the tracing additions cost: exemplar
    capture per histogram observation, and stitch/critical-path
    throughput over a realistic span population."""
    observations = 200_000
    registry = MetricsRegistry()
    plain = registry.histogram("bench_plain_seconds", "no exemplars")
    tagged = registry.histogram("bench_tagged_seconds", "with exemplars")

    gc.collect()
    start = time.perf_counter()
    for n in range(observations):
        plain.observe(n * 1e-6, tool=TOOL)
    plain_s = time.perf_counter() - start

    exemplar = {"job": "bench", "trace_id": "bench-trace", "shards": 4}
    gc.collect()
    start = time.perf_counter()
    for n in range(observations):
        tagged.observe(n * 1e-6, exemplar=exemplar, tool=TOOL)
    tagged_s = time.perf_counter() - start

    # A synthetic multi-process trace: one root, a fan of shard spans
    # with attach/kernel children — the shape real runs produce.
    spans = [{
        "type": "span", "id": "root", "parent": None, "name": "check",
        "trace_id": "t", "pid": 1, "start_unix": 0.0, "wall_s": 100.0,
        "cpu_s": 0.0, "status": "ok", "attrs": {},
    }]
    for shard in range(3000):
        sid = f"s{shard}"
        spans.append({
            "type": "span", "id": sid, "parent": "root",
            "name": "shard.analyze", "trace_id": "t", "pid": 2 + shard % 4,
            "start_unix": float(shard), "wall_s": 1.0, "cpu_s": 0.0,
            "status": "ok", "attrs": {"shard": shard},
        })
        for stage in ("attach", "kernel"):
            spans.append({
                "type": "span", "id": f"{sid}.{stage}", "parent": sid,
                "name": f"shard.{stage}", "trace_id": "t",
                "pid": 2 + shard % 4, "start_unix": float(shard),
                "wall_s": 0.4, "cpu_s": 0.0, "status": "ok", "attrs": {},
            })
    gc.collect()
    start = time.perf_counter()
    stitched = obs.stitch_traces(spans)
    path = obs.critical_path(stitched["t"]["spans"])
    stitch_s = time.perf_counter() - start
    assert len(path) == 3  # root -> last shard -> its last child

    obs_bench_recorder["tracing_overhead"] = {
        "observations": observations,
        "observe_plain_seconds": plain_s,
        "observe_exemplar_seconds": tagged_s,
        "exemplar_ns_per_observation": (
            (tagged_s - plain_s) / observations * 1e9
        ),
        "stitched_spans": len(spans),
        "stitch_seconds": stitch_s,
        "stitch_spans_per_sec": len(spans) / stitch_s,
    }
    print(
        f"\nobserve {observations / plain_s:,.0f}/s plain, "
        f"{observations / tagged_s:,.0f}/s with exemplar "
        f"({(tagged_s - plain_s) / observations * 1e9:+.0f} ns each); "
        f"stitch {len(spans) / stitch_s:,.0f} spans/s"
    )


def _serve(store, telemetry=None):
    """A ``repro serve`` process on an ephemeral port, with its client.

    A process of its own, because the telemetry sink is process-wide:
    two daemons in one interpreter would trace each other's jobs."""
    from repro.service.client import Client

    argv = [
        sys.executable, "-m", "repro", "serve", "--port", "0",
        "--workers", "1", "--store", store,
    ]
    if telemetry is not None:
        argv += ["--telemetry", telemetry]
    src = os.path.dirname(os.path.dirname(repro.__file__))
    log = store + ".log"
    with open(log, "wb") as stream:
        process = subprocess.Popen(
            argv, stdout=subprocess.DEVNULL, stderr=stream,
            env=dict(os.environ, PYTHONPATH=src),
        )
    deadline = time.monotonic() + 60.0
    while True:
        if process.poll() is not None or time.monotonic() > deadline:
            _stop(process)
            raise RuntimeError(f"repro serve did not come up; see {log}")
        with open(log, "rb") as stream:
            match = re.search(
                rb"listening on http://([\d.]+):(\d+)", stream.read()
            )
        if match:
            client = Client(
                match.group(1).decode(), int(match.group(2)), timeout=120.0
            )
            try:
                client.healthz()
                return process, client
            except OSError:
                pass
        time.sleep(0.01)


def _stop(process):
    """SIGTERM (the daemon's drain), then kill if it lingers."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def test_traced_service_job_wall(obs_bench_recorder, tmp_path):
    """End-to-end wall of one job through the daemon, traced vs not:
    the price of the full tracing path (header → job record → runner
    trace scope → per-shard spans → exemplars), recorded, not gated.

    Both daemons start once; ``PAIRS`` pairs of jobs alternate which
    mode goes first, and each job's trace carries a leading comment of
    its own, so no job reuses another's partition."""
    from repro.trace.serialize import dumps

    trace_text = dumps(
        list(run_program(import_program(OBS_SCALE // 4), seed=0).events)
    )
    modes = ("untraced", "traced")
    daemons = {}
    try:
        for mode in modes:
            daemons[mode] = _serve(
                str(tmp_path / f"store-{mode}"),
                telemetry=str(tmp_path / "tel") if mode == "traced" else None,
            )
        walls = {mode: [] for mode in modes}
        for pair in range(PAIRS):
            order = modes if pair % 2 == 0 else modes[::-1]
            for mode in order:
                path = tmp_path / f"job-{pair}-{mode}.trace"
                path.write_text(f"# job {pair} {mode}\n" + trace_text)
                client = daemons[mode][1]
                gc.collect()
                start = time.perf_counter()
                job = client.submit(
                    path=str(path), shards=2,
                    trace_id="bench-trace" if mode == "traced" else None,
                )
                client.wait(job["id"], timeout=120.0, poll=0.02)
                walls[mode].append(time.perf_counter() - start)
    finally:
        for process, _ in daemons.values():
            _stop(process)
    ratios = [
        traced / untraced
        for traced, untraced in zip(walls["traced"], walls["untraced"])
    ]
    untraced_s = statistics.median(walls["untraced"])
    traced_s = statistics.median(walls["traced"])
    overhead = statistics.median(ratios) - 1.0
    obs_bench_recorder["traced_service_job"] = {
        "events_scale": OBS_SCALE // 4,
        "pairs": PAIRS,
        "untraced_seconds": untraced_s,
        "traced_seconds": traced_s,
        "traced_over_untraced": overhead,
        "pair_ratios": ratios,
    }
    print(
        f"\nservice job over {PAIRS} pairs: untraced {untraced_s:.3f}s, "
        f"traced {traced_s:.3f}s (median pair {overhead:+.1%})"
    )
