"""Predictive detection overhead: WCP vs FastTrack, plus vindication.

SmartTrack's headline (PLDI 2020) is that predictive analyses can run at
near-FastTrack cost.  This benchmark measures our WCP implementation with
best-of rounds over the eclipse ``Import`` workload, each tool on the
loop the engine runs for it (``engine.worker.analyze_columns``):
FastTrack on its fused kernel, WCP, which has no kernel, on its object
path over the same columns.  It records:

* FastTrack and WCP events-per-second on those loops and the resulting
  overhead ratio;
* the *extra races found*: WCP-warned variables beyond FastTrack's on
  the workload and across the golden corpus (with their vindication
  verdicts — the count of feasibility-checked witnesses);
* end-to-end ``predict_races`` wall time on the corpus, since the
  windowed predictor is the user-facing surface.

Results go to ``benchmarks/BENCH_predict.json`` via the session recorder
in ``benchmarks/conftest.py``; the CI ``predict`` job uploads it as an
artifact.  The only hard gates are correctness ones (the superset
invariant, every workload extra vindicated or observed) — throughput is
recorded for the trajectory, not gated, because WCP's per-access
critical-section bookkeeping is expected to cost a small constant over
FastTrack.

Tunables: ``BENCH_PREDICT_SCALE`` (default 6000) and
``BENCH_PREDICT_ROUNDS`` (default 5, best kept).
"""

import gc
import json
import os
import time
from pathlib import Path

import pytest

from repro.bench.eclipse import import_program
from repro.engine.worker import analyze_columns
from repro.predict import predict_races
from repro.runtime.scheduler import run_program
from repro.trace.columnar import ColumnarTrace
from repro.trace.serialize import loads

PREDICT_SCALE = int(os.environ.get("BENCH_PREDICT_SCALE", "6000"))
ROUNDS = int(os.environ.get("BENCH_PREDICT_ROUNDS", "5"))

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
MANIFEST = json.loads((DATA / "manifest.json").read_text())


@pytest.fixture(scope="module")
def workload():
    trace = run_program(import_program(PREDICT_SCALE), seed=0)
    events = list(trace.events)
    return events, ColumnarTrace.from_events(events)


def _best_of(columns, tool):
    best = float("inf")
    detector = None
    for _ in range(ROUNDS):
        gc.collect()
        start = time.perf_counter()
        detector, _, _ = analyze_columns(tool, columns)
        best = min(best, time.perf_counter() - start)
    return best, detector


def test_wcp_overhead_vs_fasttrack(benchmark, workload, predict_bench_recorder):
    events, columns = workload
    n = len(events)
    ft_best, ft = _best_of(columns, "FastTrack")
    wcp_best, wcp = _best_of(columns, "WCP")

    ft_vars = {ft.shadow_key(w.var) for w in ft.warnings}
    wcp_vars = {wcp.shadow_key(w.var) for w in wcp.warnings}
    assert ft_vars <= wcp_vars  # the invariant, even mid-benchmark

    overhead = wcp_best / ft_best
    predict_bench_recorder["wcp_overhead"] = {
        "workload": "eclipse-import",
        "events": n,
        "rounds": ROUNDS,
        "cpus": os.cpu_count(),
        "fasttrack_seconds": ft_best,
        "wcp_seconds": wcp_best,
        "fasttrack_events_per_sec": n / ft_best,
        "wcp_events_per_sec": n / wcp_best,
        "overhead_vs_fasttrack": overhead,
        "extra_races_found": len(wcp_vars - ft_vars),
    }
    print(
        f"\nFastTrack {n / ft_best:,.0f} ev/s, WCP {n / wcp_best:,.0f} ev/s, "
        f"overhead {overhead:.2f}x, extras {len(wcp_vars - ft_vars)}"
    )
    benchmark.extra_info["overhead"] = overhead
    benchmark.pedantic(
        lambda: analyze_columns("WCP", columns), rounds=1, iterations=1
    )


def test_corpus_extra_races_and_vindication(
    benchmark, predict_bench_recorder
):
    """Extra-races-found across the golden corpus, with vindication
    verdicts and the predictor's end-to-end wall time."""
    per_trace = {}
    extras_total = vindicated_total = 0
    start = time.perf_counter()
    for name in sorted(MANIFEST):
        events = list(loads((DATA / f"{name}.trace").read_text()))
        report = predict_races(events)
        expected = MANIFEST[name]["warnings"]
        extras = sorted(set(expected["WCP"]) - set(expected["FastTrack"]))
        vindicated = len(report.vindicated)
        assert report.unvindicated == [], name
        extras_total += len(extras)
        vindicated_total += vindicated
        per_trace[name] = {
            "events": len(events),
            "extra_races_found": len(extras),
            "extra_vars": extras,
            "observed": len(report.observed),
            "vindicated": vindicated,
        }
    wall = time.perf_counter() - start
    predict_bench_recorder["corpus_prediction"] = {
        "traces": per_trace,
        "extra_races_found": extras_total,
        "vindicated_witnesses": vindicated_total,
        "predict_wall_seconds": wall,
    }
    assert extras_total >= 3  # predict_lock, predict_fork, section2
    print(
        f"\ncorpus: {extras_total} extra race(s), "
        f"{vindicated_total} vindicated witness(es), {wall:.2f}s"
    )
    benchmark.extra_info["extra_races_found"] = extras_total
    benchmark.pedantic(
        lambda: predict_races(
            list(loads((DATA / "predict_lock.trace").read_text()))
        ),
        rounds=1,
        iterations=1,
    )
