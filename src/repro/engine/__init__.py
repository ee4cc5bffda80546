"""Sharded, parallel offline race-checking engine.

``repro.engine`` scales the offline analyses to machines with more than
one core, and makes long runs resumable, with *zero* precision loss.  A
trace file is parsed once into interned columns (:func:`read_columns`).
Four layers (one module each):

1. :mod:`~repro.engine.partition` — one pass over the trace's parsed
   columns routes each read/write to ``stable_hash(variable) % nshards``
   and broadcasts every synchronization event to all shards, publishing
   flat zero-copy columnar buffers against the parser's intern tables
   through :mod:`~repro.engine.transport` (format v3: mmap'd shard
   files);
2. :mod:`~repro.engine.worker` — per-shard detector runs (optionally in
   ``multiprocessing`` workers), each seeing the complete sync order plus
   its variables' accesses, so per-variable analysis is exact;
   kernel-equipped tools consume the shard columns through the fused
   kernels of :mod:`repro.kernels`, every other tool through its object
   path;
3. :mod:`~repro.engine.merge` — deterministic merge of warnings, cost
   stats, and sharing-classifier counts, ordered by original trace
   position and deduplicated with the single-threaded reporting
   discipline;
4. :mod:`~repro.engine.checkpoint` — crash-safe per-shard progress records
   so an interrupted run resumes without re-analyzing finished shards.

Entry points::

    from repro.engine import check_trace_file, check_events

    report = check_trace_file("big.trace", tool="FastTrack", jobs=4)
    report = check_events(trace.events, tool="DJIT+", nshards=8)

Both return a :class:`~repro.engine.merge.MergedReport` whose warnings are
bit-identical to ``make_detector(tool).process(trace).warnings`` (the
``events`` and ``shards=N`` cells of the conformance matrix,
``tests/conformance.py``, enforce this).
The CLI exposes the engine as ``repro check --jobs N [--shards M]
[--resume DIR]``; see docs/ENGINE.md for the precision argument and the
checkpoint layout.
"""

from __future__ import annotations

import concurrent.futures
import shutil
import signal
import tempfile
import time
from typing import Callable, Dict, Iterable, List, Optional

from repro import obs

from repro.engine.checkpoint import CheckpointError, Workdir
from repro.engine.merge import (
    MergedReport,
    merge_shard_results,
    merge_stats,
    merge_warnings,
    render_markdown,
)
from repro.engine.partition import (
    iter_shard,
    partition_events,
    partition_trace,
    require_mmap_transport,
    shard_of,
)
from repro.engine.supervise import (
    EngineTimeout,
    QuarantineExhausted,
    RetryPolicy,
    ShardFailure,
    run_supervised,
)
from repro.engine.worker import (
    DrainRequested,
    analyze_shard,
    drain_requested,
    install_drain_handler,
    request_drain,
    reset_drain,
    run_shard,
)
from repro.trace import events as ev
from repro.trace import serialize
from repro.trace.columnar import ColumnarTrace

__all__ = [
    "CheckpointError",
    "DrainRequested",
    "EngineTimeout",
    "MergedReport",
    "QuarantineExhausted",
    "RetryPolicy",
    "ShardFailure",
    "Workdir",
    "analyze_shard",
    "check_events",
    "check_trace_file",
    "default_nshards",
    "drain_requested",
    "install_drain_handler",
    "iter_shard",
    "merge_shard_results",
    "merge_stats",
    "merge_warnings",
    "partition_events",
    "partition_trace",
    "read_columns",
    "render_markdown",
    "request_drain",
    "reset_drain",
    "run_shard",
    "run_supervised",
    "shard_of",
]


def default_nshards(jobs: int) -> int:
    """Two shards per worker: variable weight is skewed, so over-sharding
    lets fast workers steal a second helping instead of idling."""
    return max(1, 2 * max(1, jobs))


#: Below this many events per shard, worker startup dominates the shard's
#: analysis time and ``--jobs N`` loses to the sequential loop; the engine
#: warns (``engine.jobs.tiny_shards``) and suggests fewer shards or
#: sequential mode.  ~10k events is roughly 150ms of fused-kernel work —
#: on the order of one spawned worker's import cost.
MIN_EVENTS_PER_SHARD = 10_000


def _restore_sigterm(previous) -> None:
    if previous is None:
        return
    try:
        signal.signal(signal.SIGTERM, previous)
    except ValueError:  # pragma: no cover - non-main thread
        pass


def _run_pending(
    root: str,
    pending: List[int],
    tool: str,
    tool_kwargs: Optional[Dict],
    jobs: int,
    classify: bool,
    executor: Optional[concurrent.futures.Executor] = None,
    policy: Optional[RetryPolicy] = None,
    trace: Optional[Dict] = None,
) -> List[ShardFailure]:
    """Analyze the pending shards under supervision.

    Delegates to :func:`repro.engine.supervise.run_supervised` — bounded
    per-shard retries, pool self-healing, watchdog, quarantine — and
    returns the quarantined shards' failures (empty on a clean run).
    With ``executor`` (the daemon's persistent pool) shards are submitted
    there; otherwise ``jobs`` decides between the in-process sequential
    loop and a supervisor-owned :class:`ProcessPoolExecutor`.  Either way
    a SIGTERM lets in-flight shards checkpoint and then raises
    :class:`DrainRequested` instead of losing work.  ``trace`` carries
    the active trace context into every worker.
    """
    owns_process = executor is None
    previous = install_drain_handler() if owns_process else None
    try:
        return run_supervised(
            root, pending, tool, tool_kwargs, jobs, classify,
            executor=executor, policy=policy, trace=trace,
        )
    finally:
        if owns_process:
            _restore_sigterm(previous)


def read_columns(path: str, fmt: str = "text") -> ColumnarTrace:
    """Parse a serialized trace file (``fmt`` ``'text'`` or ``'jsonl'``)
    straight into interned columns, under a ``trace.serialize`` span.
    This is how every ``repro`` verb but ``watch`` reads a trace file."""
    with obs.span("trace.serialize", trace=path) as span:
        try:
            with open(path, "r", encoding="utf-8") as stream:
                columns = ColumnarTrace.from_file(stream, fmt)
        except serialize.TraceParseError as error:
            # The decoder reads ahead: name the bad byte's own line.
            if isinstance(error.__context__, UnicodeDecodeError):
                raise serialize.utf8_error_in(path) or error from None
            raise
        span.set(events=len(columns))
    return columns


def _run(
    columns_factory: Callable[[], ColumnarTrace],
    tool: str,
    nshards: Optional[int],
    jobs: int,
    workdir: Optional[str],
    resume: bool,
    classify: bool,
    tool_kwargs: Optional[Dict],
    executor: Optional[concurrent.futures.Executor] = None,
    policy: Optional[RetryPolicy] = None,
) -> MergedReport:
    owns_workdir = workdir is None
    root = workdir if workdir is not None else tempfile.mkdtemp(
        prefix="repro-engine-"
    )
    try:
        wd = Workdir(root)
        meta = wd.read_meta() if resume else None
        if meta is not None:
            # A complete partition is already on disk: validate and reuse it
            # (re-partitioning would be wasted work and, worse, a different
            # shard count would orphan the existing checkpoints).
            wd.validate_meta(meta, nshards)
        else:
            if resume:
                # No usable partition: refuse to trust whatever result
                # checkpoints are lying around (they belong to a layout we
                # can no longer identify).
                wd.ensure_resumable_layout(meta)
            shards = nshards if nshards is not None else default_nshards(jobs)
            with obs.span("engine.partition", tool=tool) as span:
                meta = partition_trace(columns_factory(), wd, shards)
                span.set(
                    events=meta["events"], shards=meta["nshards"],
                    bytes=sum(meta.get("shard_bytes", [])),
                )
        count = meta["nshards"]
        if jobs > 1 and count and meta["events"] // count < MIN_EVENTS_PER_SHARD:
            obs.log.warning(
                "engine.jobs.tiny_shards",
                f"--jobs {jobs} over {count} shard(s) of "
                f"~{meta['events'] // count} event(s) each: worker startup "
                "will dominate analysis below "
                f"{MIN_EVENTS_PER_SHARD} events/shard — use fewer shards "
                "(--shards) or drop to sequential (--jobs 1)",
                jobs=jobs, shards=count, events=meta["events"],
                events_per_shard=meta["events"] // count,
                threshold=MIN_EVENTS_PER_SHARD,
            )
        if not resume:
            wd.clear_results(tool, count)
        completed = set(wd.completed_shards(tool, count, classify))
        pending = [shard for shard in range(count) if shard not in completed]
        if completed:
            obs.log.info(
                "engine.resume",
                f"resuming {tool}: {len(completed)}/{count} shard(s) "
                "already checkpointed",
                tool=tool, completed=len(completed), total=count,
            )
        submitted = time.monotonic()
        with obs.span(
            "engine.analyze",
            tool=tool, jobs=jobs, shards=count, pending=len(pending),
        ):
            # Captured inside the span so workers parent under it; the
            # submission timestamp rides along for queue-wait attribution.
            trace_ctx = obs.propagation_context(submitted=submitted)
            failures = list(_run_pending(
                root, pending, tool, tool_kwargs, jobs, classify,
                executor=executor, policy=policy, trace=trace_ctx,
            ))
        failed = {failure.shard for failure in failures}
        survivors = set(wd.completed_shards(tool, count, classify))
        redo = [
            shard for shard in range(count)
            if shard not in survivors and shard not in failed
        ]
        if redo:
            # A checkpoint that reported success but does not validate at
            # merge time (torn write): those shards were quarantined by
            # ``completed_shards`` above — recompute them under the same
            # supervision before giving up on them.
            failures.extend(_run_pending(
                root, redo, tool, tool_kwargs, jobs, classify,
                executor=executor, policy=policy,
                trace=obs.propagation_context(submitted=time.monotonic()),
            ))
            failed = {failure.shard for failure in failures}
            survivors = set(wd.completed_shards(tool, count, classify))
        quarantined = sorted(set(range(count)) - survivors)
        if not survivors:
            first = failures[0].error if failures else "no checkpoints"
            raise QuarantineExhausted(
                f"all {count} shard(s) failed analysis "
                f"(first error: {first})"
            )
        payloads = [
            wd.read_result(tool, shard) for shard in sorted(survivors)
        ]
        with obs.span("engine.merge", tool=tool, shards=count):
            report = merge_shard_results(payloads)
        if quarantined:
            by_shard = {failure.shard: failure for failure in failures}
            report.degraded = {
                "quarantined_shards": quarantined,
                "shards_total": count,
                "failures": [
                    by_shard[shard].to_json()
                    if shard in by_shard
                    else {
                        "shard": shard,
                        "attempts": 0,
                        "error": "checkpoint invalid at merge",
                    }
                    for shard in quarantined
                ],
            }
        obs.record_rules(tool, report.stats)
        return report
    finally:
        if owns_workdir:
            shutil.rmtree(root, ignore_errors=True)


def check_events(
    events: Iterable[ev.Event],
    tool: str = "FastTrack",
    *,
    nshards: Optional[int] = None,
    jobs: int = 1,
    workdir: Optional[str] = None,
    resume: bool = False,
    classify: bool = False,
    tool_kwargs: Optional[Dict] = None,
    transport: str = "mmap",
) -> MergedReport:
    """Shard-check an in-memory event sequence (or any one-shot iterable).

    ``jobs`` decides whether a throwaway pool is spun up.  ``transport``
    accepts only ``'mmap'``, the one shard transport; the cold-run
    benchmark (``perfbench/``) still passes it.
    """
    require_mmap_transport(transport)
    return _run(
        lambda: ColumnarTrace.from_events(events),
        tool,
        nshards,
        jobs,
        workdir,
        resume,
        classify,
        tool_kwargs,
    )


def check_trace_file(
    path: str,
    tool: str = "FastTrack",
    fmt: str = "text",
    *,
    nshards: Optional[int] = None,
    jobs: int = 1,
    workdir: Optional[str] = None,
    resume: bool = False,
    classify: bool = False,
    tool_kwargs: Optional[Dict] = None,
    executor: Optional[concurrent.futures.Executor] = None,
    policy: Optional[RetryPolicy] = None,
) -> MergedReport:
    """Shard-check a serialized trace file.

    The file is parsed by :func:`read_columns` straight into columns, so
    no :class:`~repro.trace.events.Event` is built; a resumed run whose
    partition already exists does not read it at all.  ``executor``
    lends the run an already-running pool (the daemon keeps one across
    jobs to amortize worker startup); without it, ``jobs`` decides
    whether a throwaway pool is spun up.  ``policy`` tunes the
    supervisor (retry backoff, shard watchdog, run deadline — see
    :class:`repro.engine.supervise.RetryPolicy`).
    """
    return _run(
        lambda: read_columns(path, fmt),
        tool,
        nshards,
        jobs,
        workdir,
        resume,
        classify,
        tool_kwargs,
        executor=executor,
        policy=policy,
    )
