"""The ``repro serve`` daemon: HTTP front end, job runners, drain logic.

Architecture (stdlib only)::

    ThreadingHTTPServer ──> Router ──> handlers ──┐
                                                  │ enqueue (bounded; 429)
    JobStore (disk) <── job runner threads <── JobQueue
                          │
                          └── repro.engine.check_trace_file(...)
                              with one *persistent* ProcessPoolExecutor
                              shared by every job (``--engine-jobs N``)

Durability: a job's trace and record live in the store, and its engine
working directory is a *resident partition* — one per distinct (trace
digest, format, shard count) under ``STORE/partitions/`` — so per-shard
checkpoints survive a daemon kill; on restart every
accepted-but-unfinished job is re-enqueued and the engine skips the
shards that already checkpointed.  On SIGTERM the daemon stops
accepting work (503), asks the engine to drain (in-flight shards finish
and checkpoint — see :mod:`repro.engine.worker`), and exits; nothing is
lost.

Resident partitions exist because partitioning is the per-job cost that
does not parallelize: N tools on one trace, or M resubmissions of the
same trace, used to re-spool and re-partition N×M times.  Now the first
job to see a trace digest partitions it once — v3 columnar buffers in
mmap'd shard files, durable across restarts, with one page-cache copy
shared by every attaching worker — and every later
job/tool attaches to the same buffers (``repro_partitions_total``
counts created vs reused).  A per-key lock serializes creation only;
analysis runs concurrently.  Live analyses pin their partition against
the TTL evictor via refcounts.

Results use the canonical ``repro.result/1`` schema of
:mod:`repro.report` — a single-tool job's ``/result`` body is
bit-identical to ``repro check --json`` on the same trace.
"""

from __future__ import annotations

import concurrent.futures
import json
import multiprocessing
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Iterator, List, Optional
from urllib.parse import parse_qs, urlsplit

from repro import engine, faults, obs
from repro.detectors import DETECTORS, default_tool_kwargs, resolve_tool_name
from repro.engine.checkpoint import CheckpointError, Workdir
from repro.obs.metrics import EXPOSITION_CONTENT_TYPE, MetricsRegistry
from repro.obs.rules import record_rule_counts
from repro.obs.tracecontext import TRACE_HEADER, clean_trace_id, new_trace_id
from repro.report import dumps_result, result_set
from repro.service.debug import debug_snapshot, render_html
from repro.service.queue import JobQueue, QueueClosed, QueueFull
from repro.service.routes import Router
from repro.service.store import DuplicateKey, JobStore
from repro.trace.serialize import TraceParseError, dumps_jsonl, event_from_json

#: Upload formats the daemon accepts, and the content types that imply them.
TRACE_FORMATS = ("text", "jsonl")
_CONTENT_TYPE_FORMATS = {
    "application/x-ndjson": "jsonl",
    "application/jsonl": "jsonl",
    "application/x-repro-trace": "text",
    "text/plain": "text",
}

_SPOOL_CHUNK = 64 * 1024


@dataclass
class ServiceConfig:
    host: str = "127.0.0.1"
    port: int = 8077
    #: Concurrent job-runner threads (jobs analyzed at once).
    workers: int = 2
    #: Size of the persistent shard-worker process pool (1 = in-thread).
    engine_jobs: int = 1
    queue_size: int = 64
    ttl_seconds: float = 3600.0
    store_dir: str = ""
    #: Seconds advertised in 429 Retry-After responses.
    retry_after: int = 5
    #: Seconds the drain waits for runner threads before giving up.
    drain_grace: float = 30.0
    #: Default shard count for jobs that do not request one.  One shard
    #: keeps every cost counter bit-identical to a single-threaded
    #: ``repro check --json`` run (sharded runs duplicate sync-side VC
    #: work by design; warnings stay identical at any count).
    default_shards: int = 1
    eviction_interval: float = 30.0
    #: Directory for structured telemetry (spans.jsonl + metrics.json);
    #: ``None`` leaves telemetry disabled.  Job lifecycle spans are joined
    #: by job id.
    telemetry: Optional[str] = None
    #: Wall-clock budget per job attempt; a job past it is killed (its
    #: finished shards stay checkpointed) and requeued.  ``None`` means
    #: jobs may run forever.
    job_timeout: Optional[float] = None
    #: How many times a timed-out job is requeued before it is failed.
    max_job_requeues: int = 2


class ValidationError(ValueError):
    """A submission the daemon refuses with HTTP 400."""


def _validate_spec(tools: List[str], shards: int, fmt: str) -> None:
    for tool in tools:
        if tool not in DETECTORS:
            known = ", ".join(DETECTORS)
            raise ValidationError(f"unknown tool {tool!r}; expected: {known}")
    if not tools:
        raise ValidationError("no tool selected")
    if len(set(tools)) != len(tools):
        raise ValidationError("duplicate tools in selection")
    if shards < 1:
        raise ValidationError(f"shards must be >= 1, got {shards}")
    if fmt not in TRACE_FORMATS:
        raise ValidationError(
            f"unknown trace format {fmt!r}; expected one of {TRACE_FORMATS}"
        )


class RaceService:
    """The daemon's engine room; the HTTP layer is a thin shell over it."""

    def __init__(self, config: ServiceConfig) -> None:
        if not config.store_dir:
            raise ValueError("ServiceConfig.store_dir is required")
        self.config = config
        self.store = JobStore(config.store_dir, ttl_seconds=config.ttl_seconds)
        self.queue = JobQueue(config.queue_size)
        self.metrics = MetricsRegistry()
        self.executor: Optional[concurrent.futures.Executor] = None
        self.draining = False
        self._started_at = time.monotonic()
        self._threads: List[threading.Thread] = []
        self._stop_event = threading.Event()
        self._executor_lock = threading.Lock()
        # Resident-partition bookkeeping: _partition_locks serializes
        # *creation* per key (concurrent jobs on the same trace wait for
        # one partitioner, then analyze in parallel); _partition_users
        # refcounts live analyses so the evictor never reaps a partition
        # mid-run.  _partition_guard protects both dicts.
        self._partition_guard = threading.Lock()
        self._partition_locks: Dict[str, threading.Lock] = {}
        self._partition_users: Dict[str, int] = {}
        # Live ops surface: what each runner is doing *right now*, keyed
        # by job id — stage strings move "partition" → "analyze:<tool>"
        # as the job progresses, and /debug reads this under the lock.
        self._inflight_lock = threading.Lock()
        self._inflight: Dict[str, Dict] = {}

        metric = self.metrics
        self.m_submitted = metric.counter(
            "repro_jobs_submitted_total", "Jobs accepted via POST /v1/jobs"
        )
        self.m_recovered = metric.counter(
            "repro_jobs_recovered_total",
            "Unfinished jobs re-enqueued after a daemon restart",
        )
        self.m_rejected = metric.counter(
            "repro_jobs_rejected_total",
            "Submissions refused with 429 because the queue was full",
        )
        self.m_jobs = metric.counter(
            "repro_jobs_total", "Jobs by terminal state"
        )
        self.m_active = metric.gauge(
            "repro_jobs_active", "Jobs currently queued or running"
        )
        self.m_queue_depth = metric.gauge(
            "repro_queue_depth", "Jobs waiting in the bounded queue"
        )
        self.m_events = metric.counter(
            "repro_events_processed_total",
            "Trace events analyzed, per tool",
        )
        self.m_events_per_second = metric.gauge(
            "repro_events_per_second",
            "Analysis throughput of the most recent job, per tool",
        )
        self.m_engine_seconds = metric.counter(
            "repro_engine_seconds_total",
            "Wall-clock seconds spent in engine runs, per tool",
        )
        self.m_partitions = metric.counter(
            "repro_partitions_total",
            "Resident trace partitions, by outcome (created/reused)",
        )
        self.m_requests = metric.counter(
            "repro_http_requests_total", "HTTP requests by route and status"
        )
        self.m_latency = metric.histogram(
            "repro_http_request_seconds", "HTTP request latency by route"
        )
        self.m_job_seconds = metric.histogram(
            "repro_job_seconds",
            "Per-tool analysis wall-clock per job; outlier buckets carry "
            "exemplars (job id, trace id, digest, shards)",
        )

    # -- live ops surface ----------------------------------------------------

    def _begin_inflight(self, job_id: str, record: Dict) -> None:
        with self._inflight_lock:
            self._inflight[job_id] = {
                "job": job_id,
                "trace_id": record.get("trace_id"),
                "tools": list(record.get("tools") or []),
                "shards": record.get("shards"),
                "stage": "starting",
                "since": time.monotonic(),
                "started_unix": time.time(),
            }

    def _set_stage(self, job_id: str, stage: str) -> None:
        with self._inflight_lock:
            entry = self._inflight.get(job_id)
            if entry is not None:
                entry["stage"] = stage
                entry["since"] = time.monotonic()

    def _end_inflight(self, job_id: str) -> None:
        with self._inflight_lock:
            self._inflight.pop(job_id, None)

    def inflight_jobs(self) -> List[Dict]:
        """Running jobs with their current stage and elapsed seconds."""
        now = time.monotonic()
        with self._inflight_lock:
            entries = [dict(entry) for entry in self._inflight.values()]
        for entry in entries:
            entry["stage_elapsed_s"] = round(now - entry.pop("since"), 3)
            entry["elapsed_s"] = round(
                time.time() - entry.pop("started_unix"), 3
            )
        entries.sort(key=lambda entry: entry["job"])
        return entries

    def partition_refcounts(self) -> Dict[str, int]:
        with self._partition_guard:
            return dict(self._partition_users)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Recover persisted jobs, then start runners and the evictor."""
        if self.config.telemetry:
            # The span/log stream and its metrics.json use the process
            # default registry; the daemon's /metrics registry stays the
            # scrape surface either way.
            obs.enable(self.config.telemetry)
        # Quarantine torn job records *before* recovery walks the store:
        # a record that no longer parses must not crash the restart.
        scrubbed = self.store.scrub()
        if scrubbed:
            obs.log.info(
                "service.store.scrubbed",
                f"quarantined {len(scrubbed)} corrupt job record(s) "
                f"at startup: {', '.join(scrubbed)}",
                count=len(scrubbed),
            )
        self._ensure_executor()
        for record in self.store.recoverable():
            # Backpressure protects the daemon from *new* work, not from
            # work it already accepted before the restart: force past the
            # bound.
            if record["state"] != "queued":
                self.store.update(record["id"], state="queued")
            self.queue.put(record["id"], force=True)
            self.m_recovered.inc()
            self.m_active.inc(state="queued")
        self.m_queue_depth.set(self.queue.depth)
        for index in range(self.config.workers):
            thread = threading.Thread(
                target=self._runner, name=f"job-runner-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        evictor = threading.Thread(
            target=self._evictor, name="ttl-evictor", daemon=True
        )
        evictor.start()

    def _build_executor(self) -> concurrent.futures.Executor:
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.config.engine_jobs, mp_context=context
        )

    def _ensure_executor(self) -> Optional[concurrent.futures.Executor]:
        """The persistent engine pool, rebuilt if a prior job broke it.

        The engine survives a pool break *within* a job by falling back
        to its sequential loop, but a broken persistent pool would then
        tax every subsequent job with the same fallback; replacing it
        between jobs restores parallel analysis.  Recorded as
        ``repro_degraded_total{reason="pool_rebuilt"}``.
        """
        if self.config.engine_jobs <= 1:
            return None
        with self._executor_lock:
            executor = self.executor
            if executor is not None and not getattr(executor, "_broken", False):
                return executor
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
                obs.record_degraded("pool_rebuilt", cause="service_executor")
            self.executor = self._build_executor()
            return self.executor

    def drain(self, grace: Optional[float] = None) -> None:
        """Stop accepting work; let in-flight shards checkpoint; stop."""
        self.draining = True
        self.queue.close()
        # In-thread engine loops stop (checkpointed) at the next shard
        # boundary; pool workers get a SIGTERM each and do the same.
        engine.request_drain()
        if self.executor is not None:
            processes = getattr(self.executor, "_processes", None) or {}
            for pid in list(processes):
                try:
                    os.kill(pid, signal.SIGTERM)
                except (OSError, ProcessLookupError):
                    pass
        deadline = time.monotonic() + (
            self.config.drain_grace if grace is None else grace
        )
        for thread in self._threads:
            remaining = deadline - time.monotonic()
            if remaining > 0:
                thread.join(timeout=remaining)
        if self.executor is not None:
            self.executor.shutdown(wait=False, cancel_futures=True)
        self._stop_event.set()
        if self.config.telemetry and obs.enabled():
            obs.disable()  # flush metrics.json, close spans.jsonl

    # -- submission ----------------------------------------------------------

    def build_spec(
        self, tools: List[str], shards: Optional[int], fmt: str
    ) -> Dict:
        shards = self.config.default_shards if shards is None else shards
        _validate_spec(tools, shards, fmt)
        return {"tools": tools, "shards": shards, "format": fmt}

    def accept(self, record: Dict) -> Dict:
        """Enqueue a job whose trace is already spooled; 429 on full."""
        try:
            self.queue.put(record["id"])
        except (QueueFull, QueueClosed):
            self.store.delete(record["id"])
            raise
        self.m_submitted.inc()
        self.m_active.inc(state="queued")
        self.m_queue_depth.set(self.queue.depth)
        return record

    # -- the job runners -----------------------------------------------------

    def _runner(self) -> None:
        while True:
            job_id = self.queue.get(timeout=0.2)
            self.m_queue_depth.set(self.queue.depth)
            if job_id is None:
                if self.queue.closed:
                    return
                continue
            if self.draining:
                # The store still says "queued"; the restart picks it up.
                return
            self._process(job_id)

    def _process(self, job_id: str) -> None:
        record = self.store.read(job_id)
        if record is None or record.get("state") not in ("queued", "running"):
            return
        self.m_active.dec(state="queued")
        self.m_active.inc(state="running")
        started = time.time()
        self.store.update(job_id, state="running", started=started)
        self._begin_inflight(job_id, record)
        try:
            # Every span this runner thread emits — and, through the
            # engine's propagation context, every span the pool workers
            # emit for this job — joins the trace the submitter named.
            with obs.trace_scope(record.get("trace_id")):
                self._process_traced(job_id, record, started)
        finally:
            self._end_inflight(job_id)

    def _process_traced(
        self, job_id: str, record: Dict, started: float
    ) -> None:
        if obs.enabled():
            # Queue wait, reconstructed from the store's timestamps so it
            # also covers jobs recovered across a daemon restart.
            created = record.get("created")
            obs.emit_span(
                "job.queued",
                max(0.0, started - created) if created else 0.0,
                job=job_id,
            )
        try:
            with obs.span(
                "job.run", job=job_id, tools=list(record["tools"])
            ):
                document = self._analyze(job_id, record)
        except engine.DrainRequested:
            # Finished shards are checkpointed; hand the job back to the
            # store so the restarted daemon completes it.
            self.store.update(job_id, state="queued")
            self.m_active.dec(state="running")
            self.m_active.inc(state="queued")
            return
        except engine.EngineTimeout as error:
            self._requeue_stuck(job_id, record, error)
            return
        except Exception as error:  # noqa: BLE001 - runners must survive
            self.store.update(
                job_id,
                state="failed",
                finished=time.time(),
                error=f"{type(error).__name__}: {error}",
            )
            self.m_active.dec(state="running")
            self.m_jobs.inc(state="failed")
            obs.log.info(
                "service.job.failed",
                f"job {job_id} failed: {type(error).__name__}: {error}",
                job=job_id,
            )
            return
        self.store.write_result(job_id, document)
        self.store.update(job_id, state="done", finished=time.time())
        self.m_active.dec(state="running")
        self.m_jobs.inc(state="done")
        obs.log.info(
            "service.job.done", f"job {job_id} done", job=job_id,
        )

    def _requeue_stuck(
        self, job_id: str, record: Dict, error: Exception
    ) -> None:
        """A job blew its ``--job-timeout``: requeue it (finished shards
        stay checkpointed, so the retry only analyzes the rest) at most
        ``max_job_requeues`` times, then fail it explicitly."""
        requeues = int(record.get("requeues") or 0)
        self.m_active.dec(state="running")
        if requeues < self.config.max_job_requeues:
            self.store.update(job_id, state="queued", requeues=requeues + 1)
            try:
                # Accepted work bypasses backpressure, like restart
                # recovery does.
                self.queue.put(job_id, force=True)
            except QueueClosed:
                # Draining: the store says "queued"; the restarted
                # daemon re-enqueues it.
                pass
            self.m_active.inc(state="queued")
            self.m_queue_depth.set(self.queue.depth)
            obs.record_degraded(
                "job_requeued", job=job_id, requeues=requeues + 1,
                error=str(error),
            )
            return
        self.store.update(
            job_id,
            state="failed",
            finished=time.time(),
            error=(
                f"{type(error).__name__}: {error} "
                f"(gave up after {requeues} requeue(s))"
            ),
        )
        self.m_jobs.inc(state="failed")
        obs.log.info(
            "service.job.failed",
            f"job {job_id} failed after {requeues} requeue(s): {error}",
            job=job_id,
        )

    # -- resident partitions -------------------------------------------------

    def _partition_lock(self, key: str) -> threading.Lock:
        with self._partition_guard:
            return self._partition_locks.setdefault(key, threading.Lock())

    def _pin_partition(self, key: str) -> None:
        with self._partition_guard:
            self._partition_users[key] = self._partition_users.get(key, 0) + 1

    def _unpin_partition(self, key: str) -> None:
        with self._partition_guard:
            count = self._partition_users.get(key, 0) - 1
            if count > 0:
                self._partition_users[key] = count
            else:
                self._partition_users.pop(key, None)

    def evict_idle_partitions(self) -> List[str]:
        """One TTL pass over the resident partitions; returns the evicted
        keys.  It holds the pin lock throughout, and a job pins its key
        before it creates or reuses the partition, so a pass never
        deletes a partition a job has started on."""
        with self._partition_guard:
            return self.store.evict_partitions(set(self._partition_users))

    def _partition_key(self, job_id: str, record: Dict) -> str:
        """The job's resident-partition key, computed once and recorded."""
        key = record.get("partition")
        if not key:
            key = self.store.partition_key(
                job_id, record["format"], record["shards"]
            )
            record["partition"] = key  # exemplars read the live record
            self.store.update(job_id, partition=key)
        return key

    def _ensure_partition(self, job_id: str, record: Dict, key: str) -> None:
        """Attach the job to its resident partition ``key``, creating it
        if this trace digest has never been partitioned (or was evicted),
        or if the resident copy fails :meth:`Workdir.validate_meta` (a
        shard file missing or truncated).  The caller must have pinned
        ``key``: until creation finishes the directory has no
        ``.last_used`` stamp, so an unpinned one looks idle since the
        epoch to the evictor.

        Creation parses the spooled trace into columns and writes them
        through the v3 partitioner; its shard files outlive this process
        for restart recovery, and every concurrent job shares one
        page-cache copy of them.  Only creation holds the per-key lock;
        reuse is a metadata read.
        """
        fmt = record["format"]
        shards = record["shards"]
        pdir = self.store.partition_dir(key)
        self._set_stage(job_id, "partition")
        with self._partition_lock(key):
            wd = Workdir(pdir)
            meta = wd.read_meta()
            if meta is not None:
                try:
                    wd.validate_meta(meta, shards)
                except CheckpointError as error:
                    obs.log.warning(
                        "service.partition.invalid",
                        f"re-creating resident partition {key}: {error}",
                        job=job_id, partition=key,
                    )
                    meta = None
            if meta is not None:
                self.m_partitions.inc(outcome="reused")
            else:
                os.makedirs(pdir, exist_ok=True)
                with obs.span(
                    "engine.partition", job=job_id, shards=shards
                ):
                    engine.partition_trace(
                        engine.read_columns(
                            self.store.trace_path(job_id, fmt), fmt
                        ),
                        wd, shards,
                    )
                self.m_partitions.inc(outcome="created")
            self.store.touch_partition(key)

    def _analyze(self, job_id: str, record: Dict) -> Dict:
        tools = record["tools"]
        fmt = record["format"]
        shards = record["shards"]
        trace_path = self.store.trace_path(job_id, fmt)
        deadline = (
            time.monotonic() + self.config.job_timeout
            if self.config.job_timeout
            else None
        )
        key = self._partition_key(job_id, record)
        self._pin_partition(key)
        try:
            self._ensure_partition(job_id, record, key)
            return self._analyze_tools(
                job_id, record, tools, fmt, shards, trace_path,
                self.store.partition_dir(key), deadline,
            )
        finally:
            self._unpin_partition(key)
            self.store.touch_partition(key)

    def _analyze_tools(
        self,
        job_id: str,
        record: Dict,
        tools: List[str],
        fmt: str,
        shards: int,
        trace_path: str,
        workdir: str,
        deadline: Optional[float],
    ) -> Dict:
        results: Dict[str, Dict] = {}
        for position, tool in enumerate(tools):
            self._set_stage(job_id, f"analyze:{tool}")
            policy = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise engine.EngineTimeout(
                        f"job exceeded its "
                        f"{self.config.job_timeout:g}s deadline"
                    )
                policy = engine.RetryPolicy(deadline_s=remaining)
            started = time.monotonic()
            report = engine.check_trace_file(
                trace_path,
                tool=tool,
                fmt=fmt,
                nshards=shards,
                jobs=1,
                workdir=workdir,
                resume=True,
                classify=True,
                tool_kwargs=default_tool_kwargs(tool),
                executor=self._ensure_executor(),
                policy=policy,
            )
            elapsed = time.monotonic() - started
            results[tool] = report.to_json()
            self.m_events.inc(report.events, tool=tool)
            self.m_engine_seconds.inc(elapsed, tool=tool)
            # The latency exemplar: when this observation lands in an
            # outlier bucket, /debug and the samples() surface can point
            # straight at the job (and its trace) that put it there.
            self.m_job_seconds.observe(
                elapsed,
                exemplar={
                    "job": job_id,
                    "trace_id": record.get("trace_id"),
                    "digest": (record.get("partition") or "").split("-")[0],
                    "shards": shards,
                    "tool": tool,
                },
                tool=tool,
            )
            # Figure 2, live: completed jobs surface their rule firing
            # counts on /metrics regardless of the telemetry sink.
            record_rule_counts(tool, report.stats, self.metrics)
            if elapsed > 0:
                self.m_events_per_second.set(
                    report.events / elapsed, tool=tool
                )
            self.store.update(
                job_id,
                progress={
                    "tools_done": position + 1,
                    "tools_total": len(tools),
                },
            )
        if len(tools) == 1:
            return results[tools[0]]
        return result_set(results)

    def _evictor(self) -> None:
        interval = max(1.0, self.config.eviction_interval)
        while not self._stop_event.wait(interval):
            self.store.evict_expired()
            self.evict_idle_partitions()

    # -- read-side accessors -------------------------------------------------

    def job_status(self, job_id: str) -> Optional[Dict]:
        record = self.store.read(job_id)
        if record is None:
            return None
        progress = dict(record.get("progress") or {})
        key = record.get("partition")
        workdir = self.store.partition_dir(key) if key else None
        if workdir is not None and os.path.isdir(workdir):
            wd = Workdir(workdir)
            meta = wd.read_meta()
            if meta is not None:
                nshards = meta["nshards"]
                tools = record.get("tools", [])
                progress["events"] = meta["events"]
                progress["shards_total"] = nshards * len(tools)
                progress["shards_done"] = sum(
                    len(wd.completed_shards(tool, nshards)) for tool in tools
                )
        record["progress"] = progress
        return record

    def healthz(self) -> Dict:
        states: Dict[str, int] = {}
        for record in self.store.list_jobs():
            state = record.get("state", "unknown")
            states[state] = states.get(state, 0) + 1
        return {
            "status": "draining" if self.draining else "ok",
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "queue_depth": self.queue.depth,
            "workers": self.config.workers,
            "engine_jobs": self.config.engine_jobs,
            "jobs": states,
        }

# -- HTTP layer ---------------------------------------------------------------


def _first(query: Dict[str, List[str]], name: str) -> Optional[str]:
    values = query.get(name)
    return values[-1] if values else None


def _query_int(query: Dict[str, List[str]], name: str) -> Optional[int]:
    value = _first(query, name)
    if value is None:
        return None
    try:
        return int(value)
    except ValueError:
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def _expand_tools(values: List[str]) -> List[str]:
    """Flatten repeated/comma-separated tool params; ``all`` expands to
    every registered detector (matching ``repro check --all-tools``)."""
    tools: List[str] = []
    for value in values:
        for name in value.split(","):
            name = name.strip()
            if not name:
                continue
            if name.lower() == "all":
                tools.extend(t for t in DETECTORS if t not in tools)
            else:
                # Case-insensitive names (``tool=wcp``) canonicalize here;
                # genuinely unknown ones pass through for _validate_spec's
                # 400 with the original spelling.
                name = resolve_tool_name(name)
                if name not in tools:
                    tools.append(name)
    return tools


def _duplicate_response(handler: "_Handler", record: Dict) -> int:
    """Answer an idempotent resubmission with the job already accepted
    under the same client key — never analyze the same trace twice."""
    # The fresh upload's body may be partly unread; don't let a
    # kept-alive connection misparse the remainder as a request.
    handler.close_connection = True
    return handler.send_api_json(
        202,
        {
            "id": record["id"],
            "state": record.get("state", "queued"),
            "tools": record.get("tools", []),
            "shards": record.get("shards"),
            "format": record.get("format"),
            "key": record.get("key"),
            "trace_id": record.get("trace_id"),
            "duplicate": True,
        },
        headers={TRACE_HEADER: record.get("trace_id") or ""},
    )


def h_submit(handler: "_Handler", service: RaceService,
             params: Dict[str, str], query: Dict[str, List[str]]) -> int:
    if service.draining:
        return handler.send_api_error(503, "daemon is draining")
    key = _first(query, "key")
    if key:
        existing = service.store.find_by_key(key)
        if existing is not None:
            return _duplicate_response(handler, existing)
    if service.queue.depth >= service.queue.maxsize:
        service.m_rejected.inc()
        return handler.send_api_error(
            429,
            "job queue is full",
            headers={"Retry-After": str(service.config.retry_after)},
        )
    content_type = (
        (handler.headers.get("Content-Type") or "")
        .split(";")[0].strip().lower()
    )
    # Trace context: honor the client's X-Repro-Trace-Id (sanitized —
    # it is echoed into telemetry and headers), else mint one.  Every
    # span this job produces, across every process, carries this id.
    trace_id = (
        clean_trace_id(handler.headers.get(TRACE_HEADER)) or new_trace_id()
    )
    tools = _expand_tools(query.get("tool", []))
    shards = _query_int(query, "shards")
    fmt = _first(query, "format")

    if content_type == "application/json":
        # The inline path: a JSON envelope carrying the trace (or raw
        # event records) plus any options the query string didn't set.
        raw = b"".join(handler.read_body())
        try:
            envelope = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValidationError(f"bad JSON body: {error}")
        if not isinstance(envelope, dict):
            raise ValidationError("JSON body must be an object")
        if not tools and "tool" in envelope:
            value = envelope["tool"]
            value = value if isinstance(value, list) else [str(value)]
            tools = _expand_tools([str(item) for item in value])
        if shards is None and envelope.get("shards") is not None:
            try:
                shards = int(envelope["shards"])
            except (TypeError, ValueError):
                raise ValidationError(
                    f"shards must be an integer, got {envelope['shards']!r}"
                )
        fmt = fmt or envelope.get("format")
        if not key and envelope.get("key"):
            key = str(envelope["key"])
            existing = service.store.find_by_key(key)
            if existing is not None:
                return _duplicate_response(handler, existing)
        if "events" in envelope:
            if not isinstance(envelope["events"], list):
                raise ValidationError("'events' must be a list of records")
            try:
                events = [event_from_json(r) for r in envelope["events"]]
            except (TraceParseError, KeyError, TypeError, ValueError) as err:
                raise ValidationError(f"bad event record: {err}")
            text = dumps_jsonl(events)
            fmt = "jsonl"
        elif "trace" in envelope:
            if not isinstance(envelope["trace"], str):
                raise ValidationError("'trace' must be a string")
            text = envelope["trace"]
            fmt = fmt or "text"
        else:
            raise ValidationError("JSON body needs a 'trace' or 'events' key")
    else:
        text = None
        fmt = fmt or _CONTENT_TYPE_FORMATS.get(content_type, "text")
    spec = service.build_spec(tools or ["FastTrack"], shards, fmt)
    spec["trace_id"] = trace_id
    try:
        record = service.store.create(spec, key=key)
    except DuplicateKey as duplicate:
        # A concurrent submission with this key got in first.
        return _duplicate_response(handler, duplicate.record)
    try:
        path = service.store.trace_path(record["id"], fmt)
        if text is None:
            # The streaming path: the body (chunked or sized) is spooled
            # to the job directory in fixed-size pieces, so the upload
            # never sits in daemon memory; the engine parses the spooled
            # file into columns (engine.read_columns).
            with open(path, "wb") as out:
                for chunk in handler.read_body():
                    out.write(chunk)
        else:
            with open(path, "w", encoding="utf-8") as out:
                out.write(text)
    except BaseException:
        service.store.delete(record["id"])
        raise
    try:
        service.accept(record)
    except QueueFull:
        service.m_rejected.inc()
        return handler.send_api_error(
            429,
            "job queue is full",
            headers={"Retry-After": str(service.config.retry_after)},
        )
    except QueueClosed:
        return handler.send_api_error(503, "daemon is draining")
    return handler.send_api_json(
        202,
        {
            "id": record["id"],
            "state": "queued",
            "tools": record["tools"],
            "shards": record["shards"],
            "format": record["format"],
            "key": record.get("key"),
            "trace_id": record.get("trace_id"),
        },
        headers={TRACE_HEADER: record.get("trace_id") or ""},
    )


def h_list(handler: "_Handler", service: RaceService,
           params: Dict[str, str], query: Dict[str, List[str]]) -> int:
    return handler.send_api_json(200, {"jobs": service.store.list_jobs()})


def h_status(handler: "_Handler", service: RaceService,
             params: Dict[str, str], query: Dict[str, List[str]]) -> int:
    record = service.job_status(params["id"])
    if record is None:
        return handler.send_api_error(404, f"no such job: {params['id']}")
    return handler.send_api_json(200, record)


def h_result(handler: "_Handler", service: RaceService,
             params: Dict[str, str], query: Dict[str, List[str]]) -> int:
    job_id = params["id"]
    record = service.store.read(job_id)
    if record is None:
        return handler.send_api_error(404, f"no such job: {job_id}")
    state = record.get("state")
    if state == "failed":
        return handler.send_api_json(
            409,
            {"id": job_id, "state": state,
             "error": record.get("error") or "job failed"},
        )
    if state != "done":
        return handler.send_api_json(
            409,
            {"id": job_id, "state": state, "error": "job not finished"},
        )
    document = service.store.read_result(job_id)
    if document is None:
        return handler.send_api_error(500, "result document is missing")
    # Serialized through the same canonical dump as ``repro check
    # --json`` so the bytes on the wire are comparable with a plain diff.
    return handler.send_raw(
        200, dumps_result(document).encode("utf-8"), "application/json"
    )


def h_healthz(handler: "_Handler", service: RaceService,
              params: Dict[str, str], query: Dict[str, List[str]]) -> int:
    return handler.send_api_json(200, service.healthz())


def h_metrics(handler: "_Handler", service: RaceService,
              params: Dict[str, str], query: Dict[str, List[str]]) -> int:
    body = service.metrics.render().encode("utf-8")
    return handler.send_raw(200, body, EXPOSITION_CONTENT_TYPE)


def h_debug(handler: "_Handler", service: RaceService,
            params: Dict[str, str], query: Dict[str, List[str]]) -> int:
    """The live ops surface: what is the daemon doing *right now*.

    ``GET /debug`` renders a stdlib HTML page for a browser;
    ``GET /debug?format=json`` returns the same snapshot as the stable
    ``repro.debug/1`` document that ``repro top`` polls.
    """
    snapshot = debug_snapshot(service)
    if _first(query, "format") == "json":
        return handler.send_api_json(200, snapshot)
    return handler.send_raw(
        200, render_html(snapshot).encode("utf-8"), "text/html; charset=utf-8"
    )


def build_router() -> Router:
    router = Router()
    router.add("POST", "/v1/jobs", h_submit)
    router.add("GET", "/v1/jobs", h_list)
    router.add("GET", "/v1/jobs/{id}", h_status)
    router.add("GET", "/v1/jobs/{id}/result", h_result)
    router.add("GET", "/healthz", h_healthz)
    router.add("GET", "/metrics", h_metrics)
    router.add("GET", "/debug", h_debug)
    return router


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # the daemon logs through metrics, not per-request stderr

    def read_body(self) -> Iterator[bytes]:
        """Yield the request body in bounded pieces, decoding chunked
        transfer-encoding manually (http.server does not)."""
        encoding = (self.headers.get("Transfer-Encoding") or "").lower()
        if "chunked" in encoding:
            while True:
                line = self.rfile.readline(1024).strip()
                size_text = line.split(b";")[0]  # ignore chunk extensions
                try:
                    size = int(size_text, 16)
                except ValueError:
                    raise ValidationError(
                        f"bad chunk-size line: {line[:64]!r}"
                    )
                if size == 0:
                    # Consume the (usually empty) trailer section.
                    while True:
                        trailer = self.rfile.readline(1024)
                        if trailer in (b"\r\n", b"\n", b""):
                            break
                    return
                remaining = size
                while remaining > 0:
                    piece = self.rfile.read(min(_SPOOL_CHUNK, remaining))
                    if not piece:
                        raise ValidationError("truncated chunked body")
                    remaining -= len(piece)
                    yield piece
                self.rfile.read(2)  # the CRLF after each chunk
        else:
            try:
                remaining = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                raise ValidationError("bad Content-Length header")
            while remaining > 0:
                piece = self.rfile.read(min(_SPOOL_CHUNK, remaining))
                if not piece:
                    raise ValidationError("truncated request body")
                remaining -= len(piece)
                yield piece

    def send_raw(self, code: int, body: bytes, content_type: str,
                 headers: Optional[Dict[str, str]] = None) -> int:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        return code

    def send_api_json(self, code: int, document: Dict,
                      headers: Optional[Dict[str, str]] = None) -> int:
        body = json.dumps(document, sort_keys=True, indent=2) + "\n"
        return self.send_raw(
            code, body.encode("utf-8"), "application/json", headers
        )

    def send_api_error(self, code: int, message: str,
                       headers: Optional[Dict[str, str]] = None) -> int:
        if self.command == "POST":
            # The body may be partly unread; don't let a kept-alive
            # connection misparse the remainder as the next request.
            self.close_connection = True
        return self.send_api_json(code, {"error": message}, headers)

    # -- dispatch ------------------------------------------------------------

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        service: RaceService = self.server.service
        router: Router = self.server.router
        parsed = urlsplit(self.path)
        match = router.resolve(method, parsed.path)
        # The pattern string labels metrics so cardinality stays bounded.
        route_label = match.route.pattern if match.route else "<unmatched>"
        started = time.perf_counter()
        code = 500
        try:
            injected = (
                faults.fire("http.request", method=method, route=route_label)
                if faults.active()
                else None
            )
            if injected is not None:
                if injected.action == "reset":
                    # Close without writing a response: the client sees
                    # the connection drop mid-request, exactly like a
                    # daemon crash between accept and reply.
                    raise ConnectionResetError("injected connection reset")
                if injected.action == "stall":
                    time.sleep(injected.delay_s)  # then serve normally
                elif injected.action == "status":
                    code = self.send_api_error(
                        injected.status,
                        f"injected fault: HTTP {injected.status}",
                        headers={"Retry-After": f"{injected.delay_s:g}"},
                    )
                    return
            if match.route is None:
                if match.allowed:
                    code = self.send_api_error(
                        405,
                        f"method {method} not allowed for {parsed.path}",
                        headers={"Allow": ", ".join(match.allowed)},
                    )
                else:
                    code = self.send_api_error(
                        404, f"no such path: {parsed.path}"
                    )
            else:
                query = parse_qs(parsed.query)
                code = match.route.handler(
                    self, service, match.params, query
                )
        except ValidationError as error:
            try:
                code = self.send_api_error(400, str(error))
            except OSError:
                code = 400
        except (BrokenPipeError, ConnectionResetError):
            code = 499  # client went away mid-response
            self.close_connection = True
        except Exception as error:  # noqa: BLE001 - keep serving
            try:
                code = self.send_api_error(
                    500, f"{type(error).__name__}: {error}"
                )
            except OSError:
                pass
        finally:
            elapsed = time.perf_counter() - started
            service.m_requests.inc(
                method=method, route=route_label, code=str(code)
            )
            service.m_latency.observe(
                elapsed,
                # Exemplar: the concrete path (not the bounded pattern
                # label) of the request that filled an outlier bucket.
                exemplar={"path": parsed.path, "code": code},
                method=method, route=route_label,
            )


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: RaceService) -> None:
        self.service = service
        self.router = build_router()
        super().__init__(address, _Handler)


def build_httpd(service: RaceService) -> _HTTPServer:
    config = service.config
    return _HTTPServer((config.host, config.port), service)


@dataclass
class ServiceHandle:
    """An in-process daemon for tests and benchmarks."""

    service: RaceService
    httpd: _HTTPServer
    thread: threading.Thread

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    def stop(self, grace: Optional[float] = None) -> None:
        self.service.drain(grace)
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=5.0)
        # The drain flag is process-global; an in-process daemon must
        # not leave it set for the host (e.g. a test suite) to trip on.
        engine.reset_drain()


def start_in_thread(config: ServiceConfig) -> ServiceHandle:
    """Start a fully wired daemon on a background thread (pass
    ``port=0`` to bind an ephemeral port; read it off the handle)."""
    service = RaceService(config)
    service.start()
    httpd = build_httpd(service)
    thread = threading.Thread(
        target=httpd.serve_forever,
        kwargs={"poll_interval": 0.05},
        name="repro-serve-http",
        daemon=True,
    )
    thread.start()
    return ServiceHandle(service=service, httpd=httpd, thread=thread)


def serve(config: ServiceConfig) -> int:
    """Run the daemon in the foreground until SIGTERM/SIGINT, then
    drain: stop accepting, let in-flight shards checkpoint, exit 0."""
    faults.load_from_env_once()  # chaos harnesses arm daemons via env
    service = RaceService(config)
    service.start()
    httpd = build_httpd(service)
    stopping = threading.Event()

    def _shutdown() -> None:
        service.drain()
        httpd.shutdown()

    def _on_signal(signum, frame) -> None:
        if stopping.is_set():
            return
        stopping.set()
        # Drain on a thread: signal handlers must not block, and
        # httpd.shutdown() deadlocks if called from serve_forever's
        # own thread.
        threading.Thread(target=_shutdown, daemon=True).start()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _on_signal)
    host, port = httpd.server_address[0], httpd.server_address[1]
    print(
        f"repro serve: listening on http://{host}:{port} "
        f"(store={config.store_dir}, workers={config.workers}, "
        f"engine-jobs={config.engine_jobs})",
        file=sys.stderr,
    )
    try:
        httpd.serve_forever(poll_interval=0.2)
    finally:
        httpd.server_close()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        if not stopping.is_set():
            service.drain(grace=0.0)
    print("repro serve: drained, exiting", file=sys.stderr)
    return 0
