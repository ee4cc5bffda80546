"""Shard workers: full-precision detection over one shard's sub-stream.

A worker replays its shard — the complete synchronization order plus the
accesses of the variables hashed to this shard — through a fresh detector
instance from :mod:`repro.detectors.registry`.  Each event is fed with its
*original* trace index, so the warnings a worker records are
field-for-field identical to the ones a single-threaded run reports for the
same variables (same ``event_index``, same ``prior`` description — the
per-variable shadow state evolves identically because the sync order is
complete).

The shard arrives through the v3 zero-copy transport
(:mod:`repro.engine.transport`): the worker memory-maps the shard's
file and wraps it with ``memoryview`` casts — no pickle framing, no
per-event deserialization, no per-batch intern deltas.  The tool picks
the loop: kernel-equipped tools (``repro.kernels.KERNEL_TOOLS``) run
their fused loop directly over those casts, and every other tool runs
the object path, which reconstructs ``Event`` objects lazily from the
same casts.  A kernel that fails falls back to the object path, with
bit-identical payloads — the kernels' equivalence contract plus the
shard replay argument compose.  That choice, the fallback and the
classifier verdict live in :func:`analyze_columns`, which ``repro check``
also runs in process over a whole trace's columns.  The view is closed
at the shard boundary so pooled workers never accumulate mappings.

The worker's result — warnings, detector cost stats, optional
sharing-classifier counts — is checkpointed as JSON through
:class:`~repro.engine.checkpoint.Workdir` before the function returns, so a
run killed between shards loses at most the shards in flight.  The
classifier counts depend only on the shard, so they get a checkpoint of
their own: the first classifying run profiles the shard and writes it,
and every later tool, job or resume of the partition reads it instead of
profiling again (and, for a tool other than FastTrack, instead of
re-running FastTrack for the racy class).  The module
is import-clean and the entry point takes only picklable primitives: it is
the ``multiprocessing`` target.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from typing import Dict, Optional, Sequence, Tuple

from repro import faults
from repro import obs
from repro.core.detector import CostStats, Detector
from repro.obs import tracecontext
from repro.detectors.classifier import SharingClassifier
from repro.detectors.registry import make_detector
from repro.engine import transport as _transport
from repro.engine.checkpoint import Workdir
from repro.kernels import has_kernel, run_kernel
from repro.report import classifier_counts, stats_to_json, warning_to_json
from repro.trace import events as ev
from repro.trace.columnar import ColumnarTrace

__all__ = [
    "DrainRequested",
    "analyze_columns",
    "analyze_shard",
    "drain_requested",
    "install_drain_handler",
    "request_drain",
    "reset_drain",
    "run_shard",
]

PAYLOAD_VERSION = 1

#: Exit status of a shard worker that drained on SIGTERM (128 + 15, the
#: conventional "terminated" code — but only *after* checkpointing).
DRAIN_EXIT_CODE = 143


class DrainRequested(RuntimeError):
    """An engine run stopped early because SIGTERM asked it to drain.

    Every shard finished before the stop is checkpointed; re-running with
    the same working directory (``--resume DIR`` / the daemon's restart
    recovery) completes only the remaining shards.
    """

    def __init__(self, completed: Optional[int] = None,
                 total: Optional[int] = None) -> None:
        self.completed = completed
        self.total = total
        progress = (
            f" ({completed}/{total} pending shard(s) checkpointed)"
            if completed is not None and total is not None
            else ""
        )
        super().__init__(
            "drain requested by SIGTERM; finished shards are "
            f"checkpointed{progress} — re-run with the same working "
            "directory to complete the remainder"
        )


# A SIGTERM must not kill a worker mid-shard (that would forfeit the whole
# shard's work): the handler only raises this flag, and the analysis loops
# stop at the next shard boundary — after the in-flight shard's checkpoint
# is on disk.
_DRAIN = {"requested": False}


def request_drain(signum=None, frame=None) -> None:
    """Signal-handler-shaped: mark that the current process should stop
    taking new shards once the in-flight one is checkpointed."""
    _DRAIN["requested"] = True


def drain_requested() -> bool:
    return _DRAIN["requested"]


def reset_drain() -> None:
    _DRAIN["requested"] = False


def install_drain_handler():
    """Route SIGTERM to :func:`request_drain`.

    Returns the previous handler so callers can restore it, or ``None``
    when installation is impossible (signal handlers can only be set from
    the main thread — the daemon's job-runner threads land here and rely
    on the daemon's own SIGTERM handling instead).
    """
    try:
        return signal.signal(signal.SIGTERM, request_drain)
    except ValueError:
        return None


def _tally_kinds(stats: CostStats, kind_counts: Dict[int, int]) -> None:
    """Columnar equivalent of :meth:`Detector.absorb_kind_counts`, taken
    from the analyzed columns'
    :meth:`~repro.trace.columnar.ColumnarTrace.kind_counts`."""
    for kind, count in kind_counts.items():
        stats.events += count
        if kind == ev.READ:
            stats.reads += count
        elif kind == ev.WRITE:
            stats.writes += count
        elif kind in (ev.ENTER, ev.EXIT):
            stats.boundaries += count
        else:
            stats.syncs += count


def analyze_columns(
    tool: str,
    columns: ColumnarTrace,
    indices: Optional[Sequence[int]] = None,
    tool_kwargs: Optional[Dict] = None,
    classifier: Optional[SharingClassifier] = None,
    shard: Optional[int] = None,
) -> Tuple[Detector, str, Optional[Dict]]:
    """Run ``tool`` over ``columns``: the one analysis sequence behind a
    shard worker's payload and ``repro check``'s in-process result.

    ``indices`` maps column positions to trace positions (``None``: the
    columns are the whole trace).  The tool's fused kernel runs when it
    has one, and the object path otherwise.  A kernel failure degrades:
    the run is redone on the object path, bit-identical by the
    equivalence contract.  ``classifier``, a profile of the same columns,
    adopts the detector's race verdict when it can.  ``shard`` labels the
    ``kernels`` span.  Returns the detector, the loop that drove it
    (``'fused'`` or ``'generic'``) and the classifier's counts.
    """
    where = {"tool": tool} if shard is None else {"tool": tool, "shard": shard}
    detector: Detector = make_detector(tool, **(tool_kwargs or {}))
    fused = has_kernel(tool)
    with obs.span("kernels", events=len(columns), **where) as span:
        if fused:
            try:
                run_kernel(tool, columns, indices=indices, detector=detector)
            except Exception as error:
                # The kernel may have half-advanced the detector's shadow
                # state: start over from a fresh one.
                obs.record_degraded(
                    "kernel_fallback", **where, error=str(error)
                )
                detector = make_detector(tool, **(tool_kwargs or {}))
                fused = False
        if not fused:
            handle = detector.handle
            positions = range(len(columns)) if indices is None else indices
            for index, event in zip(positions, columns.iter_events()):
                handle(event, index=index)
            _tally_kinds(detector.stats, columns.kind_counts())
        used = "fused" if fused else "generic"
        span.set(kernel=used)
    if classifier is None:
        return detector, used, None
    classifier.adopt(detector)
    return detector, used, classifier_counts(classifier)


def analyze_shard(
    workdir: Workdir,
    shard: int,
    tool: str,
    tool_kwargs: Optional[Dict] = None,
    classify: bool = False,
    kernel: str = "auto",
    attempt: int = 0,
    submitted: Optional[float] = None,
) -> Dict:
    """Run ``tool`` over one shard and checkpoint + return the payload.

    ``kernel`` accepts only ``'auto'``: the tool chooses its loop (see
    :func:`analyze_columns`).  The cold-run benchmark (``perfbench/``)
    still passes it.

    ``attempt`` is the supervisor's retry counter for this shard; it is
    stable context for fault plans (a plan targeting ``{"shard": 3,
    "attempt": 0}`` hits exactly the first try, whichever worker process
    lands it) and is carried in the payload for post-mortems.

    ``submitted`` is the dispatcher's ``time.monotonic()`` at submission
    (carried in the trace context) — monotonic clocks are comparable
    across processes on one machine, so ``start - submitted`` is this
    shard's queue wait.  When telemetry is on the shard emits its own
    ``shard.analyze`` span (with ``shard.attach``/``kernels`` children,
    and ``detectors.classifier`` when it profiles the shard) into this
    process's span file; those spans are the shard's only timing record.

    With ``classify`` the counts come from the shard's classifier
    checkpoint when one is valid for this partition generation;
    otherwise the shard is profiled and the checkpoint written.
    """
    if kernel != "auto":
        raise ValueError(
            f"unknown kernel mode {kernel!r}; the tool chooses its analysis "
            "loop, the only mode is 'auto'"
        )
    if faults.active():
        faults.fire("worker.crash", shard=shard, tool=tool, attempt=attempt)
        faults.fire("worker.hang", shard=shard, tool=tool, attempt=attempt)
    queue_wait_s = (
        max(0.0, time.monotonic() - submitted)
        if submitted is not None else 0.0
    )
    with obs.span(
        "shard.analyze", shard=shard, tool=tool, attempt=attempt,
        queue_wait_s=queue_wait_s,
    ) as shard_span:
        # Attach the shard's transport buffer.  This — plus the cached
        # intern load — is the *entire* per-shard transport cost under v3;
        # its span shows the serialization tax is gone.
        with obs.span("shard.attach", shard=shard):
            meta = workdir.read_meta()
            if meta is None:
                raise FileNotFoundError(
                    f"no complete v3 partition at {workdir.root!r}"
                )
            intern = _transport.load_intern(workdir, meta)
            view = _transport.attach_view(workdir, meta, shard)
        generation = meta.get("generation")
        counts = (
            workdir.read_classifier(shard, generation) if classify else None
        )
        try:
            columns, indices = view.columns(intern)
            events_seen = len(columns)
            # The classifier may not hold the columns past close: the
            # analysis resolves its verdict before returning.
            detector, used, profiled = analyze_columns(
                tool, columns, indices, tool_kwargs,
                classifier=(
                    SharingClassifier().process(columns)
                    if classify and counts is None else None
                ),
                shard=shard,
            )
        finally:
            columns = indices = None
            view.close()
        if profiled is not None:
            workdir.write_classifier(shard, generation, profiled)
            counts = profiled

        shard_span.set(events=events_seen, kernel=used)

    payload = {
        "payload_version": PAYLOAD_VERSION,
        "shard": shard,
        "attempt": attempt,
        "tool": tool,
        "events": events_seen,
        "kernel": used,
        "warnings": [warning_to_json(w) for w in detector.warnings],
        "suppressed": detector.suppressed_warnings,
        "stats": stats_to_json(detector.stats),
        "classifier": counts,
    }
    workdir.write_result(tool, shard, payload)
    return payload


def run_shard(
    root: str,
    shard: int,
    tool: str,
    tool_kwargs: Optional[Dict] = None,
    classify: bool = False,
    attempt: int = 0,
    trace: Optional[Dict] = None,
) -> int:
    """Multiprocessing entry point: picklable args, result left on disk.

    Installs the drain handler so a SIGTERM delivered mid-shard does not
    kill the worker: the in-flight shard finishes and checkpoints, and
    only then does the worker exit (child processes with
    :data:`DRAIN_EXIT_CODE`; the in-process sequential path returns
    normally and lets the caller stop at the shard boundary).

    Also adopts any ``REPRO_FAULTS`` plan on first entry, so chaos plans
    reach spawn-start workers and pool processes re-spawned mid-run, not
    just fork children.

    ``trace`` is the dispatcher's trace context (see
    :mod:`repro.obs.tracecontext`): adopting it makes this worker write
    real span records — into its own ``spans-<pid>.jsonl`` when it is a
    separate process — parented under the submitting ``engine.analyze``
    span.  Spawn-start workers that were handed no context fall back to
    the ``REPRO_TRACE`` environment export.  ``None`` with no env set
    means telemetry is off and the analysis runs exactly as before.
    """
    faults.load_from_env_once()
    install_drain_handler()
    if trace is None:
        trace = tracecontext.context_from_env()
    with tracecontext.adopt(trace):
        analyze_shard(
            Workdir(root), shard, tool, tool_kwargs, classify,
            attempt=attempt, submitted=(trace or {}).get("submitted"),
        )
    if multiprocessing.parent_process() is not None and drain_requested():
        # Pool worker: the checkpoint is on disk; exiting here refuses
        # further shards so the parent's drain can proceed.
        os._exit(DRAIN_EXIT_CODE)
    return shard
