"""Degradation accounting: the ``repro_degraded_total{reason}`` counter.

Every place the stack *survives* a failure instead of dying — a fused
kernel falling back to the object path, a broken pool replaced by the
sequential loop, a poison shard quarantined, a stuck job requeued, a
corrupt job dir scrubbed aside — records the event here.  The counter is
the operational contract of docs/ROBUSTNESS.md: a clean run shows zero,
and any non-zero reason labels exactly which self-healing path fired.

Recording is metrics + a structured log line + (when a telemetry sink is
active) a zero-duration ``degraded`` span, so every observability surface
tells the same story.  Like the rest of ``repro.obs`` this is near-free
on healthy runs: nothing here sits on a hot path — degradation events
are by definition rare.
"""

from __future__ import annotations

from typing import Optional

from repro.obs import telemetry
from repro.obs.metrics import MetricsRegistry, default_registry

#: Counter of survived failures, labelled by self-healing path.
DEGRADED_COUNTER = "repro_degraded_total"

#: Counter of shard-transport payload bytes.  The partitioner records the
#: total buffer size of every partition it publishes, so the perf
#: trajectory can correlate throughput with how many bytes actually
#: crossed the process boundary.
SHARD_BYTES_COUNTER = "repro_shard_bytes_total"

#: The reasons the stack currently records (docs/ROBUSTNESS.md catalog).
DEGRADED_REASONS = (
    "kernel_fallback",     # fused kernel failed; shard redone on object path
    "pool_fallback",       # process pool unusable; sequential loop took over
    "pool_rebuilt",        # dead pool replaced by a fresh one mid-run
    "shard_retried",       # a shard attempt failed and was retried
    "shard_quarantined",   # a poison shard exhausted its retries
    "checkpoint_quarantined",  # an invalid checkpoint was set aside
    "job_requeued",        # a stuck service job was killed and requeued
    "store_quarantined",   # a corrupt job dir was scrubbed aside
)


def record_degraded(
    reason: str,
    registry: Optional[MetricsRegistry] = None,
    **fields,
) -> None:
    """Record one survived failure under ``reason``.

    ``registry`` defaults to the process-global registry (the daemon
    passes its own so ``/metrics`` carries the counts).  Extra ``fields``
    (shard number, tool, job id, error text) go to the structured log and
    span, not the metric labels — label cardinality stays bounded at the
    reason set.
    """
    target = registry if registry is not None else default_registry()
    target.counter(
        DEGRADED_COUNTER,
        "Failures survived by self-healing, by degradation path.",
    ).inc(reason=reason)
    telemetry.log.warning(
        "degraded", f"degraded path taken: {reason}", reason=reason, **fields
    )
    if telemetry.enabled():
        telemetry.emit_span("degraded", 0.0, reason=reason, **fields)


def record_shard_bytes(
    nbytes: int,
    registry: Optional[MetricsRegistry] = None,
) -> None:
    """Count ``nbytes`` of published shard-transport payload.

    Called once per partition (not per shard, not per event), so it is
    nowhere near a hot path.
    """
    target = registry if registry is not None else default_registry()
    target.counter(
        SHARD_BYTES_COUNTER,
        "Shard transport payload bytes published.",
    ).inc(nbytes)
