"""Streaming trace partitioner: one pass, bounded memory, N shard buffers.

FastTrack's analysis state factors into (a) the synchronization order —
thread/lock/volatile vector clocks, advanced only by sync operations — and
(b) per-variable shadow state, advanced only by that variable's accesses
(PAPER.md Figure 5).  The partitioner exploits this: it streams the event
sequence once and

* **broadcasts** every non-access event (acquire/release, fork/join,
  volatile accesses, barrier releases, enter/exit boundaries) to *all*
  shards, and
* **routes** each read/write to the single shard
  ``stable_hash(variable) % nshards``,

preserving relative order within each shard.  Every shard therefore sees
the complete sync order interleaved with its own variables' accesses — by
the paper's Theorem 1 argument, exactly the information needed to check
those variables with full precision (docs/ENGINE.md spells the argument
out).

Shards are published in the **v3 zero-copy columnar format** of
:mod:`repro.engine.transport`: five flat fixed-width segments (original
trace indices, tids, interned target ids, interned site ids, kinds) in
one mmap'd ``shards/shard_NNNN.bin`` per shard.  Workers *attach*
instead of deserializing: ``memoryview`` casts over the buffer feed the
fused kernels directly, so the per-event transport cost is zero
regardless of worker count.  Targets and sites are interned once into
partition-wide tables (persisted to ``intern.bin``) — shard columns
carry dense ids only, never per-batch intern deltas.

Streaming stays bounded-memory: events accumulate in per-shard batches
(:data:`BATCH_EVENTS`) that spill to scratch files, and the final buffers
are assembled segment-by-segment once the per-shard counts are known.
The variable hash is ``zlib.crc32`` over ``repr`` rather than builtin
``hash`` because the latter is randomized per process: shard assignment
must be stable across the CLI invocations of an interrupted-then-resumed
run.
"""

from __future__ import annotations

import os
import struct
import zlib
from array import array
from typing import Dict, Hashable, Iterable, Tuple

from repro.engine import transport as _transport
from repro.engine.checkpoint import Workdir
from repro.trace import events as ev

#: Events appended to a batch before it spills to scratch (bounds memory).
BATCH_EVENTS = 8192

_ACCESS_KINDS = (ev.READ, ev.WRITE)

_FRAME_HEADER = struct.Struct("<q")


def shard_of(target: Hashable, nshards: int) -> int:
    """Deterministic, process-stable shard assignment for a variable."""
    return zlib.crc32(repr(target).encode("utf-8")) % nshards


def require_mmap_transport(transport: str) -> None:
    """Refuse any transport selector but ``'mmap'``."""
    if transport != "mmap":
        raise ValueError(
            f"unknown transport {transport!r}; shards are mmap'd files, "
            "the only transport is 'mmap'"
        )


def partition_events(
    events: Iterable[ev.Event],
    workdir: Workdir,
    nshards: int,
    batch_events: int = BATCH_EVENTS,
    transport: str = "mmap",
) -> Dict:
    """Stream ``events`` into ``nshards`` v3 columnar shard buffers.

    Targets and sites are interned into partition-wide tables (written to
    ``intern.bin`` before the metadata), so every shard's columns index
    the same tables and workers can share one loaded copy.  Returns the
    partition metadata (also persisted as ``meta.json``; its write is the
    last step, so a half-partitioned directory is recognizably incomplete
    and gets re-partitioned on resume).

    ``transport`` accepts only ``'mmap'``, the one shard transport; the
    cold-run benchmark (``perfbench/``) still passes it.
    """
    if nshards < 1:
        raise ValueError(f"nshards must be >= 1, got {nshards}")
    require_mmap_transport(transport)
    generation = os.urandom(4).hex()
    spill_paths = [workdir.shard_path(s) + ".spill" for s in range(nshards)]
    streams = [open(path, "wb") for path in spill_paths]
    batches = [([], [], [], [], []) for _ in range(nshards)]
    shard_events = [0] * nshards
    total = reads = writes = 0
    targets: list = []
    sites: list = []
    target_index: Dict[Hashable, int] = {}
    site_index: Dict[Hashable, int] = {}

    def flush(shard: int) -> None:
        b_idx, b_kind, b_tid, b_target, b_site = batches[shard]
        if b_idx:
            stream = streams[shard]
            stream.write(_FRAME_HEADER.pack(len(b_idx)))
            stream.write(array("q", b_idx).tobytes())
            stream.write(bytes(b_kind))
            stream.write(array("q", b_tid).tobytes())
            stream.write(array("q", b_target).tobytes())
            stream.write(array("q", b_site).tobytes())
            for column in batches[shard]:
                column.clear()

    def append(shard: int, index: int, kind: int, tid: int,
               target_id: int, site_id: int) -> None:
        b_idx, b_kind, b_tid, b_target, b_site = batches[shard]
        b_idx.append(index)
        b_kind.append(kind)
        b_tid.append(tid)
        b_target.append(target_id)
        b_site.append(site_id)
        shard_events[shard] += 1
        if len(b_idx) >= batch_events:
            flush(shard)

    try:
        try:
            for index, event in enumerate(events):
                kind = event.kind
                target = event.target
                target_id = target_index.get(target)
                if target_id is None:
                    target_id = len(targets)
                    target_index[target] = target_id
                    targets.append(target)
                site = event.site
                if site is None:
                    site_id = -1
                else:
                    site_id = site_index.get(site)
                    if site_id is None:
                        site_id = len(sites)
                        site_index[site] = site_id
                        sites.append(site)
                if kind in _ACCESS_KINDS:
                    shard = shard_of(target, nshards)
                    append(shard, index, kind, event.tid, target_id, site_id)
                    if kind == ev.READ:
                        reads += 1
                    else:
                        writes += 1
                else:
                    # Sync / boundary event: every shard needs the full
                    # synchronization order to keep its vector clocks exact.
                    for shard in range(nshards):
                        append(shard, index, kind, event.tid,
                               target_id, site_id)
                total += 1
            for shard in range(nshards):
                flush(shard)
        finally:
            for stream in streams:
                stream.close()
        shard_bytes = [
            _transport.assemble_shard(
                workdir.shard_path(shard), spill_paths[shard],
                shard_events[shard],
            )
            for shard in range(nshards)
        ]
        workdir.write_intern(targets, sites)
    except BaseException:
        for path in spill_paths:
            if os.path.exists(path):
                os.unlink(path)
        raise
    meta = {
        "nshards": nshards,
        "events": total,
        "reads": reads,
        "writes": writes,
        "other": total - reads - writes,
        "shard_events": shard_events,
        "targets": len(targets),
        "sites": len(sites),
        "generation": generation,
        "shard_bytes": shard_bytes,
    }
    workdir.write_meta(meta)
    from repro import obs

    obs.record_shard_bytes(sum(shard_bytes))
    return meta


def iter_shard(workdir: Workdir, shard: int) -> Iterable[Tuple[int, ev.Event]]:
    """Yield a shard's ``(original_index, event)`` pairs in order,
    reconstructing :class:`Event` objects for the generic object path."""
    meta = workdir.read_meta()
    if meta is None:
        raise FileNotFoundError(
            f"no complete v3 partition at {workdir.root!r}"
        )
    targets, sites = _transport.load_intern(workdir, meta)
    view = _transport.attach_view(workdir, meta, shard)
    try:
        columns, indices = view.columns((targets, sites))
        Event = ev.Event
        for index, kind, tid, target_id, site_id in zip(
            indices, columns.kinds, columns.tids,
            columns.target_ids, columns.site_ids,
        ):
            yield index, Event(
                kind,
                tid,
                targets[target_id],
                sites[site_id] if site_id >= 0 else None,
            )
    finally:
        view.close()
