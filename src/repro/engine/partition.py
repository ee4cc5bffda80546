"""Trace partitioner: parsed columns in, N shard buffers out.

FastTrack's analysis state factors into (a) the synchronization order —
thread/lock/volatile vector clocks, advanced only by sync operations — and
(b) per-variable shadow state, advanced only by that variable's accesses
(PAPER.md Figure 5).  The partitioner exploits this: it walks the trace's
columns once and

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

The input is a :class:`~repro.trace.columnar.ColumnarTrace`: the parser
has already interned targets and sites into the trace's tables, which
become the partition-wide ``intern.bin``, so shard columns carry dense
ids only.  Shards are published in the **v3 zero-copy columnar format**
of :mod:`repro.engine.transport`: five flat fixed-width segments
(original trace indices, tids, interned target ids, interned site ids,
kinds) in one mmap'd ``shards/shard_NNNN.bin`` per shard, each written
once.  The variable hash is ``zlib.crc32`` over ``repr`` rather than
builtin ``hash`` because the latter is randomized per process: shard
assignment must be stable across the CLI invocations of an
interrupted-then-resumed run.
"""

from __future__ import annotations

import os
import zlib
from array import array
from typing import Dict, Hashable, Iterable, List, Tuple

from repro.engine import transport as _transport
from repro.engine.checkpoint import Workdir
from repro.trace import events as ev
from repro.trace.columnar import ColumnarTrace


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


def partition_trace(
    columns: ColumnarTrace, workdir: Workdir, nshards: int
) -> Dict:
    """Write ``columns`` as ``nshards`` v3 columnar shard buffers.

    The intern tables (written to ``intern.bin`` before the metadata)
    are the trace's own, so every shard's columns index the same tables
    and workers can share one loaded copy.  Returns the partition
    metadata (also persisted as ``meta.json``; its write is the last
    step, so a half-partitioned directory is recognizably incomplete and
    gets re-partitioned on resume).
    """
    if nshards < 1:
        raise ValueError(f"nshards must be >= 1, got {nshards}")
    generation = os.urandom(4).hex()
    selections = [None] if nshards == 1 else _selections(columns, nshards)
    shard_events = [
        _transport.write_shard(workdir.shard_path(shard), columns, selection)
        for shard, selection in enumerate(selections)
    ]
    shard_bytes = [_transport.shard_nbytes(n) for n in shard_events]
    workdir.write_intern(columns.targets, columns.sites)
    counts = columns.kind_counts()
    reads = counts.get(ev.READ, 0)
    writes = counts.get(ev.WRITE, 0)
    meta = {
        "nshards": nshards,
        "events": len(columns),
        "reads": reads,
        "writes": writes,
        "other": len(columns) - reads - writes,
        "shard_events": shard_events,
        "targets": len(columns.targets),
        "sites": len(columns.sites),
        "generation": generation,
        "shard_bytes": shard_bytes,
    }
    workdir.write_meta(meta)
    from repro import obs

    obs.record_shard_bytes(sum(shard_bytes))
    return meta


def _selections(columns: ColumnarTrace, nshards: int) -> List[array]:
    """Each shard's selection: the trace positions it keeps, in order.

    An access goes to its variable's shard (``shard_of`` runs once per
    distinct target); a sync or boundary event goes to every shard, which
    needs the full synchronization order to keep its vector clocks exact.
    """
    owner = [shard_of(target, nshards) for target in columns.targets]
    selections = [array("q") for _ in range(nshards)]
    appends = [selection.append for selection in selections]
    READ, WRITE = ev.READ, ev.WRITE
    for index, (kind, target_id) in enumerate(
        zip(columns.kinds, columns.target_ids)
    ):
        if kind == READ or kind == WRITE:
            appends[owner[target_id]](index)
        else:
            for append in appends:
                append(index)
    return selections


def partition_events(
    events: Iterable[ev.Event],
    workdir: Workdir,
    nshards: int,
    transport: str = "mmap",
) -> Dict:
    """:func:`partition_trace` over an in-memory (or one-shot) event
    sequence, interned into columns first.

    ``transport`` accepts only ``'mmap'``, the one shard transport; the
    cold-run benchmark (``perfbench/``) still passes it.
    """
    require_mmap_transport(transport)
    return partition_trace(ColumnarTrace.from_events(events), workdir, nshards)


def iter_shard(workdir: Workdir, shard: int) -> Iterable[Tuple[int, ev.Event]]:
    """Yield a shard's ``(original_index, event)`` pairs in order,
    reconstructing :class:`Event` objects for the generic object path."""
    meta = workdir.read_meta()
    if meta is None:
        raise FileNotFoundError(
            f"no complete v3 partition at {workdir.root!r}"
        )
    intern = _transport.load_intern(workdir, meta)
    view = _transport.attach_view(workdir, meta, shard)
    try:
        columns, indices = view.columns(intern)
        yield from zip(indices, columns.iter_events())
    finally:
        view.close()
