"""Zero-copy shard transport: mmap'd columnar shard files.

Format v2 moved shard payloads from pickled ``Event`` objects to columnar
batches, but still *pickle-framed* them through the filesystem: every
worker re-parsed every batch and re-built five ``array`` objects per
shard.  BENCH_engine.json showed where that leads — ``--jobs 4`` ran at
0.84x of sequential because the serialization tax grows with the worker
count while the analysis work does not.

Format v3 removes the tax.  The partitioner lays each shard out as five
**flat fixed-width segments** in one contiguous buffer::

    offset 0          indices     int64[n]   original trace positions
           8n         tids        int64[n]
           16n        target_ids  int64[n]   → partition-wide intern table
           24n        site_ids    int64[n]   (-1 = no site)
           32n        kinds       int8[n]    event-kind constants
    total  33n bytes  (the int8 segment goes last, so every int64
                       segment stays 8-byte aligned for memoryview.cast)

and writes it to ``shards/shard_NNNN.bin``.  Workers memory-map the file
read-only and wrap it with ``memoryview(...).cast(...)``: zero bytes
copied, zero per-event deserialization, and the page cache shares one
copy between every worker mapping it.  The files are durable, so
``--resume`` working directories and the service's resident partitions
survive process death (and reboots).
"""

from __future__ import annotations

import mmap
import os
import threading
from array import array
from typing import Dict, List, Optional, Tuple

from repro.trace.columnar import ColumnarTrace

__all__ = [
    "ShardView",
    "attach_view",
    "load_intern",
    "shard_file_size",
    "shard_layout",
    "shard_nbytes",
    "write_shard",
]

#: Segment order inside a shard buffer: four int64 columns, then the int8
#: kind column (last, so the 8-byte columns never need padding).
_INT64_SEGMENTS = ("indices", "tids", "target_ids", "site_ids")

#: Per-process intern-table cache: (root, generation) → (targets, sites).
#: Pool workers analyze many (tool, shard) pairs against one partition;
#: loading the tables once per process instead of once per shard is part
#: of the "no per-batch intern deltas" contract.
_INTERN_CACHE: Dict[Tuple[str, str], Tuple[list, list]] = {}
_INTERN_LOCK = threading.Lock()


def shard_layout(n: int) -> Dict[str, Tuple[int, int]]:
    """Segment name → ``(offset, nbytes)`` for an ``n``-event shard."""
    layout: Dict[str, Tuple[int, int]] = {}
    offset = 0
    for name in _INT64_SEGMENTS:
        layout[name] = (offset, 8 * n)
        offset += 8 * n
    layout["kinds"] = (offset, n)
    return layout


def shard_nbytes(n: int) -> int:
    """Total buffer size for an ``n``-event shard (33 bytes/event)."""
    return 33 * n


def shard_file_size(n: int) -> int:
    """Size of an ``n``-event shard's file: its buffer, or one byte for
    an empty shard (``mmap`` cannot map a zero-length file)."""
    return max(1, shard_nbytes(n))


# -- writer side ---------------------------------------------------------------


def write_shard(
    path: str, columns: ColumnarTrace, selection: Optional[array]
) -> int:
    """Write one shard's v3 buffer to ``path``; returns its event count.

    ``selection`` holds the trace positions the shard keeps, in order
    (it is the shard's ``indices`` segment); the other four segments are
    gathered from ``columns`` at those positions.  ``None`` keeps every
    position (a one-shard partition), written straight from the columns.
    The file is flushed and fsynced: the partition's ``meta.json``,
    written after every shard, certifies it.
    """
    columns_in_layout = (
        columns.tids, columns.target_ids, columns.site_ids, columns.kinds,
    )
    if selection is None:
        segments = [array("q", range(len(columns))), *columns_in_layout]
    else:
        segments = [selection] + [
            array(column.typecode, [column[i] for i in selection])
            for column in columns_in_layout
        ]
    n = len(segments[0])
    with open(path, "wb") as stream:
        if n:
            for segment in segments:
                stream.write(segment)
        else:
            stream.write(bytes(shard_file_size(0)))
        stream.flush()
        os.fsync(stream.fileno())
    return n


# -- reader side ---------------------------------------------------------------


class ShardView:
    """A zero-copy view over one shard's v3 buffer.

    ``columns()`` returns a :class:`ColumnarTrace` whose columns are
    ``memoryview`` casts straight into the transport buffer plus the
    original-index column — no event is deserialized, no byte is copied
    (the fused kernels' one ``kinds.tobytes()`` aside).  The view keeps
    the mapping alive; call :meth:`close` when analysis is done so pooled
    worker processes do not accumulate mappings and file descriptors.
    """

    def __init__(self, n: int, nbytes: int, base: memoryview,
                 closer) -> None:
        self.n = n
        self.nbytes = nbytes
        self._base = base
        self._closer = closer
        self._casts: List[memoryview] = []

    def _segment(self, name: str, fmt: str) -> memoryview:
        offset, length = shard_layout(self.n)[name]
        cast = self._base[offset:offset + length].cast(fmt)
        self._casts.append(cast)
        return cast

    def columns(
        self, intern: Tuple[list, list]
    ) -> Tuple[ColumnarTrace, memoryview]:
        """``(ColumnarTrace over the buffer, original-index column)``."""
        targets, sites = intern
        indices = self._segment("indices", "q")
        trace = ColumnarTrace.from_buffers(
            kinds=self._segment("kinds", "b"),
            tids=self._segment("tids", "q"),
            target_ids=self._segment("target_ids", "q"),
            site_ids=self._segment("site_ids", "q"),
            targets=targets,
            sites=sites,
            owner=self,
        )
        return trace, indices

    def close(self) -> None:
        """Release every cast, the base view, and the mapping."""
        for cast in self._casts:
            try:
                cast.release()
            except BufferError:  # a consumer still holds a sub-view
                return
        self._casts.clear()
        if self._base is not None:
            try:
                self._base.release()
            except BufferError:
                return
            self._base = None
        if self._closer is not None:
            closer, self._closer = self._closer, None
            closer()

    def __del__(self):  # noqa: D105 - GC fallback for unpinned views
        # A view pinned on a ColumnarTrace may never see an explicit
        # close(); release our casts before the mmap finalizer runs, or
        # its __del__ would hit "cannot close: exported pointers exist"
        # at GC time.
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter shutdown
            pass


def attach_view(workdir, meta: Dict, shard: int) -> ShardView:
    """Memory-map one shard's file read-only."""
    n = meta["shard_events"][shard]
    total = shard_nbytes(n)
    handle = open(workdir.shard_path(shard), "rb")
    if total:
        m = mmap.mmap(handle.fileno(), total, access=mmap.ACCESS_READ)
        base = memoryview(m)

        def closer(m=m, handle=handle):
            m.close()
            handle.close()

    else:
        base = memoryview(b"")

        def closer(handle=handle):
            handle.close()

    return ShardView(n, total, base, closer)


def load_intern(workdir, meta: Optional[Dict] = None) -> Tuple[list, list]:
    """The partition-wide intern tables from ``intern.bin``, cached per
    process.  The cache key includes the partition generation, so a
    re-partitioned root is never served stale tables."""
    if meta is None:
        meta = workdir.read_meta() or {}
    key = (os.path.abspath(workdir.root), str(meta.get("generation", "")))
    with _INTERN_LOCK:
        cached = _INTERN_CACHE.get(key)
    if cached is not None:
        return cached
    tables = workdir.read_intern()
    with _INTERN_LOCK:
        _INTERN_CACHE[key] = tables
        # Long-lived pool workers serve many partitions; keep the cache
        # from growing without bound.
        while len(_INTERN_CACHE) > 8:
            _INTERN_CACHE.pop(next(iter(_INTERN_CACHE)))
    return tables
