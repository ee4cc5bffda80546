"""Columnar trace representation: parallel arrays instead of event objects.

The paper's core performance observation (Section 3) is that >96% of
monitored operations must stay O(1); our reproduction's equivalent
bottleneck is the *host-language* cost of touching one heap-allocated
:class:`~repro.trace.events.Event` per operation.  This module stores a
trace as structure-of-arrays columns, so the fused analysis kernels of
:mod:`repro.kernels` can branch on a machine-int kind column and index
dense shadow tables instead of chasing attributes and dicts:

* ``kinds``      — ``array('b')`` of event-kind constants;
* ``tids``       — ``array('q')`` of acting thread ids (-1 for barriers);
* ``target_ids`` — ``array('q')`` of dense interned target indices;
* ``site_ids``   — ``array('q')`` of dense interned site indices (-1 = no
  site);
* ``targets`` / ``sites`` — the intern tables, index → original hashable.

Interning gives every distinct variable/lock/thread-target a small dense
integer, which is what lets the kernels replace ``self.vars`` dict lookups
with list indexing.  The builders stream: :meth:`ColumnarTrace.from_events`
consumes any one-shot iterable one event at a time, and :meth:`from_file`
parses a serialized trace through
:func:`repro.trace.serialize.iter_parse_parts` without constructing
``Event`` objects at all.  It is how every ``repro`` verb but ``watch``
reads a trace file (through :func:`repro.engine.read_columns`): ``repro
check`` in process, the sharded engine and the daemon alike.
:meth:`to_events` reconstructs the exact
event sequence (same kinds, tids, targets, and sites), so the
representation is lossless — the round-trip tests in ``tests/test_columnar.py`` enforce it
over the golden corpus.
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import Dict, Hashable, Iterable, Iterator, List, Optional

from repro.trace import events as ev
from repro.trace import serialize


class ColumnarTrace:
    """A trace stored as parallel columns plus intern tables."""

    __slots__ = (
        "kinds",
        "tids",
        "target_ids",
        "site_ids",
        "targets",
        "sites",
        "_target_index",
        "_site_index",
        "_max_tid",
        "_buffer_owner",
    )

    def __init__(self) -> None:
        self.kinds = array("b")
        self.tids = array("q")
        self.target_ids = array("q")
        self.site_ids = array("q")
        self.targets: List[Hashable] = []
        self.sites: List[Hashable] = []
        self._target_index: Dict[Hashable, int] = {}
        self._site_index: Dict[Hashable, int] = {}
        self._max_tid = -1
        self._buffer_owner = None

    # -- building -----------------------------------------------------------

    def append(
        self,
        kind: int,
        tid: int,
        target: Hashable,
        site: Optional[Hashable] = None,
    ) -> None:
        """Append one operation, interning its target and site."""
        target_index = self._target_index
        target_id = target_index.get(target)
        if target_id is None:
            target_id = len(self.targets)
            target_index[target] = target_id
            self.targets.append(target)
        if site is None:
            site_id = -1
        else:
            site_index = self._site_index
            site_id = site_index.get(site)
            if site_id is None:
                site_id = len(self.sites)
                site_index[site] = site_id
                self.sites.append(site)
        if tid > self._max_tid:
            self._max_tid = tid
        self.kinds.append(kind)
        self.tids.append(tid)
        self.target_ids.append(target_id)
        self.site_ids.append(site_id)

    @classmethod
    def from_events(cls, events: Iterable[ev.Event]) -> "ColumnarTrace":
        """Build columns from any (one-shot) iterable of events, streaming."""
        trace = cls()
        append = trace.append
        for event in events:
            append(event.kind, event.tid, event.target, event.site)
        return trace

    @classmethod
    def from_file(
        cls, stream: Iterable[str], fmt: str = "text"
    ) -> "ColumnarTrace":
        """Stream-parse an open serialized trace file (or any iterable of
        its lines) straight into columns: no :class:`Event` is built."""
        parse = (
            serialize.iter_parse_parts_jsonl
            if fmt == "jsonl"
            else serialize.iter_parse_parts
        )
        trace = cls()
        append = trace.append
        for kind, tid, target, site in parse(stream):
            append(kind, tid, target, site)
        return trace

    @classmethod
    def from_columns(
        cls,
        kinds: array,
        tids: array,
        target_ids: array,
        site_ids: array,
        targets: List[Hashable],
        sites: List[Hashable],
    ) -> "ColumnarTrace":
        """Wrap prebuilt columns (the engine's shard loader uses this; the
        intern tables may be shared and larger than the columns need)."""
        trace = cls.__new__(cls)
        trace.kinds = kinds
        trace.tids = tids
        trace.target_ids = target_ids
        trace.site_ids = site_ids
        trace.targets = targets
        trace.sites = sites
        trace._target_index = {}
        trace._site_index = {}
        trace._max_tid = max(tids, default=-1)
        trace._buffer_owner = None
        return trace

    @classmethod
    def from_buffers(
        cls,
        kinds,
        tids,
        target_ids,
        site_ids,
        targets: List[Hashable],
        sites: List[Hashable],
        owner=None,
    ) -> "ColumnarTrace":
        """Wrap zero-copy buffer views (``memoryview`` casts) as columns.

        The engine's v3 shard transport uses this: the columns index
        straight into an mmap'd shard file, so constructing the trace
        copies nothing.  ``owner`` is whatever
        object keeps the underlying mapping alive (the transport's
        :class:`~repro.engine.transport.ShardView`); it is pinned on the
        trace so the buffers outlive every reader.
        """
        trace = cls.from_columns(
            kinds, tids, target_ids, site_ids, targets, sites
        )
        trace._buffer_owner = owner
        return trace

    # -- sequence protocol --------------------------------------------------

    @property
    def max_tid(self) -> int:
        """The largest acting tid in the trace (-1 when empty or
        barrier-only) — kernels size their dense thread tables with it."""
        return self._max_tid

    @property
    def nbytes(self) -> int:
        """Total bytes held by the four columns (33 per event).

        Works for both storage forms: ``array`` columns report
        ``len * itemsize``, buffer-backed columns report the underlying
        view's ``nbytes`` — either way this is the shard transport's
        per-shard payload size, surfaced as ``repro_shard_bytes_total``.
        """
        total = 0
        for column in (self.kinds, self.tids, self.target_ids,
                       self.site_ids):
            nbytes = getattr(column, "nbytes", None)
            if nbytes is None:
                nbytes = len(column) * column.itemsize
            total += nbytes
        return total

    def __len__(self) -> int:
        return len(self.kinds)

    def event_at(self, index: int) -> ev.Event:
        """Reconstruct the ``index``-th event."""
        site_id = self.site_ids[index]
        return ev.Event(
            self.kinds[index],
            self.tids[index],
            self.targets[self.target_ids[index]],
            self.sites[site_id] if site_id >= 0 else None,
        )

    def iter_events(self) -> Iterator[ev.Event]:
        """Reconstruct the event stream lazily, in order."""
        targets = self.targets
        sites = self.sites
        Event = ev.Event
        for kind, tid, target_id, site_id in zip(
            self.kinds, self.tids, self.target_ids, self.site_ids
        ):
            yield Event(
                kind,
                tid,
                targets[target_id],
                sites[site_id] if site_id >= 0 else None,
            )

    def __iter__(self) -> Iterator[ev.Event]:
        return self.iter_events()

    def to_events(self) -> List[ev.Event]:
        """The full reconstructed event list (inverse of :meth:`from_events`)."""
        return list(self.iter_events())

    # -- queries ------------------------------------------------------------

    def kind_counts(self) -> Dict[int, int]:
        """Per-kind event tallies from one pass over the int column."""
        return dict(Counter(self.kinds))

    def __repr__(self) -> str:
        return (
            f"ColumnarTrace({len(self.kinds)} events, "
            f"{len(self.targets)} targets, {len(self.sites)} sites)"
        )
