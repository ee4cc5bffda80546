"""Round-trip tests for the columnar trace representation.

``ColumnarTrace`` is the interchange format between the streaming parsers,
the engine's shard files, and the fused kernels — all of them assume the
columns are a *lossless* encoding of the event stream.  These tests pin
that down over the golden corpus (every workload idiom the repo ships)
and over hand-built traces covering every event kind, including the
non-string target shapes (int fork/join targets, tuple barrier targets).
"""

import json
from array import array
from pathlib import Path

import pytest

from repro.trace import events as ev
from repro.trace.columnar import ColumnarTrace
from repro.trace.serialize import dumps, loads

DATA = Path(__file__).parent / "data"
MANIFEST = json.loads((DATA / "manifest.json").read_text())

ALL_KIND_EVENTS = [
    ev.Event(ev.READ, 0, "x", "a.py:1"),
    ev.Event(ev.WRITE, 1, "x", None),
    ev.Event(ev.ACQUIRE, 0, "m", "a.py:2"),
    ev.Event(ev.RELEASE, 0, "m", None),
    ev.Event(ev.FORK, 0, 1, None),
    ev.Event(ev.JOIN, 0, 1, "b.py:9"),
    ev.Event(ev.VOLATILE_READ, 1, "v", None),
    ev.Event(ev.VOLATILE_WRITE, 0, "v", "c.py:3"),
    ev.Event(ev.BARRIER_RELEASE, -1, (0, 1), None),
    ev.Event(ev.ENTER, 1, "fn", None),
    ev.Event(ev.EXIT, 1, "fn", None),
]


def events_equal(a, b):
    return [(e.kind, e.tid, e.target, e.site) for e in a] == [
        (e.kind, e.tid, e.target, e.site) for e in b
    ]


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_golden_corpus_round_trip(name):
    events = list(loads((DATA / f"{name}.trace").read_text()))
    col = ColumnarTrace.from_events(events)
    assert len(col) == len(events)
    assert events_equal(col.to_events(), events)
    # Random access agrees with sequential reconstruction.
    for index in (0, len(events) // 2, len(events) - 1):
        e = col.event_at(index)
        o = events[index]
        assert (e.kind, e.tid, e.target, e.site) == (
            o.kind,
            o.tid,
            o.target,
            o.site,
        )


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_golden_corpus_streaming_parse(name):
    """Text-format streaming parse produces the same columns as the
    object-path parse → from_events chain."""
    text = (DATA / f"{name}.trace").read_text()
    via_events = ColumnarTrace.from_events(loads(text))
    direct = ColumnarTrace.from_file(text.splitlines())
    assert events_equal(direct.to_events(), via_events.to_events())


def test_all_event_kinds_round_trip():
    col = ColumnarTrace.from_events(ALL_KIND_EVENTS)
    assert events_equal(col.to_events(), ALL_KIND_EVENTS)
    assert events_equal(list(col), ALL_KIND_EVENTS)  # __iter__


def test_all_event_kinds_survive_serialized_round_trip():
    text = dumps(ALL_KIND_EVENTS)
    col = ColumnarTrace.from_file(text.splitlines())
    assert events_equal(col.to_events(), loads(text))


def test_interning_is_dense_and_stable():
    col = ColumnarTrace.from_events(ALL_KIND_EVENTS)
    # Repeated targets share one id; ids are dense first-occurrence order.
    assert col.targets[col.target_ids[0]] == "x"
    assert col.target_ids[0] == col.target_ids[1]
    assert sorted(set(col.target_ids)) == list(range(len(col.targets)))
    # Missing sites map to -1, present ones intern densely.
    assert col.site_ids[1] == -1
    assert col.sites[col.site_ids[0]] == "a.py:1"


def test_max_tid_tracks_appends():
    col = ColumnarTrace()
    assert col.max_tid == -1
    col.append(ev.READ, 3, "x")
    assert col.max_tid == 3
    col.append(ev.WRITE, 1, "x")
    assert col.max_tid == 3
    # Barrier pseudo-tid (-1) never raises the max.
    col.append(ev.BARRIER_RELEASE, -1, (0, 1))
    assert col.max_tid == 3


def test_from_columns_shares_tables_and_recomputes_max_tid():
    base = ColumnarTrace.from_events(ALL_KIND_EVENTS)
    view = ColumnarTrace.from_columns(
        array("b", base.kinds[:4]),
        array("q", base.tids[:4]),
        array("q", base.target_ids[:4]),
        array("q", base.site_ids[:4]),
        base.targets,
        base.sites,
    )
    assert view.targets is base.targets
    assert view.max_tid == max(base.tids[:4])
    assert events_equal(view.to_events(), ALL_KIND_EVENTS[:4])


def test_kind_counts():
    col = ColumnarTrace.from_events(ALL_KIND_EVENTS)
    counts = col.kind_counts()
    assert counts[ev.READ] == 1
    assert sum(counts.values()) == len(ALL_KIND_EVENTS)


def test_empty_trace():
    col = ColumnarTrace.from_events([])
    assert len(col) == 0
    assert col.to_events() == []
    assert col.max_tid == -1
