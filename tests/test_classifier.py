"""Tests for the sharing-pattern classifier (the Section 1 insight)."""

import pytest
from hypothesis import given, settings

from repro.core.detector import coarse_grain, fine_grain
from repro.core.fasttrack import FastTrack
from repro.detectors import AsyncFinishDetector, DJITPlus
from repro.detectors.classifier import (
    LOCK_PROTECTED,
    RACY,
    READ_SHARED,
    SYNCHRONIZED,
    THREAD_LOCAL,
    SharingClassifier,
)
from repro.bench.workload import WORKLOADS
from repro.trace import events as ev
from repro.trace.columnar import ColumnarTrace
from repro.trace.generators import traces

from tests.reference_classifier import ReferenceClassifier


def classify(events):
    tool = SharingClassifier().process(list(events))
    return tool.classify()


class TestClasses:
    def test_thread_local(self):
        classes = classify([ev.wr(0, "x"), ev.rd(0, "x"), ev.wr(0, "x")])
        assert classes == {"x": THREAD_LOCAL}

    def test_lock_protected(self):
        classes = classify(
            [
                ev.acq(0, "m"),
                ev.wr(0, "x"),
                ev.rel(0, "m"),
                ev.acq(1, "m"),
                ev.wr(1, "x"),
                ev.rel(1, "m"),
            ]
        )
        assert classes["x"] == LOCK_PROTECTED

    def test_read_shared(self):
        classes = classify(
            [
                ev.wr(0, "x"),
                ev.fork(0, 1),
                ev.fork(0, 2),
                ev.rd(1, "x"),
                ev.rd(2, "x"),
                ev.rd(0, "x"),
            ]
        )
        assert classes["x"] == READ_SHARED

    def test_synchronized(self):
        # Shared, written by both threads, race-free via join, no lock.
        classes = classify(
            [
                ev.fork(0, 1),
                ev.wr(1, "x"),
                ev.rd(1, "x"),
                ev.join(0, 1),
                ev.rd(0, "x"),
                ev.wr(0, "x"),
            ]
        )
        assert classes["x"] == SYNCHRONIZED

    def test_racy(self):
        classes = classify([ev.fork(0, 1), ev.wr(0, "x"), ev.wr(1, "x")])
        assert classes["x"] == RACY

    def test_write_after_share_demotes_read_shared(self):
        classes = classify(
            [
                ev.wr(0, "x"),
                ev.fork(0, 1),
                ev.rd(1, "x"),
                ev.join(0, 1),
                ev.wr(0, "x"),  # initialize-share-reinitialize
            ]
        )
        assert classes["x"] == SYNCHRONIZED


class TestFractions:
    def test_fractions_sum_to_one(self):
        tool = SharingClassifier().process(
            list(WORKLOADS["mtrt"].trace(scale=200))
        )
        by_accesses = tool.fractions()
        by_variables = tool.fractions(by_accesses=False)
        assert abs(sum(by_accesses.values()) - 1.0) < 1e-9
        assert abs(sum(by_variables.values()) - 1.0) < 1e-9

    def test_paper_insight_holds_on_the_workloads(self):
        """Section 1: the vast majority of data is thread-local,
        lock-protected, or read-shared."""
        for name in ("crypt", "montecarlo", "sparse", "mtrt", "colt"):
            tool = SharingClassifier().process(
                list(WORKLOADS[name].trace(scale=200))
            )
            fractions = tool.fractions()
            common = (
                fractions[THREAD_LOCAL]
                + fractions[LOCK_PROTECTED]
                + fractions[READ_SHARED]
            )
            assert common > 0.9, (name, fractions)

    def test_race_verdict_matches_fasttrack(self):
        trace = list(WORKLOADS["tsp"].trace(scale=150))
        tool = SharingClassifier().process(trace)
        racy_vars = {
            key for key, cls in tool.classify().items() if cls == RACY
        }
        from repro.core.fasttrack import FastTrack

        plain = FastTrack().process(trace)
        assert racy_vars == plain._warned_keys


# -- the one-pass classifier against the per-event reference ---------------


def _objects_and_sites(trace):
    """Rename each variable ``x<i>`` to the array element ``("obj", i % 2,
    i)`` (so coarse granularity merges elements of one object) and give
    accesses rotating source sites; syncs keep their targets."""
    out = []
    for index, event in enumerate(trace):
        if event.kind in (ev.READ, ev.WRITE):
            number = int(event.target[1:])
            event = ev.Event(
                event.kind, event.tid, ("obj", number % 2, number),
                f"site{index % 3}",
            )
        out.append(event)
    return out


def _access_counts(classifier):
    return {key: p.accesses for key, p in classifier.profiles.items()}


@settings(max_examples=150, deadline=None)
@given(traces())
def test_matches_the_per_event_reference(trace):
    """Locks, fork/join, barriers and volatiles (``traces()`` mixes them
    all), at both granularities, from events and from columns."""
    events = _objects_and_sites(trace)
    for shadow_key in (fine_grain, coarse_grain):
        reference = ReferenceClassifier(shadow_key=shadow_key).process(events)
        expected = reference.classify()
        counts = _access_counts(reference)
        for source in (events, ColumnarTrace.from_events(events)):
            tool = SharingClassifier(shadow_key=shadow_key).process(source)
            assert tool.classify() == expected
            assert _access_counts(tool) == counts


def test_one_shot_iterables_are_kept_for_the_verdict():
    events = [ev.fork(0, 1), ev.wr(0, "x"), ev.wr(1, "x"), ev.rd(1, "y")]
    tool = SharingClassifier().process(iter(events))
    assert tool.classify() == {"x": RACY, "y": THREAD_LOCAL}


@settings(max_examples=60, deadline=None)
@given(traces())
def test_adopted_verdict_equals_the_computed_one(trace):
    events = _objects_and_sites(trace)
    computed = SharingClassifier().process(events).classify()
    for track_sites in (True, False):
        detector = FastTrack(track_sites=track_sites).process(events)
        tool = SharingClassifier().process(events)
        assert tool.adopt(detector)
        assert tool.classify() == computed


@pytest.mark.parametrize(
    "make",
    [
        lambda: FastTrack(demote_on_shared_write=False),
        lambda: FastTrack(enable_fast_paths=False),
        lambda: FastTrack(shared_same_epoch=True),
        lambda: FastTrack(shadow_key=coarse_grain),
        AsyncFinishDetector,
        DJITPlus,
    ],
    ids=[
        "no-demotion", "no-fast-paths", "shared-same-epoch",
        "coarse-grain", "AsyncFinish", "DJIT+",
    ],
)
def test_verdicts_that_may_differ_are_not_adopted(make):
    events = [ev.fork(0, 1), ev.wr(0, "x"), ev.wr(1, "x")]
    detector = make().process(events)
    tool = SharingClassifier().process(events)
    assert not tool.adopt(detector)
    assert tool.classify() == {"x": RACY}


def test_a_detector_that_saw_another_trace_is_not_adopted():
    events = [ev.fork(0, 1), ev.wr(0, "x"), ev.wr(1, "x")]
    detector = FastTrack().process(events[:2])
    tool = SharingClassifier().process(events)
    assert not tool.adopt(detector)
    assert tool.classify() == {"x": RACY}
