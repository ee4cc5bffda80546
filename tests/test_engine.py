"""Unit tests for the engine's partitioner, checkpoints, resume, and merge."""

import json
import os
import random

import pytest

from repro import engine
from repro.detectors import make_detector
from repro.detectors.classifier import SharingClassifier
from repro.engine.checkpoint import CheckpointError, Workdir
from repro.engine.merge import merge_stats, render_markdown
from repro.engine.partition import iter_shard, partition_events, shard_of
from repro.engine.worker import run_shard
from repro.trace import events as ev
from repro.trace.generators import GeneratorConfig, random_feasible_trace
from repro.trace.trace import Trace


def _racy_trace(seed=5, max_events=600):
    return random_feasible_trace(
        random.Random(seed),
        GeneratorConfig(
            max_events=max_events,
            max_threads=5,
            n_vars=14,
            n_locks=3,
            discipline=0.35,
            p_fork=0.1,
            p_volatile=0.06,
        ),
    )


class TestPartition:
    def test_shard_of_is_deterministic_and_in_range(self):
        targets = ["x", "y0", 42, ("grid", 2, 7), ("acc", "w")]
        for nshards in (1, 2, 4, 7):
            for target in targets:
                shard = shard_of(target, nshards)
                assert 0 <= shard < nshards
                assert shard == shard_of(target, nshards)

    def test_sync_broadcast_and_access_routing(self, tmp_path):
        trace = _racy_trace()
        nshards = 4
        wd = Workdir(str(tmp_path))
        meta = partition_events(iter(trace.events), wd, nshards)
        assert meta["events"] == len(trace)

        access_seen = {}
        for shard in range(nshards):
            previous = -1
            sync_indices = []
            for index, event in iter_shard(wd, shard):
                assert index > previous  # per-shard order preserved
                previous = index
                assert trace.events[index] == event
                if event.kind in (ev.READ, ev.WRITE):
                    # Routed: exactly one shard, the hashed one.
                    assert shard == shard_of(event.target, nshards)
                    assert index not in access_seen
                    access_seen[index] = shard
                else:
                    sync_indices.append(index)
            # Broadcast: every shard sees the complete sync order.
            assert sync_indices == [
                i
                for i, e in enumerate(trace.events)
                if e.kind not in (ev.READ, ev.WRITE)
            ]
        assert len(access_seen) == meta["reads"] + meta["writes"]

    def test_rejects_zero_shards(self, tmp_path):
        with pytest.raises(ValueError):
            partition_events(iter([]), Workdir(str(tmp_path)), 0)


class TestCheckpoint:
    def test_meta_round_trip_and_version_gate(self, tmp_path):
        wd = Workdir(str(tmp_path))
        assert wd.read_meta() is None
        wd.write_meta({"nshards": 3, "events": 10})
        meta = wd.read_meta()
        assert meta["nshards"] == 3
        # A future incompatible format is treated as "no partition here".
        with open(wd.meta_path, "w", encoding="utf-8") as stream:
            json.dump({"nshards": 3, "format_version": 999}, stream)
        assert wd.read_meta() is None

    def test_validate_meta_rejects_geometry_mismatch(self, tmp_path):
        wd = Workdir(str(tmp_path))
        partition_events(iter(_racy_trace(max_events=50).events), wd, 2)
        meta = wd.read_meta()
        with pytest.raises(CheckpointError):
            wd.validate_meta(meta, 8)
        wd.validate_meta(meta, 2)  # matching geometry passes
        wd.validate_meta(meta, None)  # unspecified inherits the partition's

    def test_validate_meta_rejects_missing_shard_file(self, tmp_path):
        wd = Workdir(str(tmp_path))
        partition_events(iter(_racy_trace(max_events=50).events), wd, 2)
        os.unlink(wd.shard_path(1))
        with pytest.raises(CheckpointError):
            wd.validate_meta(wd.read_meta(), None)

    def test_results_are_per_tool(self, tmp_path):
        wd = Workdir(str(tmp_path))
        wd.write_result("FastTrack", 0, {"shard": 0})
        wd.write_result("DJIT+", 1, {"shard": 1})
        assert wd.completed_shards("FastTrack", 4) == [0]
        assert wd.completed_shards("DJIT+", 4) == [1]
        wd.clear_results("FastTrack", 4)
        assert wd.completed_shards("FastTrack", 4) == []
        assert wd.completed_shards("DJIT+", 4) == [1]

    def test_clear_results_removes_out_of_range_checkpoints(self, tmp_path):
        """Re-partitioning into fewer shards must not leave high-index
        checkpoints behind for a later resume to trust."""
        wd = Workdir(str(tmp_path))
        for shard in range(6):
            wd.write_result("FastTrack", shard, {"shard": shard})
        wd.clear_results("FastTrack", 2)
        assert wd.result_files() == []

    def test_ensure_resumable_layout_rejects_orphaned_results(self, tmp_path):
        wd = Workdir(str(tmp_path))
        wd.write_result("FastTrack", 0, {"shard": 0})
        with pytest.raises(CheckpointError, match="no valid partition"):
            wd.ensure_resumable_layout(None)
        wd.ensure_resumable_layout({"nshards": 2})  # meta present: fine


class TestResume:
    def test_resume_skips_completed_shards(self, tmp_path):
        """Complete two shards, then *corrupt their shard files*: a resumed
        run can only succeed by trusting the checkpoints instead of
        re-analyzing — which is exactly the contract.  (The garbage keeps
        each file's size: a file of the wrong size is refused up front.)"""
        trace = _racy_trace()
        single = make_detector("FastTrack").process(trace)
        root = str(tmp_path)
        wd = Workdir(root)
        partition_events(iter(trace.events), wd, 4)
        run_shard(root, 0, "FastTrack")
        run_shard(root, 1, "FastTrack")
        for shard in (0, 1):
            path = wd.shard_path(shard)
            size = os.path.getsize(path)
            with open(path, "wb") as stream:
                stream.write(b"\x7f" * size)  # re-analysis would crash
        report = engine.check_events(
            trace.events,
            tool="FastTrack",
            workdir=root,
            resume=True,
        )
        assert report.warnings == single.warnings
        assert report.suppressed_warnings == single.suppressed_warnings

    def test_fresh_run_clears_stale_results(self, tmp_path):
        trace = _racy_trace(max_events=150)
        root = str(tmp_path)
        wd = Workdir(root)
        wd.write_result("FastTrack", 0, {"shard": 0, "tool": "FastTrack",
                                         "warnings": [], "suppressed": 0,
                                         "stats": {}, "events": 0})
        single = make_detector("FastTrack").process(trace)
        report = engine.check_events(
            trace.events, tool="FastTrack", nshards=2, workdir=root
        )
        assert report.warnings == single.warnings

    def test_resume_rejects_different_shard_count(self, tmp_path):
        """Satellite guard: ``--resume DIR --shards M`` with an M that
        differs from the partition on disk must fail fast, not silently
        mix layouts."""
        trace = _racy_trace(max_events=100)
        root = str(tmp_path)
        engine.check_events(trace.events, tool="FastTrack", nshards=2,
                            workdir=root, resume=True)
        with pytest.raises(CheckpointError):
            engine.check_events(trace.events, tool="FastTrack", nshards=5,
                                workdir=root, resume=True)

    def test_resume_with_results_but_corrupt_meta_fails_fast(self, tmp_path):
        trace = _racy_trace(max_events=100)
        root = str(tmp_path)
        wd = Workdir(root)
        engine.check_events(trace.events, tool="FastTrack", nshards=2,
                            workdir=root, resume=True)
        with open(wd.meta_path, "w", encoding="utf-8") as stream:
            stream.write("{not json")
        with pytest.raises(CheckpointError, match="mix shard layouts"):
            engine.check_events(trace.events, tool="FastTrack", nshards=2,
                                workdir=root, resume=True)

    def test_resume_on_empty_dir_partitions_first(self, tmp_path):
        trace = _racy_trace(max_events=200)
        single = make_detector("FastTrack").process(trace)
        report = engine.check_events(
            trace.events,
            tool="FastTrack",
            nshards=3,
            workdir=str(tmp_path),
            resume=True,
        )
        assert report.warnings == single.warnings
        assert Workdir(str(tmp_path)).read_meta()["nshards"] == 3


class TestMerge:
    def test_merged_stats_event_mix_is_trace_accurate(self):
        trace = _racy_trace()
        single = make_detector("DJIT+").process(trace)
        report = engine.check_events(trace.events, tool="DJIT+", nshards=4)
        assert report.stats.events == single.stats.events == len(trace)
        assert report.stats.reads == single.stats.reads
        assert report.stats.writes == single.stats.writes
        assert report.stats.syncs == single.stats.syncs
        assert report.stats.boundaries == single.stats.boundaries
        # Work counters are summed: sync-side VC work happens once per
        # shard, so the merged total is at least the single-threaded one.
        assert report.stats.vc_ops >= single.stats.vc_ops

    def test_merge_stats_empty(self):
        assert merge_stats([]).events == 0

    def test_classifier_counts_merge_to_single_threaded_fractions(self):
        trace = _racy_trace()
        classifier = SharingClassifier()
        classifier.process(trace)
        expected = classifier.fractions()
        report = engine.check_events(
            trace.events, tool="FastTrack", nshards=4, classify=True
        )
        fractions = report.classifier_fractions()
        assert fractions is not None
        for cls, fraction in expected.items():
            assert fractions[cls] == pytest.approx(fraction)
        assert sum(report.classifier_variable_counts.values()) == len(
            classifier.profiles
        )

    def test_render_markdown_mentions_warnings_and_shards(self):
        trace = _racy_trace()
        report = engine.check_events(trace.events, tool="FastTrack", nshards=2)
        text = render_markdown(report)
        assert "Engine report — FastTrack × 2 shard(s)" in text
        assert "## Shard balance" in text
        if report.warning_count:
            assert str(report.warnings[0].var) in text


class TestStreamingSource:
    def test_check_trace_file_streams_text_and_jsonl(self, tmp_path):
        from repro.trace import serialize

        trace = _racy_trace(max_events=300)
        single = make_detector("FastTrack").process(trace)
        text_path = tmp_path / "t.trace"
        text_path.write_text(serialize.dumps(trace))
        jsonl_path = tmp_path / "t.jsonl"
        jsonl_path.write_text(serialize.dumps_jsonl(trace))
        for path, fmt in ((text_path, "text"), (jsonl_path, "jsonl")):
            report = engine.check_trace_file(
                str(path), tool="FastTrack", fmt=fmt, nshards=3
            )
            assert report.warnings == single.warnings

    def test_barrier_and_tuple_targets_round_trip_through_shards(self):
        trace = Trace(
            [
                ev.wr(0, ("grid", 1, 2), site="g.wr"),
                ev.fork(0, 1),
                ev.barrier_rel((0, 1)),
                ev.wr(1, ("grid", 1, 2), site="g.wr2"),
                ev.rd(0, ("grid", 1, 2)),
            ]
        )
        single = make_detector("FastTrack", track_sites=True).process(trace)
        report = engine.check_events(
            trace.events,
            tool="FastTrack",
            nshards=2,
            tool_kwargs={"track_sites": True},
        )
        assert report.warnings == single.warnings
        if report.warnings:
            assert isinstance(report.warnings[0].var, tuple)
