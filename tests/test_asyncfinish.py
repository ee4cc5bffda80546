"""The async-finish detector: task-parallel vector-clock race detection.

``AsyncFinish`` extends FastTrack with the task vocabulary from
PAPERS.md's async-finish work: ``task_spawn``/``task_await`` mirror the
fork/join rules, and a ``finish`` scope transitively joins every task
spawned under it (directly or by descendants) at ``finish_end``.  These
tests pin the semantics against hand-built traces, the HB oracle over
the seeded model programs, the golden async corpus (its own manifest —
task-unaware tools legitimately over-report there), and the sharded
engine at 1/2/4 shards.
"""

import json
from pathlib import Path

import pytest

from repro.detectors import (
    default_tool_kwargs,
    make_detector,
    resolve_tool_name,
)
from repro.trace import events as ev
from repro.trace.feasibility import check_feasible
from repro.trace.generators import async_pipeline_trace, task_pool_trace
from repro.trace.happens_before import racy_variables
from repro.trace.serialize import loads
from repro.trace.trace import Trace

DATA = Path(__file__).parent / "data"
ASYNC_MANIFEST = json.loads((DATA / "async_manifest.json").read_text())
ASYNC_TOOLS = ("FastTrack", "WCP", "AsyncFinish")


def _detector(**overrides):
    kwargs = dict(default_tool_kwargs("AsyncFinish"))
    kwargs.update(overrides)
    return make_detector("AsyncFinish", **kwargs)


def _vars(detector):
    return {w.var for w in detector.warnings}


def load_trace(name):
    return loads((DATA / f"{name}.trace").read_text())


class TestSemantics:
    def test_spawn_orders_parent_before_child(self):
        trace = Trace(
            [
                ev.wr(0, "x"),
                ev.task_spawn(0, 1),
                ev.rd(1, "x"),
            ]
        )
        assert _vars(_detector().process(trace)) == set()

    def test_unordered_sibling_tasks_race(self):
        trace = Trace(
            [
                ev.finish_begin(0, "f"),
                ev.task_spawn(0, 1),
                ev.task_spawn(0, 2),
                ev.wr(1, "x"),
                ev.wr(2, "x"),
                ev.finish_end(0, "f"),
            ]
        )
        detector = _detector().process(trace)
        assert _vars(detector) == {"x"}
        assert detector.warnings[0].kind == "write-write"

    def test_await_orders_child_before_parent(self):
        trace = Trace(
            [
                ev.task_spawn(0, 1),
                ev.wr(1, "x"),
                ev.task_await(0, 1),
                ev.rd(0, "x"),
            ]
        )
        assert _vars(_detector().process(trace)) == set()

    def test_read_before_await_races(self):
        trace = Trace(
            [
                ev.task_spawn(0, 1),
                ev.wr(1, "x"),
                ev.rd(0, "x"),
                ev.task_await(0, 1),
            ]
        )
        assert _vars(_detector().process(trace)) == {"x"}

    def test_finish_end_joins_direct_children(self):
        trace = Trace(
            [
                ev.finish_begin(0, "f"),
                ev.task_spawn(0, 1),
                ev.wr(1, "x"),
                ev.finish_end(0, "f"),
                ev.rd(0, "x"),
            ]
        )
        assert _vars(_detector().process(trace)) == set()

    def test_finish_end_joins_transitively_spawned_tasks(self):
        # Task 1 spawns task 2 inside finish(f): the scope is inherited,
        # so finish_end must wait for the grandchild's write too.
        trace = Trace(
            [
                ev.finish_begin(0, "f"),
                ev.task_spawn(0, 1),
                ev.task_spawn(1, 2),
                ev.wr(2, "x"),
                ev.finish_end(0, "f"),
                ev.rd(0, "x"),
            ]
        )
        assert _vars(_detector().process(trace)) == set()

    def test_nested_finish_scopes(self):
        # The inner scope joins task 2; the outer joins task 1.  Reads
        # after each finish_end are ordered with the tasks it closed.
        trace = Trace(
            [
                ev.finish_begin(0, "outer"),
                ev.task_spawn(0, 1),
                ev.finish_begin(0, "inner"),
                ev.task_spawn(0, 2),
                ev.wr(2, "y"),
                ev.finish_end(0, "inner"),
                ev.rd(0, "y"),
                ev.wr(1, "x"),
                ev.finish_end(0, "outer"),
                ev.rd(0, "x"),
            ]
        )
        assert _vars(_detector().process(trace)) == set()

    def test_awaited_task_not_rejoined_at_finish_end(self):
        # An awaited task is already ordered; finish_end must not
        # resurrect its clock (which would be wrong if tids were reused,
        # and is wasted work otherwise).  Behaviourally: still race-free.
        trace = Trace(
            [
                ev.finish_begin(0, "f"),
                ev.task_spawn(0, 1),
                ev.wr(1, "x"),
                ev.task_await(0, 1),
                ev.rd(0, "x"),
                ev.finish_end(0, "f"),
            ]
        )
        detector = _detector().process(trace)
        assert _vars(detector) == set()
        assert 1 in detector._terminated

    def test_unmatched_finish_end_is_ignored(self):
        trace = Trace([ev.finish_end(0, "ghost"), ev.wr(0, "x")])
        assert _vars(_detector().process(trace)) == set()

    def test_plain_fasttrack_over_reports_on_task_traces(self):
        # The reason the async corpus has its own manifest: a task-unaware
        # precise tool sees no edge from finish_end back to the tasks.
        trace = Trace(
            [
                ev.finish_begin(0, "f"),
                ev.task_spawn(0, 1),
                ev.wr(1, "x"),
                ev.finish_end(0, "f"),
                ev.rd(0, "x"),
            ]
        )
        ft = make_detector("FastTrack").process(trace)
        assert _vars(ft) == {"x"}
        assert racy_variables(trace) == set()


class TestModelPrograms:
    @pytest.mark.parametrize("seed", range(6))
    def test_task_pool_seeded_race_is_exactly_the_counter(self, seed):
        trace = task_pool_trace(racy=True, seed=seed)
        assert check_feasible(trace) == []
        assert racy_variables(trace) == {"counter"}
        assert _vars(_detector().process(trace)) == {"counter"}

    @pytest.mark.parametrize("seed", range(6))
    def test_task_pool_race_free_variant_is_clean(self, seed):
        trace = task_pool_trace(racy=False, seed=seed)
        assert check_feasible(trace) == []
        assert racy_variables(trace) == set()
        assert _vars(_detector().process(trace)) == set()

    @pytest.mark.parametrize("seed", range(6))
    def test_pipeline_seeded_race_is_one_peek_per_stage(self, seed):
        trace = async_pipeline_trace(stages=3, racy=True, seed=seed)
        expected = {("buf", s, 0) for s in range(3)}
        assert check_feasible(trace) == []
        assert racy_variables(trace) == expected
        assert _vars(_detector().process(trace)) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_pipeline_race_free_variant_is_clean(self, seed):
        trace = async_pipeline_trace(stages=3, racy=False, seed=seed)
        assert check_feasible(trace) == []
        assert racy_variables(trace) == set()
        assert _vars(_detector().process(trace)) == set()


class TestGoldenCorpus:
    @pytest.mark.parametrize("name", sorted(ASYNC_MANIFEST))
    def test_trace_parses_and_is_feasible(self, name):
        trace = load_trace(name)
        assert len(trace) == ASYNC_MANIFEST[name]["events"]
        assert check_feasible(trace) == []

    @pytest.mark.parametrize("tool", ASYNC_TOOLS)
    @pytest.mark.parametrize("name", sorted(ASYNC_MANIFEST))
    def test_golden_verdicts(self, name, tool):
        trace = load_trace(name)
        detector = make_detector(tool, **default_tool_kwargs(tool))
        detector.process(trace)
        measured = sorted(str(w.var) for w in detector.warnings)
        assert measured == ASYNC_MANIFEST[name]["warnings"][tool], (
            name,
            tool,
        )

    @pytest.mark.parametrize("name", sorted(ASYNC_MANIFEST))
    def test_asyncfinish_matches_oracle(self, name):
        """The task-aware tool is the precise one on task traces: its
        warning set equals the HB ground truth, variable for variable."""
        trace = load_trace(name)
        detector = _detector().process(trace)
        oracle = racy_variables(trace)
        assert _vars(detector) == oracle


class TestSharding:
    @pytest.mark.parametrize("nshards", (1, 2, 4))
    def test_sharded_identical_to_single_threaded(self, matrix, nshards):
        matrix.check(
            ["pool-racy-3", "pool-safe-3", "pipeline-racy-5",
             "pipeline-safe-5"],
            ["object", "events", f"shards={nshards}"], ["AsyncFinish"],
        )


class TestCompaction:
    def test_compact_drops_terminated_tasks_and_warned_vars(self):
        trace = task_pool_trace(tasks=6, racy=True, seed=2)
        detector = _detector().process(trace)
        threads_before = len(detector.threads)
        released = detector.compact()
        assert released >= 1  # at least the warned counter's shadow state
        assert len(detector.threads) < threads_before
        assert detector._terminated == set()
        assert "counter" not in detector.vars

    def test_compaction_preserves_the_warning_stream(self):
        trace = task_pool_trace(tasks=6, items=3, racy=True, seed=4)
        baseline = _detector().process(trace)
        compacting = _detector()
        for index, event in enumerate(trace):
            compacting.handle(event)
            if index % 5 == 4:
                compacting.compact()
        assert compacting.warnings == baseline.warnings
        assert [str(w) for w in compacting.warnings] == [
            str(w) for w in baseline.warnings
        ]


class TestCli:
    @pytest.fixture
    def pool_file(self, tmp_path):
        from repro.trace.serialize import dumps

        path = tmp_path / "pool.trace"
        path.write_text(dumps(task_pool_trace(racy=True, seed=0)))
        return str(path)

    def test_check_tool_async(self, pool_file, capsys):
        from repro.cli import main

        assert main(["check", pool_file, "--tool", "async"]) == 1
        out = capsys.readouterr().out
        assert "AsyncFinish" in out
        assert "'counter'" in out

    def test_profile_tool_async(self, pool_file, capsys):
        from repro.cli import main

        assert main(["profile", pool_file, "--tool", "async"]) == 0
        out = capsys.readouterr().out
        assert "AsyncFinish" in out
        assert "AF SPAWN" in out and "AF FINISH END" in out


class TestRegistryResolution:
    def test_async_alias(self):
        assert resolve_tool_name("async") == "AsyncFinish"
        assert resolve_tool_name("ASYNC") == "AsyncFinish"

    def test_canonical_names_case_insensitive(self):
        assert resolve_tool_name("asyncfinish") == "AsyncFinish"
        assert resolve_tool_name("fasttrack") == "FastTrack"
        assert resolve_tool_name("djit+") == "DJIT+"
        assert resolve_tool_name("  WCP  ") == "WCP"

    def test_unknown_name_passes_through_and_fails_listing_all(self):
        from repro.detectors import DETECTORS

        assert resolve_tool_name("TSan") == "TSan"
        with pytest.raises(ValueError) as excinfo:
            make_detector(resolve_tool_name("TSan"))
        for name in DETECTORS:
            assert name in str(excinfo.value)
