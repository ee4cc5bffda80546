"""The streaming live monitor (``repro watch`` / ``repro.watch``).

The load-bearing property is the **differential gate**: over a completed
trace, the warning objects streamed by :class:`WatchMonitor` (and by the
``repro watch`` CLI) must be byte-identical, in order, to the
``warnings`` array of ``repro check --json``, for every tool over every
row of the conformance matrix (tests/conformance.py, the ``watch`` and
``watch-compact`` cells); the gate tests below name some of them.  The
rest covers the tail reader (partial writes, follow mode, idle timeout),
live incremental delivery (first warning before EOF), compaction,
metrics, and CLI exit codes.
"""

import io
import json
import threading
import time

import pytest

from repro.cli import main
from repro.detectors import default_tool_kwargs, make_detector
from repro.obs.metrics import MetricsRegistry
from repro.trace import events as ev
from repro.trace.generators import async_pipeline_trace, task_pool_trace
from repro.trace.serialize import dumps, dumps_jsonl
from repro.trace.trace import Trace
from repro.watch import (
    WARNING_SCHEMA,
    WATCH_EVENTS_COUNTER,
    WATCH_LAG_GAUGE,
    WATCH_WARNINGS_COUNTER,
    TailReader,
    WatchMonitor,
)
from tests.conformance import GOLDEN

GATE_TOOLS = ("FastTrack", "WCP", "AsyncFinish")

RACY = Trace([ev.wr(0, "x"), ev.fork(0, 1), ev.wr(1, "x"), ev.wr(0, "x")])


class TestDifferentialGate:
    """The conformance matrix's ``watch`` and ``watch-compact`` cells."""

    @pytest.mark.parametrize("tool", GATE_TOOLS)
    @pytest.mark.parametrize("name", GOLDEN)
    def test_streamed_warnings_equal_batch_check(self, matrix, name, tool):
        matrix.check([name], ["watch"], [tool])

    @pytest.mark.parametrize("tool", GATE_TOOLS)
    @pytest.mark.parametrize("name", GOLDEN)
    def test_compaction_does_not_change_the_stream(self, matrix, name, tool):
        matrix.check([name], ["watch-compact"], [tool])

    def test_cli_watch_matches_cli_check_json(self, matrix):
        matrix.check(["pool-racy-1"], ["watch"], ["AsyncFinish"])


class TestWatchMonitor:
    def test_warning_fires_on_the_completing_event(self):
        monitor = WatchMonitor("FastTrack", registry=MetricsRegistry())
        assert monitor.feed(ev.wr(0, "x")) == []
        assert monitor.feed(ev.fork(0, 1)) == []
        assert monitor.feed(ev.wr(1, "x")) == []
        records = monitor.feed(ev.wr(0, "x"))
        assert len(records) == 1
        record = json.loads(records[0])
        assert record["warning"]["var"] == "x"
        assert record["warning"]["kind"] == "write-write"

    def test_alias_and_summary(self):
        monitor = WatchMonitor("async", registry=MetricsRegistry())
        assert monitor.tool == "AsyncFinish"
        list(monitor.drain(iter(task_pool_trace(racy=True, seed=0))))
        summary = monitor.finish()
        assert summary["tool"] == "AsyncFinish"
        assert summary["events"] == len(task_pool_trace(racy=True, seed=0))
        assert summary["warnings"] == 1

    def test_compaction_counters(self):
        monitor = WatchMonitor(
            "AsyncFinish", compact_every=4, registry=MetricsRegistry()
        )
        trace = task_pool_trace(tasks=6, racy=True, seed=0)
        list(monitor.drain(iter(trace)))
        assert monitor.compactions == len(trace) // 4
        assert monitor.released >= 1

    def test_metrics(self):
        registry = MetricsRegistry()
        clock = iter(float(i) for i in range(10_000))
        monitor = WatchMonitor(
            "FastTrack", registry=registry, clock=lambda: next(clock)
        )
        trace = RACY
        for event in trace:
            monitor.feed(event, arrival=0.0)
        monitor.finish()
        events = registry.counter(WATCH_EVENTS_COUNTER, "").value(
            tool="FastTrack"
        )
        warnings = registry.counter(WATCH_WARNINGS_COUNTER, "").value(
            tool="FastTrack"
        )
        lag = registry.gauge(WATCH_LAG_GAUGE, "").value(tool="FastTrack")
        assert events == len(trace)
        assert warnings == 1
        assert lag > 0.0  # fake clock marches on while arrival stays 0


class TestTailReader:
    def test_reads_complete_lines_with_terminators(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("one\ntwo\n")
        assert list(TailReader(str(path)).lines()) == ["one\n", "two\n"]

    def test_unterminated_tail_is_yielded_last(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("one\ntw")
        assert list(TailReader(str(path)).lines()) == ["one\n", "tw"]

    def test_from_start_false_skips_existing_content(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("old\n")
        reader = TailReader(str(path), from_start=False)
        assert list(reader.lines()) == []

    def test_follow_waits_for_growth_then_idle_times_out(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("first\n")
        clock_now = [0.0]
        writes = iter([b"second\nthi", b"rd\n"])

        def fake_sleep(_seconds):
            clock_now[0] += 1.0
            chunk = next(writes, None)
            if chunk is not None:
                with open(path, "ab") as handle:
                    handle.write(chunk)

        reader = TailReader(
            str(path),
            follow=True,
            idle_timeout=5.0,
            clock=lambda: clock_now[0],
            sleep=fake_sleep,
        )
        assert list(reader.lines()) == ["first\n", "second\n", "third\n"]

    def test_torn_multibyte_character_decodes_leniently(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"ok\n" + "é".encode("utf-8")[:1])
        lines = list(TailReader(str(path)).lines())
        assert lines[0] == "ok\n"
        assert lines[1] == "�"

    def test_last_read_at_tracks_reads(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("line\n")
        ticks = iter(float(i) for i in range(100))
        reader = TailReader(str(path), clock=lambda: next(ticks))
        list(reader.lines())
        assert reader.last_read_at > 0.0
        assert reader.bytes_read == 5


class TestLiveStreaming:
    def test_first_warning_arrives_before_eof(self, tmp_path):
        """The point of watch: with a producer still appending, the racy
        prefix alone must already have produced a streamed warning."""
        path = tmp_path / "live.jsonl"
        trace = task_pool_trace(tasks=3, racy=True, seed=0)
        lines = dumps_jsonl(trace).splitlines(keepends=True)
        racy_detector = make_detector(
            "AsyncFinish", **default_tool_kwargs("AsyncFinish")
        )
        racy_detector.process(trace)
        first_warning_index = racy_detector.warnings[0].event_index
        got_warning = threading.Event()
        done = threading.Event()

        def produce():
            with open(path, "w") as handle:
                for index, line in enumerate(lines):
                    if index == first_warning_index + 1:
                        # Stall at the point right after the race fires:
                        # the consumer must warn *now*, long before EOF.
                        handle.flush()
                        assert got_warning.wait(timeout=10.0)
                    handle.write(line)
                handle.flush()
            done.set()

        path.write_text("")
        producer = threading.Thread(target=produce)
        producer.start()
        try:
            # idle_timeout bounds the run: the reader stops shortly after
            # the producer finishes (drain only yields on warnings, so
            # the loop cannot be exited from inside).
            reader = TailReader(
                str(path),
                follow=True,
                poll_interval=0.005,
                idle_timeout=1.0,
            )
            monitor = WatchMonitor("AsyncFinish", registry=MetricsRegistry())
            from repro.trace.serialize import iter_parse_jsonl

            records = []
            for record in monitor.drain(iter_parse_jsonl(reader.lines())):
                records.append(json.loads(record))
                if not got_warning.is_set():
                    assert not done.is_set()  # streamed before EOF
                    got_warning.set()
        finally:
            got_warning.set()
            producer.join(timeout=10.0)
        assert done.is_set()
        assert monitor.events_seen == len(trace)
        assert records
        assert records[0]["warning"]["var"] == "counter"

    def test_partial_write_is_completed_not_dropped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace = RACY
        lines = dumps_jsonl(trace).splitlines(keepends=True)
        # First event written in two torn halves.
        path.write_text(lines[0][:7])
        reads = [0]

        def fake_sleep(_seconds):
            reads[0] += 1
            with open(path, "a") as handle:
                if reads[0] == 1:
                    handle.write(lines[0][7:])
                else:
                    handle.writelines(lines[1:])

        reader = TailReader(str(path), follow=True, sleep=fake_sleep)
        from repro.trace.serialize import iter_parse_jsonl

        monitor = WatchMonitor("FastTrack", registry=MetricsRegistry())
        records = []
        for record in monitor.drain(iter_parse_jsonl(reader.lines())):
            records.append(json.loads(record))
            break  # stop after the first warning; reader would follow on
        assert records[0]["warning"]["var"] == "x"
        assert monitor.events_seen == len(trace)


class TestCli:
    def _write(self, tmp_path, trace, name="t.jsonl"):
        path = tmp_path / name
        path.write_text(dumps_jsonl(trace))
        return str(path)

    def test_exit_one_on_warnings(self, tmp_path, capsys):
        assert main(["watch", self._write(tmp_path, RACY)]) == 1
        captured = capsys.readouterr()
        record = json.loads(captured.out.splitlines()[0])
        assert record["schema"] == WARNING_SCHEMA
        assert "1 warning(s)" in captured.err

    def test_exit_zero_on_clean_trace(self, tmp_path, capsys):
        trace = task_pool_trace(racy=False, seed=0)
        path = self._write(tmp_path, trace)
        assert main(["watch", path, "--tool", "async"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"watched {len(trace)} event(s): 0 warning(s)" in captured.err

    def test_exit_two_on_missing_file(self, tmp_path, capsys):
        assert main(["watch", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such file" in capsys.readouterr().err.lower()

    def test_exit_two_on_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"bogus": true}\n')
        assert main(["watch", str(path)]) == 2

    def test_tolerates_unterminated_final_line(self, tmp_path, capsys):
        text = dumps_jsonl(RACY)
        half = dumps_jsonl(Trace([ev.rd(0, "y")])).rstrip("\n")
        path = tmp_path / "torn.jsonl"
        path.write_text(text + half[: len(half) // 2])
        assert main(["watch", str(path)]) == 1
        assert f"watched {len(RACY)} event(s)" in capsys.readouterr().err

    def test_stdin_source(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(dumps_jsonl(RACY))
        )
        assert main(["watch", "-"]) == 1
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert record["warning"]["var"] == "x"

    def test_text_format_and_compact_every(self, tmp_path, capsys):
        path = tmp_path / "pool.trace"
        path.write_text(dumps(task_pool_trace(tasks=5, racy=True, seed=2)))
        code = main(
            [
                "watch",
                str(path),
                "--format",
                "text",
                "--tool",
                "AsyncFinish",
                "--compact-every",
                "6",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "compaction(s)" in captured.err
        record = json.loads(captured.out.splitlines()[0])
        assert record["warning"]["var"] == "counter"

    def test_follow_mode_with_idle_timeout(self, tmp_path, capsys):
        path = self._write(tmp_path, RACY)
        code = main(
            [
                "watch",
                path,
                "--follow",
                "--from-start",
                "--idle-timeout",
                "0.05",
                "--poll-interval",
                "0.01",
            ]
        )
        assert code == 1
        assert "1 warning(s)" in capsys.readouterr().err
