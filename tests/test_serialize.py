"""Round-trip and error tests for the trace serialization formats."""

import io
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.trace import events as ev
from repro.trace import serialize
from repro.trace.generators import traces
from repro.trace.serialize import (
    TraceParseError,
    dump,
    dumps,
    dumps_jsonl,
    format_event,
    format_target,
    iter_load,
    iter_load_jsonl,
    iter_parse,
    iter_parse_jsonl,
    load,
    load_jsonl,
    loads,
    loads_jsonl,
    parse_event,
    parse_target,
)
from repro.trace.trace import Trace

SAMPLE = Trace(
    [
        ev.wr(0, "x"),
        ev.fork(0, 1),
        ev.rd(1, ("grid", 2, 7), site="sor.rd_left"),
        ev.acq(1, "m"),
        ev.rel(1, ("wlock", 3)),
        ev.vol_wr(0, "flag"),
        ev.vol_rd(1, "flag"),
        ev.barrier_rel((0, 1)),
        ev.enter(0, "sweep"),
        ev.exit_(0, "sweep"),
        ev.join(0, 1),
    ]
)


class TestTargets:
    def test_format_scalars_and_tuples(self):
        assert format_target("x") == "x"
        assert format_target(7) == "7"
        assert format_target(("grid", 2, 7)) == "grid[2][7]"
        assert format_target(("acc", "w")) == "acc[w]"

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("x", "x"),
            ("42", 42),
            ("grid[2][7]", ("grid", 2, 7)),
            ("acc[w]", ("acc", "w")),
            ("a[-1]", ("a", -1)),
        ],
    )
    def test_parse_targets(self, text, expected):
        assert parse_target(text) == expected

    def test_bad_targets_rejected(self):
        with pytest.raises(TraceParseError):
            parse_target("[3]")


class TestTextFormat:
    def test_format_matches_paper_syntax(self):
        assert format_event(ev.wr(0, "x")) == "wr(0, x)"
        assert format_event(ev.fork(0, 1)) == "fork(0, 1)"
        assert format_event(ev.barrier_rel((1, 0))) == "barrier_rel(0, 1)"
        assert (
            format_event(ev.rd(1, ("a", 3), site="s"))
            == "rd(1, a[3]) @ s"
        )

    def test_round_trip(self):
        assert loads(dumps(SAMPLE)) == SAMPLE

    def test_sites_survive_round_trip(self):
        trip = loads(dumps(SAMPLE))
        assert trip[2].site == "sor.rd_left"

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\nwr(0, x)\n  # indented comment\nrd(1, x)\n"
        assert loads(text) == Trace([ev.wr(0, "x"), ev.rd(1, "x")])

    def test_streams(self):
        buffer = io.StringIO()
        dump(SAMPLE, buffer)
        buffer.seek(0)
        assert load(buffer) == SAMPLE

    @pytest.mark.parametrize(
        "line",
        [
            "frobnicate(0, x)",
            "wr(zero, x)",
            "wr(0)",
            "rd 0 x",
            "fork(0, child)",
            "barrier_rel(a, b)",
        ],
    )
    def test_bad_lines_rejected(self, line):
        with pytest.raises(TraceParseError):
            parse_event(line)

    @settings(max_examples=50, deadline=None)
    @given(traces())
    def test_generated_traces_round_trip(self, trace):
        assert loads(dumps(trace)) == trace


class TestStreaming:
    """The engine's streaming entry points: iter_parse / iter_load."""

    def test_iter_parse_is_lazy(self):
        lines = iter(dumps(SAMPLE).splitlines())
        stream = iter_parse(lines)
        first = next(stream)
        assert first == SAMPLE[0]
        # The source has not been consumed past what was requested (+1 for
        # generator read-ahead is not a thing here: one line per event).
        assert list(stream) == list(SAMPLE)[1:]

    def test_iter_parse_skips_comments_and_blanks(self):
        text = "# header\n\nwr(0, x)\n  # indented\nrd(1, x)\n"
        assert list(iter_parse(text.splitlines())) == [
            ev.wr(0, "x"),
            ev.rd(1, "x"),
        ]

    def test_iter_load_from_open_stream(self):
        buffer = io.StringIO(dumps(SAMPLE))
        assert Trace(iter_load(buffer)) == SAMPLE

    def test_iter_load_jsonl_from_open_stream(self):
        buffer = io.StringIO(dumps_jsonl(SAMPLE))
        assert Trace(iter_load_jsonl(buffer)) == SAMPLE
        assert load_jsonl(io.StringIO(dumps_jsonl(SAMPLE))) == SAMPLE


class TestParseErrorLocation:
    """Satellite bugfix: file-level parse errors carry line number + text."""

    def test_loads_reports_line_number_and_text(self):
        text = "# comment\nwr(0, x)\n\nfrobnicate(1, y)\n"
        with pytest.raises(TraceParseError) as excinfo:
            loads(text)
        error = excinfo.value
        assert error.lineno == 4
        assert error.line == "frobnicate(1, y)"
        assert "line 4" in str(error)
        assert "frobnicate" in str(error)

    def test_load_stream_reports_line_number(self):
        with pytest.raises(TraceParseError) as excinfo:
            load(io.StringIO("wr(0, x)\nwr(zero, x)\n"))
        assert excinfo.value.lineno == 2

    def test_jsonl_invalid_json_reports_line_number(self):
        text = '{"op": "wr", "tid": 0, "target": "x"}\n{not json\n'
        with pytest.raises(TraceParseError) as excinfo:
            loads_jsonl(text)
        assert excinfo.value.lineno == 2
        assert "invalid JSON" in str(excinfo.value)

    def test_jsonl_unknown_op_reports_line_number(self):
        text = '{"op": "wr", "tid": 0, "target": "x"}\n' * 2
        text += '{"op": "nope", "tid": 0, "target": "x"}\n'
        with pytest.raises(TraceParseError) as excinfo:
            list(iter_parse_jsonl(text.splitlines()))
        assert excinfo.value.lineno == 3

    def test_token_level_errors_have_no_location(self):
        with pytest.raises(TraceParseError) as excinfo:
            parse_event("frobnicate(0, x)")
        assert excinfo.value.lineno is None
        assert excinfo.value.line is None


class TestLineSplitting:
    """``loads``/``loads_jsonl`` split lines where reading a file does:
    at ``\\n``, ``\\r\\n`` and ``\\r`` only, never at the other
    ``str.splitlines`` boundaries."""

    @staticmethod
    def _from_file(tmp_path, text, fmt):
        from repro.engine import read_columns

        path = tmp_path / "trace"
        path.write_bytes(text.encode("utf-8"))
        try:
            columns = read_columns(str(path), fmt)
        except TraceParseError as error:
            return str(error)
        return [(e.kind, e.tid, e.target, e.site) for e in columns]

    @staticmethod
    def _from_text(text, fmt):
        try:
            trace = (loads_jsonl if fmt == "jsonl" else loads)(text)
        except TraceParseError as error:
            return str(error)
        return [(e.kind, e.tid, e.target, e.site) for e in trace]

    @pytest.mark.parametrize("sep", ["\x0c", "\u2028"])
    def test_text_separator_is_not_a_line_break(self, tmp_path, sep):
        text = f"wr(0, x) @ a{sep}wr(1, x)\nwr(1, x)\n"
        result = self._from_text(text, "text")
        assert result == self._from_file(tmp_path, text, "text")
        assert result.startswith("line 1: unparseable line")

    @pytest.mark.parametrize("sep", ["\x0c", "\u2028"])
    def test_jsonl_separator_is_not_a_line_break(self, tmp_path, sep):
        text = (
            f'{{"op": "wr", "tid": 0, "target": "x", "site": "a{sep}b"}}\n'
            '{"op": "wr", "tid": 1, "target": "x"}\n'
        )
        result = self._from_text(text, "jsonl")
        assert result == self._from_file(tmp_path, text, "jsonl")
        if sep == "\u2028":  # legal inside a JSON string
            assert result[0] == (ev.WRITE, 0, "x", f"a{sep}b")
            assert len(result) == 2
        else:  # a raw control character is not
            assert result.startswith("line 1: invalid JSON")

    @pytest.mark.parametrize("fmt", ["text", "jsonl"])
    def test_carriage_returns_end_lines(self, tmp_path, fmt):
        lines = dumps_jsonl(SAMPLE) if fmt == "jsonl" else dumps(SAMPLE)
        text = lines.replace("\n", "\r", 2).replace("\n", "\r\n")
        result = self._from_text(text, fmt)
        assert result == self._from_file(tmp_path, text, fmt)
        assert len(result) == len(SAMPLE)

    def test_utf8_error_numbers_lines_as_text_mode_does(self, tmp_path):
        path = tmp_path / "rot.trace"
        path.write_bytes(b"wr(0, x)\r\nwr(0, x)\rwr(0, x)\n\xff\n")
        assert str(serialize.utf8_error_in(str(path))) == (
            "line 4: trace is not valid UTF-8 (invalid start byte at byte 28)"
        )
        path.write_bytes(b"wr(0, x)\n")
        assert serialize.utf8_error_in(str(path)) is None


class TestLineMemo:
    """``iter_parse_parts`` parses each distinct line once per call."""

    def test_repeated_malformed_line_reports_its_first_line(self):
        text = "wr(0, x)\nwr(0, x)\nwr(zero, x)\nwr(0, x)\nwr(zero, x)\n"
        with pytest.raises(TraceParseError) as excinfo:
            loads(text)
        assert excinfo.value.lineno == 3
        assert excinfo.value.line == "wr(zero, x)"

    @pytest.mark.parametrize(
        "path",
        sorted((Path(__file__).parent / "data").glob("*.trace")),
        ids=lambda path: path.name,
    )
    def test_tiny_memo_parses_golden_traces_like_parse_event(
        self, monkeypatch, path
    ):
        # A 2-line cap makes the memo start over constantly, so hits,
        # misses and resets all interleave.
        monkeypatch.setattr(serialize, "_MEMO_LINES", 2)
        lines = path.read_text(encoding="utf-8").splitlines()
        expected = [
            parse_event(line)
            for line in lines
            if line.strip() and not line.strip().startswith("#")
        ]

        def typed(events):
            # Compare reprs, so every element's type must match as well.
            return [
                (e.kind, e.tid, repr(e.target), repr(e.site)) for e in events
            ]

        assert typed(iter_parse(lines)) == typed(expected)

    def test_memo_keeps_target_types(self):
        events = list(iter_parse(["wr(0, x[1])", "rd(1, x[1])", "wr(0, x[1])"]))
        assert [e.target for e in events] == [("x", 1)] * 3
        assert all(type(e.target[1]) is int for e in events)


class TestJsonl:
    def test_round_trip(self):
        trip = loads_jsonl(dumps_jsonl(SAMPLE))
        assert trip == SAMPLE
        assert trip[2].site == "sor.rd_left"
        assert trip[2].target == ("grid", 2, 7)

    @settings(max_examples=50, deadline=None)
    @given(traces())
    def test_generated_traces_round_trip(self, trace):
        assert loads_jsonl(dumps_jsonl(trace)) == trace

    def test_unknown_op_rejected(self):
        with pytest.raises(TraceParseError):
            loads_jsonl('{"op": "nope", "tid": 0, "target": "x"}')

    def test_partially_written_trailing_line_is_tolerated(self):
        """Live-tail regression: a producer cut off mid-record leaves an
        unterminated, non-JSON final line — parsing must stop cleanly
        after the complete events instead of raising."""
        complete = dumps_jsonl(SAMPLE)
        torn = '{"op": "wr", "tid": 3, "tar'
        events = list(iter_parse_jsonl((complete + torn).splitlines(keepends=True)))
        assert len(events) == len(SAMPLE)
        assert loads_jsonl(complete + torn) == SAMPLE

    def test_terminated_garbage_final_line_still_raises(self):
        # Only a *missing newline* marks a line as in-flight; committed
        # garbage is corruption wherever it appears, end of file included.
        text = dumps_jsonl(SAMPLE) + '{"op": "wr", "tid": 3, "tar\n'
        with pytest.raises(TraceParseError) as excinfo:
            loads_jsonl(text)
        assert excinfo.value.lineno == len(SAMPLE) + 1

    def test_tolerance_does_not_delay_preceding_events(self):
        # The flag must come from the line itself, not lookahead: event N
        # has to parse before line N+1 exists (the live-monitor case).
        lines = dumps_jsonl(SAMPLE).splitlines(keepends=True)

        def one_then_hang():
            yield lines[0]
            raise RuntimeError("asked for a second line too early")

        stream = iter_parse_jsonl(one_then_hang())
        assert next(stream) == SAMPLE[0]
