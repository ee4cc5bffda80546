"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.cli import main
from repro.detectors import DETECTORS
from repro.detectors.classifier import SharingClassifier
from repro.trace import events as ev
from repro.trace import serialize
from repro.trace.columnar import ColumnarTrace
from repro.trace.serialize import dumps, dumps_jsonl, loads
from repro.trace.trace import Trace

DATA = Path(__file__).parent / "data"
MANIFEST = json.loads((DATA / "manifest.json").read_text())

RACY = Trace([ev.wr(0, "x"), ev.fork(0, 1), ev.wr(1, "x"), ev.wr(0, "x")])
CLEAN = Trace(
    [
        ev.acq(0, "m"),
        ev.wr(0, "x"),
        ev.rel(0, "m"),
        ev.acq(1, "m"),
        ev.rd(1, "x"),
        ev.rel(1, "m"),
    ]
)


def _golden(tmp_path, name, fmt):
    """The path of golden trace ``name`` in ``fmt`` (JSONL is converted)."""
    path = DATA / f"{name}.trace"
    if fmt == "text":
        return str(path)
    converted = tmp_path / f"{name}.jsonl"
    converted.write_text(dumps_jsonl(loads(path.read_text())))
    return str(converted)


@pytest.fixture
def racy_file(tmp_path):
    path = tmp_path / "racy.trace"
    path.write_text(dumps(RACY))
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.trace"
    path.write_text(dumps(CLEAN))
    return str(path)


class TestListing:
    def test_tools(self, capsys):
        assert main(["tools"]) == 0
        out = capsys.readouterr().out
        assert "FastTrack" in out and "Eraser" in out

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "tsp" in out and "hedc" in out


class TestCheck:
    def test_racy_trace_exits_nonzero(self, racy_file, capsys):
        assert main(["check", racy_file]) == 1
        out = capsys.readouterr().out
        assert "write-write race on 'x'" in out

    def test_clean_trace_exits_zero(self, clean_file, capsys):
        assert main(["check", clean_file]) == 0
        out = capsys.readouterr().out
        assert "0 warning(s)" in out

    def test_tool_selection(self, clean_file, capsys):
        # The lock-disciplined trace is clean for Eraser too.
        assert main(["check", clean_file, "--tool", "Eraser"]) == 0

    def test_all_tools(self, racy_file, capsys):
        assert main(["check", racy_file, "--all-tools"]) == 1
        out = capsys.readouterr().out
        for name in ("Empty", "Eraser", "Goldilocks", "DJIT+"):
            assert name in out

    def test_oracle_flag(self, racy_file, capsys):
        main(["check", racy_file, "--oracle"])
        out = capsys.readouterr().out
        assert "racy variables: x" in out

    def test_jsonl_format(self, tmp_path, capsys):
        path = tmp_path / "racy.jsonl"
        path.write_text(dumps_jsonl(RACY))
        assert main(["check", str(path), "--format", "jsonl"]) == 1

    def test_infeasible_trace_warns(self, tmp_path, capsys):
        path = tmp_path / "bad.trace"
        path.write_text("rel(0, m)\n")
        main(["check", str(path)])
        out = capsys.readouterr().out
        assert "not feasible" in out


class TestCheckSharded:
    """The ``--jobs`` / ``--shards`` / ``--resume`` engine path."""

    @pytest.mark.parametrize("fmt", ["text", "jsonl"])
    @pytest.mark.parametrize(
        "tools", [[], ["--all-tools"]], ids=["tool", "all-tools"]
    )
    @pytest.mark.parametrize("name", sorted(MANIFEST))
    def test_sharded_warnings_identical_to_in_process(
        self, name, tools, fmt, tmp_path, capsys
    ):
        argv = ["check", _golden(tmp_path, name, fmt), "--format", fmt, *tools]
        sharding = ["--jobs", "1", "--shards", "2"]
        code = main(argv)
        text = capsys.readouterr().out
        assert main([*argv, *sharding]) == code
        assert capsys.readouterr().out == text
        assert main([*argv, "--json"]) == code
        single = json.loads(capsys.readouterr().out)
        assert main([*argv, "--json", *sharding]) == code
        sharded = json.loads(capsys.readouterr().out)
        if not tools:
            single = {"results": {single["tool"]: single}}
            sharded = {"results": {sharded["tool"]: sharded}}
        assert set(single["results"]) == set(sharded["results"])
        # Cost stats are per-shard sums, so only the verdicts compare.
        for tool, document in single["results"].items():
            other = sharded["results"][tool]
            assert document["warnings"] == other["warnings"], tool
            assert document["classifier"] == other["classifier"], tool

    def test_sharded_clean_trace_exits_zero(self, clean_file):
        assert main(["check", clean_file, "--shards", "3"]) == 0

    def test_multiprocess_jobs(self, racy_file, capsys):
        assert main(["check", racy_file, "--jobs", "2"]) == 1
        assert "write-write race on 'x'" in capsys.readouterr().out

    def test_resume_reuses_partition_and_checkpoints(
        self, racy_file, tmp_path, capsys
    ):
        workdir = str(tmp_path / "work")
        assert main(["check", racy_file, "--shards", "2", "--resume", workdir]) == 1
        first = capsys.readouterr().out
        import os

        results = os.path.join(workdir, "results", "FastTrack")
        mtimes = {
            name: os.path.getmtime(os.path.join(results, name))
            for name in os.listdir(results)
        }
        assert main(["check", racy_file, "--resume", workdir]) == 1
        second = capsys.readouterr().out
        assert first == second
        for name, mtime in mtimes.items():
            assert os.path.getmtime(os.path.join(results, name)) == mtime

    def test_resume_shard_mismatch_is_an_error(self, racy_file, tmp_path, capsys):
        workdir = str(tmp_path / "work")
        assert main(["check", racy_file, "--shards", "2", "--resume", workdir]) == 1
        capsys.readouterr()
        assert main(["check", racy_file, "--shards", "5", "--resume", workdir]) == 2
        assert "partitioned into 2 shards" in capsys.readouterr().err

    def test_sharded_all_tools(self, racy_file, capsys):
        assert main(["check", racy_file, "--shards", "2", "--all-tools"]) == 1
        out = capsys.readouterr().out
        for name in ("Empty", "Eraser", "Goldilocks", "DJIT+"):
            assert name in out

    def test_sharded_oracle_rejected(self, racy_file, capsys):
        assert main(["check", racy_file, "--jobs", "2", "--oracle"]) == 2
        assert "--oracle" in capsys.readouterr().err

    def test_sharded_report(self, racy_file, tmp_path, capsys):
        report = tmp_path / "report.md"
        assert (
            main(["check", racy_file, "--shards", "2", "--report", str(report)])
            == 1
        )
        assert report.read_text().startswith("# Engine report")

    def test_sharded_html_report_by_extension(
        self, racy_file, tmp_path, capsys
    ):
        report = tmp_path / "report.html"
        assert (
            main(["check", racy_file, "--shards", "2", "--report", str(report)])
            == 1
        )
        text = report.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "<h1>Engine report" in text

    def test_parse_error_shows_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.trace"
        path.write_text("wr(0, x)\nfrobnicate(1, y)\n")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "frobnicate" in err
        assert main(["check", str(path), "--shards", "2"]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err


class TestRecordAndAnnotate:
    def test_record_to_file_and_check(self, tmp_path, capsys):
        path = tmp_path / "tsp.trace"
        assert (
            main(
                [
                    "record",
                    "tsp",
                    "--scale",
                    "120",
                    "-o",
                    str(path),
                ]
            )
            == 0
        )
        assert main(["check", str(path)]) == 1  # tsp has its benign race
        out = capsys.readouterr().out
        assert "best" in out

    def test_record_stdout(self, capsys):
        assert main(["record", "philo", "--scale", "60", "-o", "-"]) == 0
        out = capsys.readouterr().out
        assert "acq(" in out

    def test_record_unknown_workload(self, capsys):
        assert main(["record", "nope"]) == 2

    def test_annotate(self, clean_file, capsys):
        assert main(["annotate", clean_file]) == 0
        out = capsys.readouterr().out
        assert "C=<" in out
        assert "acq(0, m)" in out

    def test_classify(self, clean_file, capsys):
        assert main(["classify", clean_file, "-v"]) == 0
        out = capsys.readouterr().out
        assert "lock-protected" in out
        assert "x" in out

    def test_minimize(self, racy_file, tmp_path, capsys):
        out_path = tmp_path / "witness.trace"
        assert (
            main(["minimize", racy_file, "--var", "x", "-o", str(out_path)])
            == 0
        )
        witness = out_path.read_text().strip().splitlines()
        assert 0 < len(witness) <= 3
        assert main(["check", str(out_path)]) == 1  # still racy

    def test_minimize_clean_trace_errors(self, clean_file, capsys):
        assert main(["minimize", clean_file]) == 2
        assert "error" in capsys.readouterr().err

    def test_minimize_bad_var_is_a_usage_error(self, racy_file, capsys):
        assert main(["minimize", racy_file, "--var", "a[b"]) == 2
        assert capsys.readouterr().err == "error: bad target 'a[b'\n"


class TestInProcessCheck:
    """``repro check`` without ``--jobs``/``--shards`` analyzes the file's
    columns with the shard worker's own analysis function."""

    @pytest.mark.parametrize(
        "tools", [[], ["--all-tools"]], ids=["tool", "all-tools"]
    )
    @pytest.mark.parametrize("fmt", ["text", "jsonl"])
    def test_default_path_builds_no_events(
        self, fmt, tools, tmp_path, monkeypatch, capsys
    ):
        argv = [
            "check", _golden(tmp_path, "tsp_small", fmt), "--format", fmt,
            "--json", *tools,
        ]
        expected = (main(argv), capsys.readouterr().out)

        def refuse(*args, **kwargs):
            raise AssertionError("the in-process check built Event objects")

        monkeypatch.setattr(serialize, "loads", refuse)
        monkeypatch.setattr(serialize, "loads_jsonl", refuse)
        monkeypatch.setattr(ColumnarTrace, "from_events", refuse)
        assert (main(argv), capsys.readouterr().out) == expected

    def test_one_classifier_pass_for_all_tools(self, monkeypatch, capsys):
        calls = []
        process = SharingClassifier.process

        def counted(self, trace):
            calls.append(trace)
            return process(self, trace)

        monkeypatch.setattr(SharingClassifier, "process", counted)
        trace = str(DATA / "tsp_small.trace")
        assert main(["check", trace, "--all-tools", "--json"]) == 1
        assert len(calls) == 1

    def test_telemetry_has_one_kernels_span_per_tool(self, tmp_path, capsys):
        directory = str(tmp_path / "tel")
        trace = str(DATA / "tsp_small.trace")
        assert main(
            ["check", trace, "--all-tools", "--telemetry", directory]
        ) == 1
        spans = [
            record for record in obs.read_all_spans(directory)
            if record["type"] == "span"
        ]
        kernels = [span for span in spans if span["name"] == "kernels"]
        assert sorted(span["attrs"]["tool"] for span in kernels) == sorted(
            DETECTORS
        )
        for span in kernels:
            assert set(span["attrs"]) == {"tool", "events", "kernel"}
        names = {span["name"] for span in spans}
        assert not names & {"check.analyze", "shard.kernel"}

    def test_cli_import_skips_bench_and_runtime(self):
        # Only ``record`` and ``workloads`` need the workload models.
        probe = (
            "import sys, repro.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['repro', 'bench'], "
            "['repro', 'runtime'])))"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True,
        )
        assert result.stdout.strip() == "[]"


#: Every verb that reads a trace file, as the argv before its path.
READERS = {
    "annotate": ["annotate"],
    "check": ["check"],
    "check-shards": ["check", "--shards", "2"],
    "classify": ["classify"],
    "compose": ["compose", "FastTrack:Velodrome"],
    "minimize": ["minimize"],
    "predict": ["predict"],
    "profile": ["profile"],
}

#: A non-UTF-8 byte deep in the file, past the decoder's read-ahead
#: chunk: (bytes, its line, its offset from the start of the file).
ROT = {
    "text": (b"wr(0, x)\n" * 5000 + b"wr(0, \xffx)\nwr(1, x)\n", 5001, 45006),
    "jsonl": (
        b'{"op":"wr","tid":0,"target":"x"}\n' * 3000
        + b'{"op":"wr","tid":0,"target":"\xff"}\n',
        3001, 99029,
    ),
}


#: JSONL records whose fields have the wrong JSON type.
WRONG_TYPED = {
    "site-list": '{"op": "wr", "tid": 0, "target": "x", "site": [1]}',
    "target-object": '{"op": "wr", "tid": 0, "target": {"a": 1}}',
    "target-nested-list": '{"op": "wr", "tid": 0, "target": [["a"], 1]}',
    "tid-list": '{"op": "wr", "tid": [0], "target": "x"}',
    "tid-string": '{"op": "wr", "tid": "0", "target": "x"}',
    "tid-float": '{"op": "wr", "tid": 1.5, "target": "x"}',
}


class TestUnreadableTrace:
    """Every verb reads a trace file one way and refuses a bad one with
    exit 2 and an ``error: PATH: ...`` line."""

    @pytest.mark.parametrize("verb", ["check", "check-shards"])
    @pytest.mark.parametrize("form", sorted(WRONG_TYPED))
    def test_wrong_typed_jsonl_field_exits_2(
        self, form, verb, tmp_path, capsys
    ):
        path = tmp_path / "bad.jsonl"
        path.write_text(WRONG_TYPED[form] + "\n")
        assert main([*READERS[verb], str(path), "--format", "jsonl"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 1: bad event record ")
        assert err.endswith(f"  offending line: {WRONG_TYPED[form]}\n")

    @pytest.mark.parametrize("verb", ["check", "check-shards"])
    def test_boolean_tid_and_float_site_still_parse(
        self, verb, tmp_path, capsys
    ):
        path = tmp_path / "odd.jsonl"
        path.write_text(
            '{"op": "wr", "tid": true, "target": "x", "site": 1.5}\n'
        )
        assert main([*READERS[verb], str(path), "--format", "jsonl"]) == 0

    @pytest.mark.parametrize("verb", sorted(READERS))
    def test_malformed_trace_exits_2(self, verb, tmp_path, capsys):
        path = tmp_path / "bad.trace"
        path.write_text("wr(0, x)\nbogus line\n")
        assert main([*READERS[verb], str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line 2: unparseable line 'bogus line'\n"
            "  offending line: bogus line\n"
        )

    @pytest.mark.parametrize("verb", sorted(READERS))
    def test_missing_trace_exits_2(self, verb, tmp_path, capsys):
        path = tmp_path / "missing.trace"
        assert main([*READERS[verb], str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: No such file or directory\n"
        )

    @pytest.mark.parametrize("verb", ["annotate", "check", "check-shards"])
    @pytest.mark.parametrize("fmt", sorted(ROT))
    def test_not_utf8_names_the_bad_bytes_line_and_offset(
        self, fmt, verb, tmp_path, capsys
    ):
        data, lineno, offset = ROT[fmt]
        assert data.index(b"\xff") == offset
        path = tmp_path / f"rot.{fmt}"
        path.write_bytes(data)
        assert main([*READERS[verb], str(path), "--format", fmt]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line {lineno}: trace is not valid UTF-8 "
            f"(invalid start byte at byte {offset})\n"
        )
