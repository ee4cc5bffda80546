"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.trace import events as ev
from repro.trace.serialize import dumps, dumps_jsonl
from repro.trace.trace import Trace

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

    def test_sharded_warnings_identical_to_in_process(self, racy_file, capsys):
        assert main(["check", racy_file]) == 1
        single_out = capsys.readouterr().out
        assert main(["check", racy_file, "--jobs", "1", "--shards", "2"]) == 1
        sharded_out = capsys.readouterr().out
        # Identical modulo the feasibility pre-check (needs the full trace).
        single_lines = [
            line
            for line in single_out.splitlines()
            if "not feasible" not in line
        ]
        assert sharded_out.splitlines() == single_lines

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
