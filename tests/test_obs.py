"""Tests for the unified telemetry layer (:mod:`repro.obs`).

Covers the tentpole contracts: span nesting and exception safety,
batched-counter flush correctness, rule-frequency metrics that are
deterministic across shard counts and exactly equal to the offline
Figure 2 arithmetic, exposition-format determinism (sorted blocks and
label sets, ``+Inf`` bucket, content type), the structured-log fallback,
and — most load-bearing — that telemetry never perturbs analysis output
(``repro check --json`` is byte-identical with the sink on or off).
"""

import json
import os
import tempfile

import pytest

from repro import obs
from repro.bench.workload import WORKLOADS
from repro.cli import main
from repro.detectors import default_tool_kwargs, make_detector
from repro.obs.metrics import MetricsRegistry
from repro.obs.rules import derived_rule_counts, record_rule_counts
from repro.trace import events as ev
from repro.trace.serialize import dumps


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Every test starts and ends with telemetry disabled."""
    if obs.enabled():
        obs.disable()
    yield
    if obs.enabled():
        obs.disable()


@pytest.fixture(scope="module")
def tsp_trace_text():
    return dumps(WORKLOADS["tsp"].trace(scale=6))


@pytest.fixture
def tsp_file(tmp_path, tsp_trace_text):
    path = tmp_path / "tsp.trace"
    path.write_text(tsp_trace_text)
    return str(path)


def _spans(directory):
    return obs.read_spans(os.path.join(directory, obs.SPANS_FILENAME))


class TestSpans:
    def test_disabled_span_is_shared_null_and_free(self):
        assert not obs.enabled()
        assert obs.span("x") is obs.NULL_SPAN
        assert obs.span("y", a=1) is obs.NULL_SPAN
        with obs.span("z") as span:
            assert span.set(k="v") is span  # set() works on the null span

    def test_nesting_parent_ids(self, tmp_path):
        obs.enable(str(tmp_path))
        with obs.span("outer") as outer:
            with obs.span("inner"):
                pass
            with obs.span("sibling"):
                pass
        obs.disable()
        records = {r["name"]: r for r in _spans(str(tmp_path))}
        assert records["outer"]["parent"] is None
        assert records["inner"]["parent"] == records["outer"]["id"]
        assert records["sibling"]["parent"] == records["outer"]["id"]
        assert records["inner"]["id"] != records["sibling"]["id"]
        del outer

    def test_exception_marks_error_and_reraises(self, tmp_path):
        obs.enable(str(tmp_path))
        with pytest.raises(RuntimeError, match="boom"):
            with obs.span("failing", shard=3):
                raise RuntimeError("boom")
        obs.disable()
        (record,) = _spans(str(tmp_path))
        assert record["status"] == "error"
        assert record["error"] == "RuntimeError: boom"
        assert record["attrs"] == {"shard": 3}

    def test_stack_unwinds_after_exception(self, tmp_path):
        obs.enable(str(tmp_path))
        with pytest.raises(ValueError):
            with obs.span("a"):
                raise ValueError()
        with obs.span("b"):
            pass
        obs.disable()
        records = {r["name"]: r for r in _spans(str(tmp_path))}
        assert records["b"]["parent"] is None  # "a" did not leak a frame

    def test_emit_span_and_schema_validation(self, tmp_path):
        obs.enable(str(tmp_path))
        obs.emit_span("shard.analyze", 0.25, cpu_s=0.2, shard=1, events=10)
        obs.disable()
        path = os.path.join(str(tmp_path), obs.SPANS_FILENAME)
        assert obs.validate_spans_file(path) == 1
        (record,) = obs.read_spans(path)
        assert record["wall_s"] == 0.25
        assert record["attrs"]["shard"] == 1

    def test_validation_rejects_malformed_records(self):
        with pytest.raises(ValueError):
            obs.validate_record({"type": "span", "name": "x"})
        with pytest.raises(ValueError):
            obs.validate_record({"type": "nope"})
        with pytest.raises(ValueError):
            obs.validate_record(
                {
                    "type": "span", "name": "x", "id": 1, "parent": None,
                    "start_unix": 0, "wall_s": 0.1, "cpu_s": 0.0,
                    "status": "error", "attrs": {},  # error without message
                }
            )

    def test_enable_truncates_nothing_but_resets_metrics(self, tmp_path):
        first = obs.enable(str(tmp_path))
        first.registry.counter("stale_total", "stale").inc()
        obs.disable()
        second = obs.enable(str(tmp_path))
        assert second.registry is not first.registry
        obs.disable()
        snapshot = json.load(open(os.path.join(str(tmp_path), "metrics.json")))
        assert "stale_total" not in snapshot  # fresh registry per enable


class TestBatchedCounter:
    def test_flush_folds_once(self):
        registry = MetricsRegistry()
        events = registry.counter("events_total", "events")
        handle = events.handle(detector="FastTrack")
        for _ in range(1000):
            handle.inc()
        handle.inc(500)
        assert events.value(detector="FastTrack") == 0.0  # not yet flushed
        assert handle.flush() == 1500
        assert handle.flush() == 0  # idempotent once drained
        assert events.value(detector="FastTrack") == 1500.0

    @pytest.mark.parametrize("nshards", [1, 2, 4])
    def test_rule_metrics_deterministic_across_shard_counts(
        self, nshards, tsp_trace_text
    ):
        """Per-shard tallies merged then flushed give the same rule counts
        at any shard count (FastTrack's rules are per-access, and the
        merge corrects the event mix to one sync stream)."""
        from repro import engine
        from repro.trace.serialize import loads

        events = loads(tsp_trace_text).events
        registry = MetricsRegistry()
        report = engine.check_events(
            events,
            tool="FastTrack",
            nshards=nshards,
            tool_kwargs=default_tool_kwargs("FastTrack"),
        )
        record_rule_counts("FastTrack", report.stats, registry)
        rule = registry.counter("repro_rule_total", "")
        single = make_detector(
            "FastTrack", **default_tool_kwargs("FastTrack")
        )
        single.process(loads(tsp_trace_text))
        expected = derived_rule_counts("FastTrack", single.stats)
        for name, count in expected.items():
            assert rule.value(detector="FastTrack", rule=name) == count, name


class TestRuleFrequencies:
    def test_profile_matches_figure2_arithmetic(self, tsp_file, capsys):
        """The acceptance criterion: ``repro profile`` reports exactly the
        counts the offline Figure 2 benchmark derives."""
        assert main(["profile", tsp_file]) == 0
        out = capsys.readouterr().out
        single = make_detector(
            "FastTrack", **default_tool_kwargs("FastTrack")
        )
        from repro.trace.serialize import load

        with open(tsp_file) as stream:
            single.process(load(stream))
        for name, count in derived_rule_counts(
            "FastTrack", single.stats
        ).items():
            for line in out.splitlines():
                if line.strip().startswith(name):
                    assert f"{count:,d}" in line, (name, line)
                    break
            else:  # pragma: no cover - assertion context
                pytest.fail(f"rule {name} missing from profile output")

    def test_derived_counts_cover_fast_paths(self):
        trace_events = [
            ev.wr(0, "x"), ev.wr(0, "x"), ev.rd(0, "x"), ev.rd(0, "x")
        ]
        from repro.trace.trace import Trace

        detector = make_detector("FastTrack")
        detector.process(Trace(trace_events))
        counts = derived_rule_counts("FastTrack", detector.stats)
        # Second write and second read hit the counter-free same-epoch
        # fast paths; the derivation must account for every access.
        read_total = sum(c for r, c in counts.items() if "READ" in r)
        write_total = sum(c for r, c in counts.items() if "WRITE" in r)
        assert read_total == detector.stats.reads
        assert write_total == detector.stats.writes
        assert counts["FT WRITE SAME EPOCH"] == 1


class TestExposition:
    def test_blocks_and_labels_sorted(self):
        registry = MetricsRegistry()
        zz = registry.counter("zz_total", "last")
        aa = registry.counter("aa_total", "first")
        zz.inc(b="2", a="1")
        aa.inc(state="done")
        text = registry.render()
        assert text.index("# HELP aa_total") < text.index("# HELP zz_total")
        assert 'zz_total{a="1",b="2"} 1' in text

    def test_render_independent_of_registration_order(self):
        def build(order):
            registry = MetricsRegistry()
            for name in order:
                registry.counter(name, f"help {name}").inc(tool=name)
            return registry.render()

        assert build(["b_total", "a_total"]) == build(["a_total", "b_total"])

    def test_histogram_has_inf_bucket_and_consistent_count(self):
        registry = MetricsRegistry()
        latency = registry.histogram("lat_seconds", "latency", buckets=(0.1,))
        latency.observe(0.05, route="/metrics")
        latency.observe(99.0, route="/metrics")  # beyond every finite bucket
        text = registry.render()
        assert 'lat_seconds_bucket{route="/metrics",le="0.1"} 1' in text
        assert 'lat_seconds_bucket{route="/metrics",le="+Inf"} 2' in text
        assert 'lat_seconds_count{route="/metrics"} 2' in text

    def test_label_escaping(self):
        registry = MetricsRegistry()
        counter = registry.counter("esc_total", "escapes")
        counter.inc(path='a"b\\c\nd')
        rendered = registry.render()
        assert 'esc_total{path="a\\"b\\\\c\\nd"} 1' in rendered

    def test_exposition_content_type_pinned(self):
        assert obs.EXPOSITION_CONTENT_TYPE == (
            "text/plain; version=0.0.4; charset=utf-8"
        )


class TestStructuredLog:
    def test_stderr_fallback_only_for_warnings(self, capsys):
        obs.log.info("engine.resume", "resuming")
        obs.log.warning("engine.jobs", "too many jobs", jobs=8)
        err = capsys.readouterr().err
        assert err == "warning: too many jobs\n"

    def test_sink_records_all_levels(self, tmp_path, capsys):
        obs.enable(str(tmp_path))
        obs.log.info("engine.resume", "resuming", completed=2)
        obs.log.warning("engine.jobs", "too many jobs", jobs=8)
        obs.disable()
        assert capsys.readouterr().err == ""  # nothing leaks to stderr
        records = _spans(str(tmp_path))
        levels = [r["level"] for r in records]
        assert levels == ["info", "warning"]
        assert records[0]["fields"] == {"completed": 2}

    def test_oversubscription_warning_routed(self, tsp_file, tmp_path,
                                             capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        telemetry = tmp_path / "tel"
        assert main(
            ["check", tsp_file, "--jobs", "2",
             "--telemetry", str(telemetry)]
        ) in (0, 1)
        assert capsys.readouterr().err == ""  # went to the sink instead
        records = _spans(str(telemetry))
        warnings = [
            r for r in records
            if r["type"] == "log" and r["event"] == "engine.jobs.oversubscribed"
        ]
        assert len(warnings) == 1
        assert warnings[0]["fields"] == {"jobs": 2, "cpus": 1}

    def test_oversubscription_warning_text_unchanged_without_sink(
        self, tsp_file, capsys, monkeypatch
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert main(["check", tsp_file, "--jobs", "2"]) in (0, 1)
        err = capsys.readouterr().err
        assert err.startswith("warning: --jobs 2 exceeds the 1 available")


class TestTelemetryDoesNotPerturb:
    def test_check_json_byte_identical_with_telemetry(self, matrix):
        matrix.check(["tsp-6"], ["telemetry"])

    def test_check_telemetry_writes_both_artifacts(
        self, tsp_file, tmp_path, capsys
    ):
        telemetry = tmp_path / "tel"
        main(["check", tsp_file, "--telemetry", str(telemetry)])
        capsys.readouterr()
        count = obs.validate_spans_file(
            str(telemetry / obs.SPANS_FILENAME)
        )
        assert count >= 2  # trace.serialize + kernels at minimum
        snapshot = json.load(open(telemetry / "metrics.json"))
        assert "repro_rule_total" in snapshot
        samples = snapshot["repro_rule_total"]["samples"]
        assert any(
            s["labels"]["rule"] == "FT READ SAME EPOCH" for s in samples
        )

    def test_sharded_check_emits_shard_spans(
        self, tsp_file, tmp_path, capsys
    ):
        telemetry = tmp_path / "tel"
        main(
            ["check", tsp_file, "--jobs", "1", "--shards", "3",
             "--telemetry", str(telemetry)]
        )
        capsys.readouterr()
        records = _spans(str(telemetry))
        names = [r["name"] for r in records if r["type"] == "span"]
        assert names.count("shard.analyze") == 3
        assert "engine.partition" in names
        assert "engine.merge" in names
        shard_spans = [r for r in records if r["name"] == "shard.analyze"]
        assert {s["attrs"]["shard"] for s in shard_spans} == {0, 1, 2}
        for span in shard_spans:
            assert span["attrs"]["queue_wait_s"] >= 0.0


class TestProfileCommand:
    def test_profile_renders_all_sections(self, tsp_file, capsys):
        assert main(["profile", tsp_file, "--jobs", "1", "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "operation mix" in out
        assert "rule frequencies" in out
        assert "stage timings" in out
        assert "shard balance" in out
        assert "FT READ SAME EPOCH" in out

    def test_profile_keeps_telemetry_when_asked(
        self, tsp_file, tmp_path, capsys
    ):
        telemetry = tmp_path / "kept"
        assert main(
            ["profile", tsp_file, "--telemetry", str(telemetry)]
        ) == 0
        capsys.readouterr()
        assert obs.validate_spans_file(
            str(telemetry / obs.SPANS_FILENAME)
        ) > 0

    def test_profile_rejects_missing_trace(
        self, tmp_path, monkeypatch, capsys
    ):
        """A missing or malformed trace exits 2, and leaves no temporary
        telemetry dir behind."""
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setenv("TMPDIR", str(scratch))
        monkeypatch.setattr(tempfile, "tempdir", None)
        malformed = tmp_path / "bad.trace"
        malformed.write_text("bogus\n")
        for trace in (tmp_path / "absent.trace", malformed):
            assert main(["profile", str(trace)]) == 2
            assert "error" in capsys.readouterr().err
        assert list(scratch.iterdir()) == []
