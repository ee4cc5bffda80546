"""Cross-process trace integrity, exemplars, and the live ops surface.

The tentpole contract under test: every record a traced run emits — in
the parent *or* in an engine pool worker, fork or spawn — carries the
same ``trace_id``, every span's parent resolves inside the stitched
tree, and the per-pid span files a multi-process run writes all pass
schema validation.  Plus the satellites that ride on it: sanitized
``X-Repro-Trace-Id`` propagation through the daemon, the ``/debug``
snapshot showing an in-flight job's *current* stage, histogram
exemplars pinning outlier latencies to jobs, and the critical-path
computation ``repro profile`` prints.
"""

import json
import multiprocessing
import random
import time
import urllib.request

import pytest

from repro import engine, faults, obs
from repro.detectors import default_tool_kwargs
from repro.obs import profile as obs_profile
from repro.obs import telemetry, top as obs_top
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracecontext import clean_trace_id
from repro.service.client import Client
from repro.service.server import ServiceConfig, start_in_thread
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


@pytest.fixture
def racy_file(tmp_path):
    trace = [
        ev.wr(1, "x", site="a"),
        ev.acq(1, "m"), ev.rel(1, "m"),
        ev.acq(2, "m"), ev.rel(2, "m"),
        *[
            event
            for tid in (1, 2)
            for n in range(40)
            for event in (ev.rd(tid, f"v{n}"), ev.wr(tid, f"v{n}"))
        ],
        ev.wr(2, "x", site="b"),
    ]
    path = tmp_path / "racy.trace"
    path.write_text(dumps(trace))
    return str(path)


class TestCleanTraceId:
    def test_accepts_sane_ids(self):
        assert clean_trace_id("abc-DEF_1.2") == "abc-DEF_1.2"
        assert clean_trace_id("a" * 64) == "a" * 64

    def test_rejects_garbage(self):
        assert clean_trace_id(None) is None
        assert clean_trace_id("") is None
        assert clean_trace_id("a" * 65) is None
        assert clean_trace_id("has space") is None
        assert clean_trace_id("new\nline") is None
        assert clean_trace_id("páth") is None


class TestTraceScope:
    def test_spans_carry_the_bound_trace_id(self, tmp_path):
        obs.enable(str(tmp_path))
        default = obs.current_trace_id()
        assert default  # the sink minted one
        with obs.trace_scope("job-trace-1"):
            assert obs.current_trace_id() == "job-trace-1"
            with obs.span("inside"):
                pass
        with obs.span("outside"):
            pass
        obs.disable()
        records = {
            r["name"]: r
            for r in obs.read_all_spans(str(tmp_path))
            if r["type"] == "span"
        }
        assert records["inside"]["trace_id"] == "job-trace-1"
        assert records["outside"]["trace_id"] == default

    def test_scopes_are_per_thread(self, tmp_path):
        import threading

        obs.enable(str(tmp_path))
        seen = {}

        def worker(name):
            with obs.trace_scope(f"trace-{name}"):
                time.sleep(0.02)
                seen[name] = obs.current_trace_id()
                with obs.span(f"span-{name}"):
                    pass

        threads = [
            threading.Thread(target=worker, args=(str(n),)) for n in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        obs.disable()
        assert seen == {"0": "trace-0", "1": "trace-1", "2": "trace-2"}
        records = [
            r for r in obs.read_all_spans(str(tmp_path))
            if r["type"] == "span"
        ]
        for record in records:
            name = record["name"].split("-")[-1]
            assert record["trace_id"] == f"trace-{name}"


class TestCrossProcessIntegrity:
    """The acceptance gate: a sharded run's workers write real span
    files that stitch into one tree under one trace id."""

    def test_sharded_run_stitches_to_one_trace(self, racy_file, tmp_path):
        directory = tmp_path / "tel"
        directory.mkdir()
        obs.enable(str(directory))
        trace_id = obs.current_trace_id()
        try:
            with obs.span("check", trace=racy_file, jobs=2):
                engine.check_trace_file(
                    racy_file,
                    tool="FastTrack",
                    nshards=4,
                    jobs=2,
                    tool_kwargs=default_tool_kwargs("FastTrack"),
                )
        finally:
            obs.disable()
        # Workers wrote their own spans-<pid>.jsonl next to spans.jsonl.
        files = obs.span_files(str(directory))
        assert len(files) >= 2, files
        # Every file validates against the record schema (multi-pid);
        # validate_telemetry_dir raises on any malformed record.
        assert obs.validate_telemetry_dir(str(directory)) > 0
        records = obs.read_all_spans(str(directory))
        spans = [r for r in records if r["type"] == "span"]
        pids = {r["pid"] for r in spans}
        assert len(pids) >= 2, pids
        # One trace id across every process.
        assert {r["trace_id"] for r in spans} == {trace_id}
        traces = obs.stitch_traces(records)
        assert set(traces) == {trace_id}
        entry = traces[trace_id]
        # Every parent resolves: the only root is the top-level span.
        assert [root["name"] for root in entry["roots"]] == ["check"]
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        # The worker-side stages are real records now, one per shard.
        for stage in ("shard.analyze", "shard.attach", "kernels"):
            assert len(by_name[stage]) == 4, stage
        # shard.analyze parents are the parent-side engine.analyze span.
        (analyze,) = by_name["engine.analyze"]
        for span in by_name["shard.analyze"]:
            assert span["parent"] == analyze["id"]
            assert span["attrs"]["queue_wait_s"] >= 0.0
        # The stitched report renders with a critical-path line.
        report = obs.render_trace_report(records, str(directory))
        assert f"trace {trace_id}" in report
        assert "critical path:" in report

    def test_fork_inherited_sink_reopens_per_pid(self, tmp_path):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        directory = str(tmp_path / "tel")
        obs.enable(directory)
        parent_trace = obs.current_trace_id()
        with obs.span("parent.op"):
            pass

        def child():
            # The forked child inherits the live sink object; its first
            # write must land in its own spans-<pid>.jsonl, under the
            # same trace, with a fresh span-id prefix.
            with obs.span("child.op"):
                pass

        context = multiprocessing.get_context("fork")
        process = context.Process(target=child)
        process.start()
        process.join(timeout=30)
        assert process.exitcode == 0
        obs.disable()
        assert obs.validate_telemetry_dir(directory) > 0
        files = obs.span_files(directory)
        assert len(files) == 2, files
        assert telemetry.worker_spans_filename(process.pid) in files[1]
        spans = {
            r["name"]: r
            for r in obs.read_all_spans(directory)
            if r["type"] == "span"
        }
        assert spans["parent.op"]["pid"] != spans["child.op"]["pid"]
        assert spans["child.op"]["trace_id"] == parent_trace
        assert spans["child.op"]["id"] != spans["parent.op"]["id"]

    @pytest.mark.parametrize("seed", range(5))
    def test_stitching_fuzz_preserves_every_span(self, seed, tmp_path):
        """Randomized trees scattered across per-pid files: stitching
        must keep every span, resolve every present parent, and root
        every orphan — never drop or duplicate a record."""
        rng = random.Random(seed)
        traces = [f"trace-{n}" for n in range(rng.randint(1, 3))]
        pids = [1000 + n for n in range(rng.randint(1, 4))]
        spans, by_file = [], {pid: [] for pid in pids}
        for number in range(rng.randint(5, 40)):
            trace_id = rng.choice(traces)
            candidates = [s for s in spans if s["trace_id"] == trace_id]
            parent = (
                rng.choice(candidates)["id"]
                if candidates and rng.random() < 0.7
                else (f"missing-{number}" if rng.random() < 0.2 else None)
            )
            pid = rng.choice(pids)
            span = {
                "type": "span", "id": f"s{number:04d}", "parent": parent,
                "name": rng.choice(["a", "b", "c"]),
                "trace_id": trace_id, "pid": pid,
                "start_unix": rng.random() * 10,
                "wall_s": rng.random(), "cpu_s": 0.0,
                "status": "ok", "attrs": {},
            }
            spans.append(span)
            by_file[pid].append(span)
        directory = tmp_path / f"fuzz-{seed}"
        directory.mkdir()
        (directory / telemetry.SPANS_FILENAME).write_text(
            "".join(json.dumps(s) + "\n" for s in by_file[pids[0]])
        )
        for pid in pids[1:]:
            (directory / telemetry.worker_spans_filename(pid)).write_text(
                "".join(json.dumps(s) + "\n" for s in by_file[pid])
            )
        records = obs.read_all_spans(str(directory))
        stitched = obs.stitch_traces(records)
        total = sum(len(e["spans"]) for e in stitched.values())
        assert total == len(spans)
        for entry in stitched.values():
            ids = {span["id"] for span in entry["spans"]}
            in_children = sum(
                len(kids) for kids in entry["children"].values()
            )
            assert in_children + len(entry["roots"]) == len(entry["spans"])
            for span in entry["spans"]:
                parent = span.get("parent")
                if parent is not None and parent in ids:
                    assert span in entry["children"][parent]
                else:
                    assert span in entry["roots"]
            path = obs_profile.critical_path(entry["spans"])
            assert len(path) <= len(entry["spans"])


class TestCriticalPath:
    def test_descends_into_the_last_finishing_child(self):
        spans = [
            {"type": "span", "id": "a", "parent": None, "name": "root",
             "start_unix": 0.0, "wall_s": 1.0, "cpu_s": 0, "status": "ok"},
            {"type": "span", "id": "b", "parent": "a", "name": "fast",
             "start_unix": 0.0, "wall_s": 0.4, "cpu_s": 0, "status": "ok"},
            {"type": "span", "id": "c", "parent": "a", "name": "slow",
             "start_unix": 0.4, "wall_s": 0.55, "cpu_s": 0, "status": "ok"},
        ]
        assert [s["id"] for s in obs.critical_path(spans)] == ["a", "c"]

    def test_zero_duration_markers_never_bound_the_path(self):
        spans = [
            {"type": "span", "id": "a", "parent": None, "name": "root",
             "start_unix": 0.0, "wall_s": 1.0, "cpu_s": 0, "status": "ok"},
            {"type": "span", "id": "b", "parent": "a", "name": "work",
             "start_unix": 0.0, "wall_s": 0.9, "cpu_s": 0, "status": "ok"},
            {"type": "span", "id": "m", "parent": "a", "name": "summary",
             "start_unix": 0.99, "wall_s": 0.0, "cpu_s": 0, "status": "ok"},
        ]
        assert [s["id"] for s in obs.critical_path(spans)] == ["a", "b"]


class TestExemplars:
    def test_histogram_keeps_the_slowest_observations(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t_seconds", "test")
        for n in range(20):
            hist.observe(
                float(n), exemplar={"job": f"job-{n}"}, tool="FastTrack"
            )
        rows = hist.exemplars(tool="FastTrack")
        assert len(rows) == hist.MAX_EXEMPLARS
        assert [row["value"] for row in rows] == [19.0, 18.0, 17.0, 16.0, 15.0]
        assert rows[0]["job"] == "job-19"

    def test_observations_without_exemplars_cost_nothing(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t_seconds", "test")
        hist.observe(1.0, tool="x")
        assert hist.exemplars(tool="x") == []
        (series,) = hist.samples()
        assert "exemplars" not in series

    def test_all_exemplars_cross_label_sets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t_seconds", "test")
        hist.observe(1.0, exemplar={"job": "a"}, tool="x")
        hist.observe(3.0, exemplar={"job": "b"}, tool="y")
        rows = hist.all_exemplars()
        assert [row["job"] for row in rows] == ["b", "a"]
        assert rows[0]["labels"] == {"tool": "y"}


@pytest.fixture
def hang_plan():
    plan = faults.parse_plan(json.dumps({
        "schema": "repro.faults/1",
        "faults": [
            {"point": "worker.hang", "action": "hang", "delay_s": 1.2},
        ],
    }))
    faults.install(plan)
    yield plan
    faults.clear()


class TestServiceOpsSurface:
    def test_trace_header_roundtrip_and_worker_spans(
        self, racy_file, tmp_path
    ):
        tel = tmp_path / "tel"
        handle = start_in_thread(ServiceConfig(
            port=0, workers=1, store_dir=str(tmp_path / "store"),
            telemetry=str(tel), default_shards=2,
        ))
        try:
            client = Client(port=handle.port, timeout=30.0)
            job = client.submit(path=racy_file, trace_id="trace-roundtrip-1")
            assert job["trace_id"] == "trace-roundtrip-1"
            client.wait(job["id"], timeout=60.0, poll=0.05)
            assert client.status(job["id"])["trace_id"] == "trace-roundtrip-1"
            # A second submission without a header gets a minted id.
            minted = client.submit(path=racy_file)
            assert minted["trace_id"] and minted["trace_id"] != job["trace_id"]
            client.wait(minted["id"], timeout=60.0, poll=0.05)
        finally:
            handle.stop(grace=5.0)
        spans = [
            r for r in obs.read_all_spans(str(tel))
            if r["type"] == "span"
        ]
        mine = [s for s in spans if s["trace_id"] == "trace-roundtrip-1"]
        names = {s["name"] for s in mine}
        assert {"job.run", "engine.analyze", "shard.analyze"} <= names
        # The job's spans and the other job's never share a trace.
        assert all(
            s["trace_id"] in ("trace-roundtrip-1", minted["trace_id"])
            for s in spans
        )

    def test_bad_header_is_replaced_not_echoed(self, racy_file, tmp_path):
        handle = start_in_thread(ServiceConfig(
            port=0, workers=1, store_dir=str(tmp_path / "store"),
        ))
        try:
            request = urllib.request.Request(
                f"http://127.0.0.1:{handle.port}/v1/jobs?tool=FastTrack",
                data=open(racy_file, "rb").read(),
                headers={
                    "Content-Type": "text/plain",
                    "X-Repro-Trace-Id": "bad id with spaces!",
                },
                method="POST",
            )
            with urllib.request.urlopen(request) as response:
                record = json.loads(response.read())
            assert record["trace_id"]
            assert record["trace_id"] != "bad id with spaces!"
            assert clean_trace_id(record["trace_id"]) == record["trace_id"]
        finally:
            handle.stop(grace=5.0)

    def test_debug_shows_inflight_stage_live(
        self, racy_file, tmp_path, hang_plan
    ):
        handle = start_in_thread(ServiceConfig(
            port=0, workers=1, store_dir=str(tmp_path / "store"),
        ))
        try:
            client = Client(port=handle.port, timeout=30.0)
            job = client.submit(path=racy_file)
            # The injected worker.hang holds the job in its analyze
            # stage; /debug must show it in flight with that stage.
            deadline = time.monotonic() + 10.0
            stage = None
            while time.monotonic() < deadline:
                snapshot = client.debug()
                inflight = {
                    row["job"]: row for row in snapshot["inflight"]
                }
                if job["id"] in inflight:
                    stage = inflight[job["id"]]["stage"]
                    if stage.startswith("analyze:"):
                        break
                time.sleep(0.05)
            assert stage == "analyze:FastTrack", stage
            assert snapshot["schema"] == "repro.debug/1"
            assert snapshot["queue_depth"] == 0
            client.wait(job["id"], timeout=60.0, poll=0.05)
            snapshot = client.debug()
            assert snapshot["inflight"] == []
            assert snapshot["jobs"].get("done") == 1
            # The finished job surfaced as a latency exemplar.
            assert any(
                row["job"] == job["id"] for row in snapshot["slowest"]
            )
            # And the HTML rendering serves the same snapshot.
            html = urllib.request.urlopen(
                f"http://127.0.0.1:{handle.port}/debug"
            ).read().decode("utf-8")
            assert "repro serve" in html and job["id"] in html
            # repro top renders the service snapshot without error.
            frame = obs_top.render_top(snapshot)
            assert "repro top" in frame and "done=1" in frame
        finally:
            handle.stop(grace=5.0)

    def test_top_renders_local_telemetry_dir(self, racy_file, tmp_path):
        directory = str(tmp_path / "tel")
        obs.enable(directory)
        try:
            engine.check_trace_file(
                racy_file,
                tool="FastTrack",
                nshards=2,
                jobs=1,
                tool_kwargs=default_tool_kwargs("FastTrack"),
            )
        finally:
            obs.disable()
        snapshot = obs_top.snapshot_from_telemetry(directory)
        assert snapshot["traces"] and snapshot["slowest"]
        frame = obs_top.render_telemetry_top(snapshot)
        assert "repro top — telemetry" in frame
        assert "critical path:" in frame
