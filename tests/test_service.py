"""Integration tests for the ``repro serve`` daemon.

The daemon runs in-process (ephemeral port, temp store) so the tests
exercise the real HTTP stack — chunked uploads, JSON envelopes, status
codes, the Prometheus endpoint — without fixed ports or subprocesses.

The centerpiece is the equivalence matrix: for every golden-corpus
trace and every warning-producing tool, the bytes served by
``GET /v1/jobs/{id}/result`` must equal the bytes printed by
``repro check --json`` exactly.
"""

import io
import json
import os
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro import cli, engine
from repro.bench.harness import WARNING_TOOLS
from repro.engine import transport
from repro.service.client import Client, JobFailed, ServiceError
from repro.service.server import ServiceConfig, start_in_thread
from repro.trace import serialize

DATA = Path(__file__).parent / "data"
MANIFEST = json.loads((DATA / "manifest.json").read_text())


def _check_json(argv):
    """Capture exactly what ``repro check --json`` prints."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(["check", *argv, "--json"])
    assert code in (0, 1)
    return buffer.getvalue()


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    store = tmp_path_factory.mktemp("service-store")
    handle = start_in_thread(
        ServiceConfig(port=0, workers=2, store_dir=str(store))
    )
    try:
        yield handle
    finally:
        handle.stop(grace=5.0)


@pytest.fixture(scope="module")
def client(daemon):
    return Client(port=daemon.port, timeout=30.0)


def test_healthz_reports_ok(client):
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["workers"] == 2
    assert "queue_depth" in health and "jobs" in health


@pytest.mark.parametrize("tool_name", WARNING_TOOLS)
@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_result_bit_identical_to_check_json(client, name, tool_name):
    trace_path = DATA / f"{name}.trace"
    job = client.submit(path=str(trace_path), tools=[tool_name])
    client.wait(job["id"], timeout=120.0, poll=0.05)
    served = client.result_bytes(job["id"]).decode("utf-8")
    expected = _check_json([str(trace_path), "--tool", tool_name])
    assert served == expected, (name, tool_name)


def test_multi_tool_job_returns_result_set(client):
    trace_path = DATA / "figure4.trace"
    job = client.submit(path=str(trace_path), tools=["FastTrack", "Eraser"])
    document = client.wait(job["id"], timeout=120.0, poll=0.05)
    assert document["schema"] == "repro.result-set/1"
    assert sorted(document["results"]) == ["Eraser", "FastTrack"]
    for result in document["results"].values():
        assert result["schema"] == "repro.result/1"


def test_jsonl_streaming_upload_matches_text(client, tmp_path):
    trace = serialize.loads((DATA / "figure4.trace").read_text())
    jsonl_path = tmp_path / "figure4.jsonl"
    jsonl_path.write_text(serialize.dumps_jsonl(trace))
    text_job = client.submit(path=str(DATA / "figure4.trace"))
    jsonl_job = client.submit(path=str(jsonl_path), fmt="jsonl")
    from_text = client.wait(text_job["id"], timeout=60.0, poll=0.05)
    from_jsonl = client.wait(jsonl_job["id"], timeout=60.0, poll=0.05)
    assert from_jsonl["warnings"] == from_text["warnings"]
    assert from_jsonl["stats"] == from_text["stats"]


def test_inline_envelope_submissions(client):
    text = (DATA / "figure4.trace").read_text()
    records = [
        json.loads(line)
        for line in serialize.dumps_jsonl(serialize.loads(text)).splitlines()
    ]
    by_text = client.wait(
        client.submit(text=text)["id"], timeout=60.0, poll=0.05
    )
    by_events = client.wait(
        client.submit(events=records)["id"], timeout=60.0, poll=0.05
    )
    assert by_events["warnings"] == by_text["warnings"]


def test_status_exposes_shard_progress(client):
    job = client.submit(path=str(DATA / "figure4.trace"))
    client.wait(job["id"], timeout=60.0, poll=0.05)
    record = client.status(job["id"])
    assert record["state"] == "done"
    progress = record["progress"]
    assert progress["shards_done"] == progress["shards_total"] == 1
    assert progress["events"] == MANIFEST["figure4"]["events"]
    assert progress["tools_done"] == progress["tools_total"] == 1


def test_validation_failures_return_400(client):
    trace = str(DATA / "figure4.trace")
    for kwargs in (
        {"tools": ["NoSuchTool"]},
        {"shards": 0},
        {"kernel": "warp"},
        {"fmt": "csv"},
    ):
        with pytest.raises(ServiceError) as excinfo:
            client.submit(path=trace, **kwargs)
        assert excinfo.value.status == 400, kwargs
    with pytest.raises(ServiceError) as excinfo:
        client._json("POST", "/v1/jobs", body=b"{}",
                     headers={"Content-Type": "application/json"})
    assert excinfo.value.status == 400


def test_wrong_typed_event_record_returns_400(client):
    for record in (
        {"op": "wr", "tid": 0, "target": "x", "site": [1]},
        {"op": "wr", "tid": "0", "target": "x"},
        {"op": "wr", "tid": 0, "target": {"a": 1}},
    ):
        with pytest.raises(ServiceError) as excinfo:
            client.submit(events=[record])
        assert excinfo.value.status == 400, record
        assert "bad event record" in str(excinfo.value)


def test_unknown_job_and_unknown_path_return_404(client):
    with pytest.raises(ServiceError) as excinfo:
        client.status("no-such-job")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client._json("GET", "/v2/everything")
    assert excinfo.value.status == 404


def test_wrong_method_returns_405_with_allow(client):
    status, _, headers = client._request("POST", "/healthz")
    assert status == 405
    assert headers.get("Allow") == "GET"


def test_result_of_unfinished_job_returns_409(client, daemon):
    record = daemon.service.store.create(
        {"tools": ["FastTrack"], "shards": 1, "kernel": "auto",
         "format": "text"}
    )
    with pytest.raises(ServiceError) as excinfo:
        client.result(record["id"])
    assert excinfo.value.status == 409
    daemon.service.store.delete(record["id"])


def test_failed_job_surfaces_error_and_raises_jobfailed(client, tmp_path):
    bad = tmp_path / "bad.trace"
    bad.write_text("this is not a trace event\n")
    job = client.submit(path=str(bad))
    with pytest.raises(JobFailed) as excinfo:
        client.wait(job["id"], timeout=60.0, poll=0.05)
    assert "TraceParseError" in str(excinfo.value)
    with pytest.raises(JobFailed):
        client.result(job["id"])


def test_metrics_scrape_mid_run_and_after(client):
    """Scrape while jobs are in flight (submitted, not yet waited) and
    assert the catalog is present and consistent afterwards."""
    trace = str(DATA / "hedc_small.trace")
    jobs = [client.submit(path=trace) for _ in range(3)]
    mid = client.metrics()  # the daemon is processing right now
    for family in (
        "repro_jobs_submitted_total",
        "repro_jobs_active",
        "repro_queue_depth",
        "repro_http_requests_total",
        "repro_http_request_seconds",
    ):
        assert f"# TYPE {family} " in mid, family
    for job in jobs:
        client.wait(job["id"], timeout=60.0, poll=0.05)
    done = client.metrics()
    assert 'repro_jobs_total{state="done"}' in done
    assert 'repro_events_processed_total{tool="FastTrack"}' in done
    assert 'repro_events_per_second{tool="FastTrack"}' in done
    # Terminal jobs left the active gauges; parse as a scraper would.
    running = [
        line for line in done.splitlines()
        if line.startswith('repro_jobs_active{state="running"}')
    ]
    assert running and float(running[0].rsplit(" ", 1)[1]) == 0.0


def test_queue_full_returns_429_with_retry_after(tmp_path):
    """With no runners draining the queue, the bound is reached and the
    daemon answers 429 + Retry-After instead of accepting silently."""
    handle = start_in_thread(
        ServiceConfig(port=0, workers=0, queue_size=2,
                      store_dir=str(tmp_path / "store"), retry_after=7)
    )
    try:
        client = Client(port=handle.port, timeout=10.0)
        trace = str(DATA / "figure4.trace")
        accepted = [client.submit(path=trace) for _ in range(2)]
        assert all(job["state"] == "queued" for job in accepted)
        with pytest.raises(ServiceError) as excinfo:
            client.submit(path=trace)
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after == 7.0
        assert "repro_jobs_rejected_total 1" in client.metrics()
        # The rejected job left nothing behind in the store.
        assert len(client.jobs()) == 2
    finally:
        handle.stop(grace=1.0)


def test_restart_recovers_queued_jobs(tmp_path):
    """Jobs accepted before a shutdown complete after a restart on the
    same store — the queue bound does not apply to recovered work."""
    store = str(tmp_path / "store")
    first = start_in_thread(
        ServiceConfig(port=0, workers=0, queue_size=2, store_dir=store)
    )
    try:
        client = Client(port=first.port, timeout=10.0)
        trace = str(DATA / "figure4.trace")
        pending = [client.submit(path=trace)["id"] for _ in range(2)]
    finally:
        first.stop(grace=1.0)

    second = start_in_thread(
        ServiceConfig(port=0, workers=2, queue_size=1, store_dir=store)
    )
    try:
        client = Client(port=second.port, timeout=10.0)
        expected = _check_json([trace, "--tool", "FastTrack"])
        for job_id in pending:
            client.wait(job_id, timeout=60.0, poll=0.05)
            assert client.result_bytes(job_id).decode("utf-8") == expected
        assert "repro_jobs_recovered_total 2" in client.metrics()
    finally:
        second.stop(grace=5.0)


def test_draining_daemon_refuses_submissions(tmp_path):
    handle = start_in_thread(
        ServiceConfig(port=0, workers=1, store_dir=str(tmp_path / "store"))
    )
    client = Client(port=handle.port, timeout=10.0)
    handle.service.drain(grace=2.0)
    try:
        with pytest.raises(ServiceError) as excinfo:
            client.submit(path=str(DATA / "figure4.trace"))
        assert excinfo.value.status == 503
        assert client.healthz()["status"] == "draining"
    finally:
        handle.stop(grace=1.0)


def test_evictor_pass_during_partition_creation_spares_it(
    tmp_path, monkeypatch
):
    """A TTL pass that lands while a job's partition is being created
    must not delete it: the job pins its key before creation starts."""
    handle = start_in_thread(
        ServiceConfig(port=0, workers=1, store_dir=str(tmp_path / "store"),
                      ttl_seconds=0.0, eviction_interval=3600.0)
    )
    write_shard = transport.write_shard
    evicted = []

    def write_shard_then_pass(*args, **kwargs):
        written = write_shard(*args, **kwargs)
        # Mid-creation: a shard file is on disk, meta.json is not, and
        # there is no .last_used stamp yet.
        evicted.extend(handle.service.evict_idle_partitions())
        return written

    monkeypatch.setattr(transport, "write_shard", write_shard_then_pass)
    try:
        client = Client(port=handle.port, timeout=30.0)
        trace = str(DATA / "tsp_small.trace")
        job = client.submit(path=trace, tools=["FastTrack"])
        client.wait(job["id"], timeout=60.0, poll=0.05)
        served = client.result_bytes(job["id"]).decode("utf-8")
        assert served == _check_json([trace, "--tool", "FastTrack"])
        assert evicted == []
        # Once the job is done nothing pins it, so the same pass evicts.
        assert len(handle.service.evict_idle_partitions()) == 1
    finally:
        handle.stop(grace=5.0)


def _partitions_created(client):
    for line in client.metrics().splitlines():
        if line.startswith('repro_partitions_total{outcome="created"}'):
            return float(line.rsplit(" ", 1)[1])
    return 0.0


def test_truncated_resident_partition_is_recreated(tmp_path):
    """A resident partition whose shard file was cut short is treated as
    absent: the next job on that trace re-creates it from the spooled
    trace, analyzes it, and serves the reference bytes."""
    handle = start_in_thread(
        ServiceConfig(port=0, workers=1, store_dir=str(tmp_path / "store"))
    )
    try:
        client = Client(port=handle.port, timeout=30.0)
        trace = str(DATA / "tsp_small.trace")
        expected = _check_json([trace, "--tool", "DJIT+", "--shards", "2"])
        first = client.submit(path=trace, tools=["FastTrack"], shards=2)
        client.wait(first["id"], timeout=60.0, poll=0.05)
        assert _partitions_created(client) == 1
        key = client.status(first["id"])["partition"]
        resident = engine.Workdir(handle.service.store.partition_dir(key))
        path = resident.shard_path(1)
        with open(path, "r+b") as stream:
            stream.truncate(os.path.getsize(path) // 2)
        second = client.submit(path=trace, tools=["DJIT+"], shards=2)
        client.wait(second["id"], timeout=60.0, poll=0.05)
        assert client.status(second["id"])["partition"] == key
        assert client.result_bytes(second["id"]).decode("utf-8") == expected
        assert _partitions_created(client) == 2
    finally:
        handle.stop(grace=5.0)
