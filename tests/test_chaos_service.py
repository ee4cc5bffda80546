"""Chaos suite for the ``repro serve`` daemon and its client.

The daemon runs in-process, so an installed fault plan is shared by the
test, the HTTP handler threads, and the job runners — every injected
503, connection reset, torn store write, and hung shard is deterministic
and observable from both sides of the socket.

The service-side differential invariant: whatever faults fire, a job
that reaches ``done`` serves bytes identical to ``repro check --json``
on the same trace, and a client with retries enabled converges on that
result without duplicating the analysis (idempotency keys).
"""

import io
import json
import threading
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro import cli, faults
from repro.service.client import Client, ServiceError
from repro.service.server import ServiceConfig, start_in_thread
from repro.service.store import JobStore

DATA = Path(__file__).parent / "data"
TRACE = DATA / "figure4.trace"


@pytest.fixture(autouse=True)
def _clean_faults():
    """Fault plans are process-global; never leak one between tests."""
    faults.clear()
    yield
    faults.clear()


def _install(fault_records, seed=7):
    plan = faults.parse_plan(json.dumps({
        "schema": "repro.faults/1",
        "seed": seed,
        "faults": fault_records,
    }))
    faults.install(plan)
    return plan


def _check_json(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(["check", *argv, "--json"])
    assert code in (0, 1)
    return buffer.getvalue()


@pytest.fixture()
def daemon(tmp_path):
    handle = start_in_thread(
        ServiceConfig(port=0, workers=1, store_dir=str(tmp_path / "store"))
    )
    try:
        yield handle
    finally:
        handle.stop(grace=5.0)


# -- HTTP faults and client retries -------------------------------------------


def test_injected_503_carries_retry_after(daemon):
    _install([{
        "point": "http.request", "action": "status", "status": 503,
        "match": {"route": "/metrics"}, "delay_s": 0.01,
    }])
    plain = Client(port=daemon.port, timeout=10.0)  # no retries
    with pytest.raises(ServiceError) as excinfo:
        plain.metrics()
    assert excinfo.value.status == 503
    assert excinfo.value.retry_after == 0.01


def test_client_retries_through_503_byte_identical(daemon):
    client = Client(port=daemon.port, timeout=30.0)
    job = client.submit(path=str(TRACE), tools=["FastTrack"])
    client.wait(job["id"], timeout=60.0, poll=0.05)
    plan = _install([{
        "point": "http.request", "action": "status", "status": 503,
        "match": {"route": "/v1/jobs/{id}/result"}, "times": 2,
        "delay_s": 0.01,
    }])
    retrier = Client(
        port=daemon.port, timeout=30.0, retries=3, backoff_s=0.01
    )
    served = retrier.result_bytes(job["id"]).decode("utf-8")
    assert served == _check_json([str(TRACE), "--tool", "FastTrack"])
    # Both 503s actually fired before the success.
    assert plan.report()[0]["fired"] == 2


def test_client_retries_through_connection_reset(daemon):
    plan = _install([{
        "point": "http.request", "action": "reset",
        "match": {"route": "/healthz"},
    }])
    retrier = Client(
        port=daemon.port, timeout=10.0, retries=2, backoff_s=0.01
    )
    assert retrier.healthz()["status"] == "ok"
    assert plan.report()[0]["fired"] == 1


def test_stalled_response_is_served_normally(daemon):
    _install([{
        "point": "http.request", "action": "stall", "delay_s": 0.3,
        "match": {"route": "/healthz"},
    }])
    client = Client(port=daemon.port, timeout=10.0)
    started = time.monotonic()
    assert client.healthz()["status"] == "ok"
    assert time.monotonic() - started >= 0.3


def test_submit_retry_after_reset_lands_exactly_one_job(daemon):
    # The reset kills the first POST before the daemon accepts it; the
    # retry (same idempotency key) must land exactly one job.
    plan = _install([{
        "point": "http.request", "action": "reset",
        "match": {"method": "POST", "route": "/v1/jobs"},
    }])
    retrier = Client(
        port=daemon.port, timeout=30.0, retries=2, backoff_s=0.01
    )
    job = retrier.submit(path=str(TRACE), tools=["FastTrack"])
    assert plan.report()[0]["fired"] == 1
    jobs = retrier.jobs()
    assert [record["id"] for record in jobs] == [job["id"]]
    document = retrier.wait(job["id"], timeout=60.0, poll=0.05)
    assert document["schema"] == "repro.result/1"


def test_duplicate_key_maps_to_existing_job(daemon):
    client = Client(port=daemon.port, timeout=30.0)
    first = client.submit(text=TRACE.read_text(), key="chaos-key-1")
    again = client.submit(text=TRACE.read_text(), key="chaos-key-1")
    assert again["id"] == first["id"]
    assert again.get("duplicate") is True
    assert len(client.jobs()) == 1


def test_fresh_submissions_stay_separate_jobs(daemon):
    # Auto-generated keys are per-call: identical traces submitted twice
    # are two jobs, not a dedup.
    client = Client(port=daemon.port, timeout=30.0)
    first = client.submit(text=TRACE.read_text())
    second = client.submit(text=TRACE.read_text())
    assert first["id"] != second["id"]


def test_fresh_key_lookup_reads_no_other_job(tmp_path, monkeypatch):
    # 500 finished jobs in the store: a submission with a fresh key is
    # answered from the in-memory index, not by reading every record.
    store = JobStore(str(tmp_path / "store"))
    for index in range(500):
        job_dir = Path(store.job_dir(f"{index:016x}"))
        job_dir.mkdir()
        (job_dir / "job.json").write_text(json.dumps({
            "id": job_dir.name, "state": "done", "finished": time.time(),
            "key": f"old-{index}",
        }))
    handle = start_in_thread(ServiceConfig(
        port=0, workers=0, store_dir=str(tmp_path / "store"),
    ))
    reads = []
    read = JobStore.read

    def counted(self, job_id):
        reads.append(job_id)
        return read(self, job_id)

    monkeypatch.setattr(JobStore, "read", counted)
    try:
        client = Client(port=handle.port, timeout=30.0)
        job = client.submit(path=str(TRACE), key="fresh-key")
        assert len(reads) <= 2, len(reads)
        again = client.submit(path=str(TRACE), key="old-7")
        assert again["id"] == f"{7:016x}" and again["duplicate"] is True
        assert job["id"] != again["id"]
    finally:
        handle.stop(grace=5.0)


def test_key_is_a_duplicate_after_a_restart(tmp_path):
    config = ServiceConfig(port=0, workers=1, store_dir=str(tmp_path / "s"))
    handle = start_in_thread(config)
    try:
        client = Client(port=handle.port, timeout=30.0)
        first = client.submit(path=str(TRACE), key="across-restart")
        client.wait(first["id"], timeout=60.0, poll=0.05)
    finally:
        handle.stop(grace=5.0)
    handle = start_in_thread(config)
    try:
        client = Client(port=handle.port, timeout=30.0)
        again = client.submit(path=str(TRACE), key="across-restart")
        assert again["id"] == first["id"]
        assert again["duplicate"] is True
        assert len(client.jobs()) == 1
    finally:
        handle.stop(grace=5.0)


def test_interleaved_submissions_with_one_key_make_one_job(tmp_path):
    # Both submissions look the key up before either creates its job;
    # the store's check-and-insert still lets only one through.
    handle = start_in_thread(ServiceConfig(
        port=0, workers=1, store_dir=str(tmp_path / "store"),
    ))
    store = handle.service.store
    both_looked_up = threading.Barrier(2, timeout=10.0)
    find_by_key = store.find_by_key

    def find_then_wait(key):
        found = find_by_key(key)
        both_looked_up.wait()
        return found

    store.find_by_key = find_then_wait
    responses = []

    def submit():
        client = Client(port=handle.port, timeout=30.0)
        responses.append(client.submit(path=str(TRACE), key="raced"))

    try:
        threads = [threading.Thread(target=submit) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert len(responses) == 2
        assert responses[0]["id"] == responses[1]["id"]
        assert sorted(bool(r.get("duplicate")) for r in responses) == [
            False, True,
        ]
        assert len(Client(port=handle.port).jobs()) == 1
    finally:
        handle.stop(grace=5.0)


# -- job deadline and requeue -------------------------------------------------


def test_stuck_job_requeued_and_finishes_byte_identical(tmp_path):
    # Shard 0 hangs for 1s against a 0.3s job deadline: attempt one
    # times out after checkpointing shard 0, the requeue resumes from
    # that checkpoint, and the final bytes match the CLI exactly.
    _install([{
        "point": "worker.hang", "action": "hang", "delay_s": 1.0,
        "match": {"shard": 0, "attempt": 0},
    }])
    handle = start_in_thread(ServiceConfig(
        port=0, workers=1, store_dir=str(tmp_path / "store"),
        job_timeout=0.3,
    ))
    try:
        client = Client(port=handle.port, timeout=30.0)
        job = client.submit(
            path=str(TRACE), tools=["FastTrack"], shards=2
        )
        client.wait(job["id"], timeout=60.0, poll=0.05)
        record = client.status(job["id"])
        assert record["state"] == "done"
        assert record["requeues"] == 1
        served = client.result_bytes(job["id"]).decode("utf-8")
        expected = _check_json(
            [str(TRACE), "--tool", "FastTrack", "--shards", "2"]
        )
        assert served == expected
    finally:
        handle.stop(grace=5.0)


def test_job_requeue_budget_is_finite(tmp_path):
    # A job that times out on every attempt must end ``failed`` with an
    # explicit gave-up error, not requeue forever.  Three shards, one
    # 0.6s hang each, a 0.2s deadline: every attempt checkpoints one
    # shard and still blows the budget.
    _install([{
        "point": "worker.hang", "action": "hang", "delay_s": 0.6,
        "times": 99,
    }])
    handle = start_in_thread(ServiceConfig(
        port=0, workers=1, store_dir=str(tmp_path / "store"),
        job_timeout=0.2, max_job_requeues=1,
    ))
    try:
        client = Client(port=handle.port, timeout=30.0)
        job = client.submit(
            path=str(TRACE), tools=["FastTrack"], shards=3
        )
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            record = client.status(job["id"])
            if record["state"] == "failed":
                break
            time.sleep(0.05)
        assert record["state"] == "failed"
        assert "gave up after 1 requeue(s)" in record["error"]
        assert record["requeues"] == 1
    finally:
        handle.stop(grace=5.0)


def test_torn_classifier_checkpoint_heals_across_jobs(daemon):
    # The first job's classifier checkpoint is torn; the next job on the
    # resident partition recomputes it, and both serve the CLI's bytes.
    expected = {
        tool: _check_json([str(TRACE), "--tool", tool])
        for tool in ("FastTrack", "WCP")
    }
    plan = _install([{
        "point": "classifier.write", "action": "torn",
        "match": {"shard": 0},
    }])
    client = Client(port=daemon.port, timeout=30.0)
    for tool in ("FastTrack", "WCP"):
        job = client.submit(path=str(TRACE), tools=[tool])
        client.wait(job["id"], timeout=60.0, poll=0.05)
        served = client.result_bytes(job["id"]).decode("utf-8")
        assert served == expected[tool]
    assert plan.report()[0]["fired"] == 1


# -- store durability ---------------------------------------------------------


def test_torn_record_write_is_unreadable_then_scrubbed(tmp_path):
    _install([{
        "point": "store.write", "action": "torn",
        "match": {"file": "job.json"},
    }])
    store = JobStore(str(tmp_path / "store"))
    record = store.create(
        {"tools": ["FastTrack"], "shards": 1, "format": "text"}
    )
    # The torn record must read as absent, never as garbage...
    assert store.read(record["id"]) is None
    # ...and the startup scrub must quarantine the whole job directory.
    assert store.scrub() == [record["id"]]
    quarantined = Path(store.quarantine_dir) / record["id"]
    assert quarantined.is_dir()
    assert not Path(store.job_dir(record["id"])).exists()
    assert store.list_jobs() == []


def test_scrub_keeps_healthy_jobs(tmp_path):
    store = JobStore(str(tmp_path / "store"))
    healthy = store.create(
        {"tools": ["FastTrack"], "shards": 1, "format": "text"}
    )
    garbage = Path(store.jobs_dir) / "deadbeef"
    garbage.mkdir()
    (garbage / "job.json").write_text("{ torn mid-wri")
    assert store.scrub() == ["deadbeef"]
    assert [r["id"] for r in store.list_jobs()] == [healthy["id"]]


def test_daemon_start_scrubs_poisoned_store(tmp_path):
    # A poisoned job directory from a previous crash must not break
    # startup recovery: the daemon boots, quarantines it, and serves.
    store_dir = tmp_path / "store"
    poisoned = store_dir / "jobs" / "0000deadbeef0000"
    poisoned.mkdir(parents=True)
    (poisoned / "job.json").write_text("\x00\x00 not a record")
    handle = start_in_thread(
        ServiceConfig(port=0, workers=1, store_dir=str(store_dir))
    )
    try:
        client = Client(port=handle.port, timeout=10.0)
        assert client.healthz()["status"] == "ok"
        assert client.jobs() == []
        assert (store_dir / "quarantine" / "0000deadbeef0000").is_dir()
    finally:
        handle.stop(grace=5.0)
