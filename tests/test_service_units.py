"""Unit tests for the service building blocks: metrics registry, bounded
job queue, disk job store, and the URL router."""

import os
import sys
import threading

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.queue import JobQueue, QueueClosed, QueueFull
from repro.service.routes import Router
from repro.service.store import DuplicateKey, JobStore


class TestMetrics:
    def test_counter_renders_with_sorted_labels(self):
        registry = MetricsRegistry()
        jobs = registry.counter("jobs_total", "jobs")
        jobs.inc(state="done")
        jobs.inc(2, state="failed")
        text = registry.render()
        assert "# HELP jobs_total jobs" in text
        assert "# TYPE jobs_total counter" in text
        assert 'jobs_total{state="done"} 1' in text
        assert 'jobs_total{state="failed"} 2' in text

    def test_counter_rejects_negative_increment(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c_total", "c").inc(-1)

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        depth = registry.gauge("depth", "queue depth")
        depth.inc()
        depth.inc()
        depth.dec()
        assert depth.value() == 1
        depth.set(7.5)
        assert "depth 7.5" in registry.render()

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        latency = registry.histogram(
            "lat_seconds", "latency", buckets=(0.1, 1.0)
        )
        latency.observe(0.05, route="/x")
        latency.observe(0.5, route="/x")
        latency.observe(5.0, route="/x")
        text = registry.render()
        assert 'lat_seconds_bucket{route="/x",le="0.1"} 1' in text
        assert 'lat_seconds_bucket{route="/x",le="1"} 2' in text
        assert 'lat_seconds_bucket{route="/x",le="+Inf"} 3' in text
        assert 'lat_seconds_count{route="/x"} 3' in text
        assert latency.count(route="/x") == 3

    def test_registration_is_idempotent_but_type_checked(self):
        registry = MetricsRegistry()
        first = registry.counter("n_total", "n")
        assert registry.counter("n_total", "n") is first
        with pytest.raises(ValueError):
            registry.gauge("n_total", "n")

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        counter = registry.counter("e_total", "e")
        counter.inc(path='a"b\\c\nd')
        assert 'path="a\\"b\\\\c\\nd"' in registry.render()


class TestJobQueue:
    def test_fifo_and_depth(self):
        queue = JobQueue(maxsize=4)
        queue.put("a")
        queue.put("b")
        assert queue.depth == 2
        assert queue.get(timeout=0.01) == "a"
        assert queue.get(timeout=0.01) == "b"
        assert queue.get(timeout=0.01) is None

    def test_put_fails_fast_at_capacity(self):
        queue = JobQueue(maxsize=1)
        queue.put("a")
        with pytest.raises(QueueFull) as excinfo:
            queue.put("b")
        assert excinfo.value.depth == 1
        assert excinfo.value.maxsize == 1
        # Restart recovery forces past the bound.
        queue.put("b", force=True)
        assert queue.depth == 2

    def test_close_rejects_producers_and_wakes_consumers(self):
        queue = JobQueue(maxsize=2)
        seen = []

        def consume():
            seen.append(queue.get(timeout=5.0))

        thread = threading.Thread(target=consume)
        thread.start()
        queue.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert seen == [None]
        with pytest.raises(QueueClosed):
            queue.put("x")

    def test_rejects_non_positive_maxsize(self):
        with pytest.raises(ValueError):
            JobQueue(maxsize=0)


SPEC = {"tools": ["FastTrack"], "shards": 1, "format": "text"}


class TestJobStore:
    def test_create_read_update_roundtrip(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.create(SPEC)
        assert record["state"] == "queued"
        assert store.read(record["id"])["tools"] == ["FastTrack"]
        store.update(record["id"], state="running", started=1.0)
        assert store.read(record["id"])["state"] == "running"
        assert store.read("no-such-job") is None
        assert store.update("no-such-job", state="done") is None

    def test_listing_is_creation_order(self, tmp_path):
        store = JobStore(str(tmp_path))
        ids = [store.create(SPEC)["id"] for _ in range(5)]
        assert [r["id"] for r in store.list_jobs()] == ids

    def test_result_roundtrip(self, tmp_path):
        store = JobStore(str(tmp_path))
        job_id = store.create(SPEC)["id"]
        assert store.read_result(job_id) is None
        store.write_result(job_id, {"schema": "repro.result/1", "tool": "F"})
        assert store.read_result(job_id)["tool"] == "F"

    def test_recoverable_excludes_terminal_jobs(self, tmp_path):
        store = JobStore(str(tmp_path))
        queued = store.create(SPEC)["id"]
        running = store.create(SPEC)["id"]
        done = store.create(SPEC)["id"]
        store.update(running, state="running")
        store.update(done, state="done", finished=1.0)
        assert {r["id"] for r in store.recoverable()} == {queued, running}

    def test_ttl_evicts_only_expired_terminal_jobs(self, tmp_path):
        store = JobStore(str(tmp_path), ttl_seconds=100.0)
        fresh = store.create(SPEC)["id"]
        stale = store.create(SPEC)["id"]
        active = store.create(SPEC)["id"]
        store.update(fresh, state="done", finished=1000.0)
        store.update(stale, state="failed", finished=500.0)
        evicted = store.evict_expired(now=1050.0)
        assert evicted == [stale]
        assert store.read(stale) is None
        assert store.read(fresh) is not None
        assert store.read(active) is not None

    def test_taken_key_raises_with_the_first_job(self, tmp_path):
        store = JobStore(str(tmp_path))
        first = store.create(SPEC, key="k")
        with pytest.raises(DuplicateKey) as excinfo:
            store.create(SPEC, key="k")
        assert excinfo.value.record["id"] == first["id"]
        assert [r["id"] for r in store.list_jobs()] == [first["id"]]
        assert store.find_by_key("k")["id"] == first["id"]
        assert store.find_by_key("other") is None

    def test_concurrent_creates_with_one_key_make_one_job(self, tmp_path):
        store = JobStore(str(tmp_path))
        created, duplicates = [], []
        start = threading.Barrier(8, timeout=10.0)

        def create():
            start.wait()
            try:
                created.append(store.create(SPEC, key="k")["id"])
            except DuplicateKey as duplicate:
                duplicates.append(duplicate.record["id"])

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=create) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert len(created) == 1
        assert duplicates == created * 7
        assert [r["id"] for r in store.list_jobs()] == created

    def test_delete_frees_the_key(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.delete(store.create(SPEC, key="k")["id"])
        assert store.find_by_key("k") is None
        assert store.create(SPEC, key="k")["key"] == "k"

    def test_index_is_built_from_the_records_on_disk(self, tmp_path):
        earlier = JobStore(str(tmp_path))
        first = earlier.create(SPEC, key="k")
        store = JobStore(str(tmp_path))
        assert store.find_by_key("k")["id"] == first["id"]
        with pytest.raises(DuplicateKey):
            store.create(SPEC, key="k")

    def test_record_without_the_key_is_a_miss(self, tmp_path):
        store = JobStore(str(tmp_path))
        gone = store.create(SPEC, key="gone")
        rekeyed = store.create(SPEC, key="rekeyed")
        # Changed behind the index's back: removed, and rewritten.
        os.unlink(os.path.join(store.job_dir(gone["id"]), "job.json"))
        store.update(rekeyed["id"], key="new")
        assert store.find_by_key("gone") is None
        assert store.find_by_key("rekeyed") is None
        assert store.create(SPEC, key="gone")["id"] != gone["id"]

    def _partition(self, store, key, last_used):
        store.touch_partition(key)
        stamp = os.path.join(store.partition_dir(key), ".last_used")
        os.utime(stamp, (last_used, last_used))

    def test_idle_partition_past_ttl_is_evicted(self, tmp_path):
        store = JobStore(str(tmp_path), ttl_seconds=100.0)
        self._partition(store, "idle", last_used=500.0)
        self._partition(store, "recent", last_used=1000.0)
        assert store.evict_partitions(set(), now=1050.0) == ["idle"]
        assert not os.path.exists(store.partition_dir("idle"))
        assert os.path.isdir(store.partition_dir("recent"))

    def test_pinned_partition_is_kept_past_ttl(self, tmp_path):
        store = JobStore(str(tmp_path), ttl_seconds=100.0)
        self._partition(store, "pinned", last_used=500.0)
        # A partition still being created has no stamp at all.
        os.makedirs(store.partition_dir("creating"))
        assert store.evict_partitions({"pinned", "creating"}, now=1050.0) == []
        assert os.path.isdir(store.partition_dir("pinned"))
        assert os.path.isdir(store.partition_dir("creating"))


class TestRouter:
    @staticmethod
    def _router():
        router = Router()
        router.add("POST", "/v1/jobs", "submit")
        router.add("GET", "/v1/jobs/{id}", "status")
        router.add("GET", "/v1/jobs/{id}/result", "result")
        return router

    def test_resolves_with_params(self):
        match = self._router().resolve("GET", "/v1/jobs/abc123")
        assert match.route.handler == "status"
        assert match.params == {"id": "abc123"}

    def test_longer_path_is_a_different_route(self):
        match = self._router().resolve("GET", "/v1/jobs/abc123/result")
        assert match.route.handler == "result"
        assert match.params == {"id": "abc123"}

    def test_unknown_path_versus_wrong_method(self):
        router = self._router()
        missing = router.resolve("GET", "/nope")
        assert missing.route is None and missing.allowed == ()
        wrong_method = router.resolve("DELETE", "/v1/jobs/abc")
        assert wrong_method.route is None
        assert wrong_method.allowed == ("GET",)

    def test_placeholder_does_not_span_segments(self):
        assert self._router().resolve("GET", "/v1/jobs/a/b/c").route is None

