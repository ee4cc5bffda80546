"""Disk-backed job/result store with TTL eviction.

Layout, one directory per job under the store root::

    STORE/jobs/<id>/
      job.json          the job record (state machine below); atomic writes
      trace.text        the spooled upload (``trace.jsonl`` for JSONL)
      result.json       the final result document (terminal jobs only)
    STORE/partitions/<digest>-<fmt>-s<shards>/
                        one *resident partition* per distinct (trace
                        content, format, shard count): the engine working
                        directory — v3 mmap shard buffers, intern tables,
                        per-(tool, shard) checkpoints — shared by every
                        job whose trace hashes to the same digest, so N
                        tools × M resubmissions partition the trace once.
                        ``.last_used`` tracks TTL eviction; in-use
                        partitions are pinned by the daemon's refcounts.

Job states: ``queued → running → done | failed``.  A daemon restart
re-enqueues every ``queued``/``running`` job it finds (the engine skips
shards whose checkpoints exist), so accepted work survives kills.
Terminal jobs are evicted ``ttl_seconds`` after they finish.

Job ids embed a millisecond timestamp so listing order is creation
order, plus random bits so concurrent submissions never collide.
Clients may also attach their own idempotency ``key`` to a submission;
:meth:`JobStore.find_by_key` lets the daemon answer a resubmission with
the job it already accepted instead of analyzing the trace twice.  Keys
are looked up in an in-memory ``key → job id`` index, built once from a
full pass over the records (the daemon's restart recovery makes that
pass) and kept current by :meth:`JobStore.create` and
:meth:`JobStore.delete`, so a submission costs the same however many
jobs the store holds.

Records are written temp-file + ``fsync`` + ``os.replace``, so a killed
daemon leaves complete records or none.  Against storage that tears
writes anyway, :meth:`JobStore.scrub` (run at startup, before recovery)
moves any job directory whose record no longer parses into
``STORE/quarantine/`` — kept for post-mortems, never re-enqueued —
recorded as ``repro_degraded_total{reason="store_quarantined"}``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import threading
import time
from typing import Dict, List, Optional, Set

from repro import faults

ACTIVE_STATES = ("queued", "running")
TERMINAL_STATES = ("done", "failed")


def _atomic_write(path: str, text: str) -> None:
    if faults.active():
        spec = faults.fire(
            "store.write",
            file=os.path.basename(path),
            job=os.path.basename(os.path.dirname(path)),
        )
        if spec is not None and spec.action == "torn":
            # Simulate a torn write that "succeeded": only a prefix of
            # the record reached the disk.  Readers must treat the file
            # as absent and the scrub must quarantine the job.
            text = text[: max(1, len(text) // 2)]
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as stream:
            stream.write(text)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class DuplicateKey(Exception):
    """A new job's idempotency key already names a job, ``record``."""

    def __init__(self, record: Dict) -> None:
        super().__init__(f"key {record.get('key')!r} names job {record['id']}")
        self.record = record


class JobStore:
    """Handle on one store root; safe for concurrent daemon threads."""

    def __init__(self, root: str, ttl_seconds: float = 3600.0) -> None:
        self.root = root
        self.ttl_seconds = ttl_seconds
        self.jobs_dir = os.path.join(root, "jobs")
        self.partitions_dir = os.path.join(root, "partitions")
        self.quarantine_dir = os.path.join(root, "quarantine")
        os.makedirs(self.jobs_dir, exist_ok=True)
        self._lock = threading.Lock()
        self._counter = 0
        # Idempotency key → job id; built on first use, under the lock.
        self._keys: Optional[Dict[str, str]] = None

    # -- paths ---------------------------------------------------------------

    def job_dir(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, job_id)

    def _job_json(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "job.json")

    def trace_path(self, job_id: str, fmt: str) -> str:
        return os.path.join(self.job_dir(job_id), f"trace.{fmt}")

    def result_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "result.json")

    # -- resident partitions -------------------------------------------------

    def partition_key(self, job_id: str, fmt: str, shards: int) -> str:
        """The resident-partition identity for a job's trace.

        The key is content-addressed — a streamed SHA-256 of the spooled
        trace bytes — plus the format and shard count (different shard
        counts are different partitions), so two jobs submitting the
        same trace land on the same engine working directory no matter
        when or by whom they were submitted.
        """
        digest = hashlib.sha256()
        with open(self.trace_path(job_id, fmt), "rb") as stream:
            for chunk in iter(lambda: stream.read(1 << 20), b""):
                digest.update(chunk)
        return f"{digest.hexdigest()[:16]}-{fmt}-s{shards}"

    def partition_dir(self, key: str) -> str:
        return os.path.join(self.partitions_dir, key)

    def touch_partition(self, key: str) -> None:
        """Refresh a partition's ``.last_used`` stamp (TTL bookkeeping)."""
        path = self.partition_dir(key)
        os.makedirs(path, exist_ok=True)
        stamp = os.path.join(path, ".last_used")
        with open(stamp, "a", encoding="utf-8"):
            pass
        os.utime(stamp)

    def evict_partitions(
        self,
        in_use: Set[str],
        now: Optional[float] = None,
    ) -> List[str]:
        """Remove resident partitions idle past the TTL; returns the keys.

        ``in_use`` pins partitions with a live analysis (the daemon
        passes its refcounted key set) — they are never evicted
        regardless of stamp age.
        """
        now = time.time() if now is None else now
        evicted: List[str] = []
        try:
            names = sorted(os.listdir(self.partitions_dir))
        except OSError:
            return evicted
        for name in names:
            if name in in_use:
                continue
            path = os.path.join(self.partitions_dir, name)
            if not os.path.isdir(path):
                continue
            stamp = os.path.join(path, ".last_used")
            try:
                last_used = os.stat(stamp).st_mtime
            except OSError:
                last_used = 0.0
            if now - last_used >= self.ttl_seconds:
                shutil.rmtree(path, ignore_errors=True)
                evicted.append(name)
        return evicted

    # -- lifecycle -----------------------------------------------------------

    def _new_id(self) -> str:
        with self._lock:
            self._counter += 1
            serial = self._counter
        # Timestamp, then serial, then randomness: ids from one store
        # instance sort in creation order even within a millisecond.
        return (
            f"{int(time.time() * 1000):013x}"
            f"{serial % 0x10000:04x}{os.urandom(3).hex()}"
        )

    def create(self, spec: Dict, key: Optional[str] = None) -> Dict:
        """Create a job directory and its initial ``queued`` record.

        A ``key`` that already names a job raises :class:`DuplicateKey`
        with that job's record.  The check and the insert happen under
        the store lock, so concurrent submissions with one key make one
        job.
        """
        job_id = self._new_id()
        record = {
            "id": job_id,
            "state": "queued",
            "created": time.time(),
            "started": None,
            "finished": None,
            "error": None,
            "progress": {},
            "key": key,
            **spec,
        }
        with self._lock:
            if key:
                existing = self._lookup(key)
                if existing is not None:
                    raise DuplicateKey(existing)
            os.makedirs(self.job_dir(job_id))
            _atomic_write(
                self._job_json(job_id), json.dumps(record, indent=2) + "\n"
            )
            if key:
                self._keys[key] = job_id
        return record

    def read(self, job_id: str) -> Optional[Dict]:
        try:
            with open(self._job_json(job_id), "r", encoding="utf-8") as f:
                return json.load(f)
        except (OSError, json.JSONDecodeError):
            return None

    def update(self, job_id: str, **fields) -> Optional[Dict]:
        """Read-modify-write the record under the store lock."""
        with self._lock:
            record = self.read(job_id)
            if record is None:
                return None
            record.update(fields)
            _atomic_write(
                self._job_json(job_id), json.dumps(record, indent=2) + "\n"
            )
            return record

    def delete(self, job_id: str) -> None:
        record = self.read(job_id)
        key = record.get("key") if record is not None else None
        with self._lock:
            if key and self._keys and self._keys.get(key) == job_id:
                del self._keys[key]
        shutil.rmtree(self.job_dir(job_id), ignore_errors=True)

    # -- results -------------------------------------------------------------

    def write_result(self, job_id: str, document: Dict) -> None:
        _atomic_write(
            self.result_path(job_id),
            json.dumps(document, sort_keys=True, indent=2) + "\n",
        )

    def read_result(self, job_id: str) -> Optional[Dict]:
        try:
            with open(self.result_path(job_id), "r", encoding="utf-8") as f:
                return json.load(f)
        except (OSError, json.JSONDecodeError):
            return None

    # -- enumeration and recovery --------------------------------------------

    def list_jobs(self) -> List[Dict]:
        """Every readable job record, in creation (= id) order."""
        records = []
        try:
            names = sorted(os.listdir(self.jobs_dir))
        except OSError:
            return records
        for name in names:
            record = self.read(name)
            if record is not None:
                records.append(record)
        return records

    def recoverable(self) -> List[Dict]:
        """Jobs a restarted daemon must re-enqueue: accepted, not
        finished — whether they were still queued or mid-analysis.  The
        same pass over the records builds the idempotency-key index."""
        records = self.list_jobs()
        with self._lock:
            if self._keys is None:
                self._index_keys(records)
        return [
            record
            for record in records
            if record.get("state") in ACTIVE_STATES
        ]

    def find_by_key(self, key: str) -> Optional[Dict]:
        """The job a client already submitted under this idempotency
        key, if any — a resubmission (after a lost 202, a connection
        reset, a client retry) maps back to it instead of duplicating
        the analysis."""
        with self._lock:
            return self._lookup(key)

    def _index_keys(self, records: List[Dict]) -> None:
        """Index every record's key; the first job to use a key keeps it."""
        self._keys = {}
        for record in records:
            if record.get("key"):
                self._keys.setdefault(record["key"], record["id"])

    def _lookup(self, key: str) -> Optional[Dict]:
        """The record indexed under ``key``; a record that no longer
        reads, or no longer carries the key, is a miss.  Call with the
        lock held."""
        if self._keys is None:
            self._index_keys(self.list_jobs())
        job_id = self._keys.get(key)
        record = self.read(job_id) if job_id is not None else None
        if record is None or record.get("key") != key:
            return None
        return record

    def scrub(self) -> List[str]:
        """Quarantine job directories whose record no longer parses.

        Run at daemon startup, *before* restart recovery: a torn
        ``job.json`` (power loss, full disk, bad storage) must neither
        crash recovery nor be silently deleted.  The whole directory is
        moved to ``STORE/quarantine/`` for post-mortems and the incident
        is recorded as ``repro_degraded_total{reason="store_quarantined"}``.
        Returns the quarantined job ids.
        """
        quarantined: List[str] = []
        try:
            names = sorted(os.listdir(self.jobs_dir))
        except OSError:
            return quarantined
        for name in names:
            path = os.path.join(self.jobs_dir, name)
            if not os.path.isdir(path):
                continue
            if self.read(name) is not None:
                continue
            os.makedirs(self.quarantine_dir, exist_ok=True)
            destination = os.path.join(self.quarantine_dir, name)
            if os.path.exists(destination):
                shutil.rmtree(destination, ignore_errors=True)
            try:
                shutil.move(path, destination)
            except OSError:
                continue
            quarantined.append(name)
            from repro import obs

            obs.record_degraded("store_quarantined", job=name)
        return quarantined

    # -- TTL eviction --------------------------------------------------------

    def evict_expired(self, now: Optional[float] = None) -> List[str]:
        """Remove terminal jobs whose ``finished`` stamp is older than the
        TTL; returns the evicted ids."""
        now = time.time() if now is None else now
        evicted = []
        for record in self.list_jobs():
            if record.get("state") not in TERMINAL_STATES:
                continue
            finished = record.get("finished")
            if finished is not None and now - finished >= self.ttl_seconds:
                self.delete(record["id"])
                evicted.append(record["id"])
        return evicted
