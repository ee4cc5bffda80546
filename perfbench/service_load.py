"""A ``repro serve`` daemon and a closed-loop load generator for it.

The benchmark starts the daemon as a subprocess, times how long it
takes to answer ``/healthz``, drives it from client threads in this
process, and stops it with SIGTERM (its drain path) before returning.

Closed loop: each client thread submits its next job only after the
previous job's result bytes have arrived.  A thread's unit of work is
one *fresh* trace — bytes the daemon has never seen — submitted for
FastTrack, which parses and partitions it, then for WCP and DJIT+, which
reuse that resident partition.
"""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from repro.service.client import Client, JobFailed, ServiceError

#: Seconds between status polls: a fifth of a ~0.1 s job, and few
#: enough requests that polling does not compete with analysis for the
#: daemon's interpreter lock.
POLL_S = 0.02

#: The tool sequence for one fresh trace (first creates the partition).
TOOLS = ("FastTrack", "WCP", "DJIT+")

#: Daemon job-runner threads, and client threads in the load process:
#: one per core of a 2-core machine.
WORKERS = 2
CLIENTS = 2

#: How far past its measuring time a slow load run may go to reach its
#: job count, as a multiple of that time.  It bounds a run's length: at
#: half the usual speed the job count is reached well before it, and a
#: run that still falls short fails its ``min_jobs`` gate.
OVERRUN = 2.5

#: Seconds a daemon may take to answer ``/healthz`` after its spawn.
START_TIMEOUT_S = 60.0

#: ``--ttl`` for the daemon.  The TTL evictor treats a partition whose
#: ``.last_used`` stamp is not written yet — one still being created — as
#: last used at the epoch, so with the default TTL its first sweep (30 s
#: after start) can delete a partition mid-creation and fail that job.
#: A TTL beyond the epoch's age keeps every partition for the run.
NO_EVICTION_TTL = "1e10"

_LISTENING = re.compile(rb"listening on http://([\d.]+):(\d+)")


class Daemon:
    """One ``python -m repro serve`` process with its own store."""

    def __init__(self, env: Dict[str, str], workdir: str, name: str) -> None:
        self.env = env
        self.store = os.path.join(workdir, name)
        self.log_path = self.store + ".log"
        self.process: Optional[subprocess.Popen] = None
        self.client: Optional[Client] = None

    def start(self) -> float:
        """Spawn the daemon; return seconds until ``/healthz`` answers."""
        started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--store", self.store, "--workers", str(WORKERS),
                 "--ttl", NO_EVICTION_TTL],
                stdout=subprocess.DEVNULL, stderr=log, env=self.env,
            )
        deadline = started + START_TIMEOUT_S
        while self.client is None:
            self._check_alive(deadline)
            with open(self.log_path, "rb") as log:
                match = _LISTENING.search(log.read())
            if match:
                self.client = Client(
                    match.group(1).decode(), int(match.group(2)), timeout=60.0
                )
            else:
                time.sleep(0.002)
        while True:
            self._check_alive(deadline)
            try:
                self.client.healthz()
                return time.perf_counter() - started
            except OSError:
                time.sleep(0.002)

    def _check_alive(self, deadline: float) -> None:
        if self.process.poll() is not None:
            raise RuntimeError(
                f"repro serve exited with {self.process.returncode}"
            )
        if time.perf_counter() > deadline:
            raise RuntimeError("repro serve did not come up in time")

    def cpu_seconds(self) -> float:
        """User+system CPU seconds the daemon has used so far."""
        with open(f"/proc/{self.process.pid}/stat", "r") as stream:
            fields = stream.read().rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        return (int(fields[11]) + int(fields[12])) / ticks

    def peak_rss_mb(self) -> float:
        """The daemon's high-water resident set size (``VmHWM``)."""
        with open(f"/proc/{self.process.pid}/status", "r") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM (drain), wait; kill if the drain does not finish."""
        if self.process is None or self.process.poll() is not None:
            return
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


def partition_counts(metrics_text: str) -> Dict[str, float]:
    """``repro_partitions_total`` by outcome, from ``/metrics`` text."""
    counts = {}
    for match in re.finditer(
        r'^repro_partitions_total\{outcome="(\w+)"\}\s+(\S+)$',
        metrics_text, re.M,
    ):
        counts[match.group(1)] = float(match.group(2))
    return counts


@dataclass
class Job:
    tool: str
    fresh: bool
    base: int
    latency_s: float = 0.0
    submit_s: float = 0.0
    result_s: float = 0.0
    queue_wait_s: float = 0.0
    run_s: float = 0.0
    ok: bool = False
    body: bytes = b""


@dataclass
class LoadRun:
    jobs: List[Job] = field(default_factory=list)
    wall_s: float = 0.0
    errors: List[str] = field(default_factory=list)


def _one_job(client: Client, path: str, job: Job) -> None:
    """Submit, poll until finished, fetch the bytes; time each call."""
    started = time.perf_counter()
    accepted = client.submit(path=path, tools=[job.tool])
    job.submit_s = time.perf_counter() - started
    while True:
        record = client.status(accepted["id"])
        if record["state"] in ("done", "failed"):
            break
        time.sleep(POLL_S)
    result_started = time.perf_counter()
    job.body = client.result_bytes(accepted["id"])
    job.result_s = time.perf_counter() - result_started
    job.latency_s = time.perf_counter() - started
    job.queue_wait_s = max(0.0, record["started"] - record["created"])
    job.run_s = record["finished"] - record["started"]
    job.ok = True


def closed_loop(
    client: Client,
    make_trace: Callable[[int], tuple],
    numbers: Iterator[int],
    seconds: float,
    min_jobs: int,
) -> LoadRun:
    """Run :data:`CLIENTS` closed-loop client threads for at least
    ``seconds`` and ``min_jobs`` jobs, but start no trace after
    :data:`OVERRUN` times ``seconds``; a thread always finishes its
    current trace's job sequence, so the created:reused mix stays 1:2.

    ``make_trace(n)`` returns ``(base_index, path)`` for the n-th fresh
    trace, n drawn from ``numbers`` (shared by every load run against
    one daemon, so no trace is fresh twice); it runs outside any job's
    latency.
    """
    run = LoadRun()
    lock = threading.Lock()
    started = time.perf_counter()
    deadline = started + seconds
    cutoff = started + OVERRUN * seconds

    def client_thread() -> None:
        while True:
            with lock:
                now = time.perf_counter()
                if (run.errors or now >= cutoff
                        or (now >= deadline and len(run.jobs) >= min_jobs)):
                    return
                number = next(numbers)
            base, path = make_trace(number)
            try:
                for position, tool in enumerate(TOOLS):
                    job = Job(tool=tool, fresh=position == 0, base=base)
                    with lock:
                        run.jobs.append(job)
                    _one_job(client, path, job)
            except (OSError, http.client.HTTPException, ServiceError,
                    JobFailed, KeyError) as error:
                with lock:
                    run.errors.append(f"{job.tool}: {error!r}")
            finally:
                os.unlink(path)

    workers = [threading.Thread(target=client_thread) for _ in range(CLIENTS)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    run.wall_s = time.perf_counter() - started
    return run
