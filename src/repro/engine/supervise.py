"""Self-healing shard supervision: retry, watchdog, quarantine, fallback.

PR 3's engine treated the first worker exception as fatal: one poison
shard, one OOM-killed pool process, or one hung worker failed the whole
``repro check`` run.  This module wraps shard execution in a supervisor
that keeps the run alive under partial failure:

* **Bounded retry with jittered backoff.**  A failed shard attempt is
  retried up to :attr:`RetryPolicy.max_attempts` times; the backoff
  delay is deterministic (seeded per ``(shard, attempt)``) so chaos runs
  replay identically.
* **Pool self-healing.**  A dead worker breaks its
  ``ProcessPoolExecutor``; an owned pool is rebuilt in place (shards
  already checkpointed on disk stay done), a borrowed pool — the
  daemon's persistent executor — falls back to the in-process
  sequential loop.  Both paths are recorded as
  ``repro_degraded_total{reason}``.
* **Shard watchdog.**  With :attr:`RetryPolicy.shard_timeout_s`, an
  in-flight shard that exceeds its deadline is killed (owned pool) or
  abandoned (borrowed pool — its late checkpoint write is atomic and
  harmless) and counted as a failed attempt.
* **Poison-shard quarantine.**  A shard that exhausts its attempts is
  quarantined: the run completes on the surviving shards and reports an
  explicit ``degraded`` block (never a fabricated clean result); the
  CLI maps it to exit code 4.  A run with *no* surviving shards raises
  :class:`QuarantineExhausted`.
* **Run deadline.**  :attr:`RetryPolicy.deadline_s` bounds the whole
  supervised run (the daemon's ``--job-timeout``); exceeding it raises
  :class:`EngineTimeout` after the owned pool is torn down.

Drain semantics are unchanged from PR 3: SIGTERM lets in-flight shards
checkpoint, then :class:`~repro.engine.worker.DrainRequested` propagates
— a drain is an orderly stop, not a failure, so it is never retried.
"""

from __future__ import annotations

import concurrent.futures
import heapq
import multiprocessing
import random
import time
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.engine.checkpoint import Workdir
from repro.engine.worker import DrainRequested, drain_requested, run_shard

__all__ = [
    "EngineTimeout",
    "QuarantineExhausted",
    "RetryPolicy",
    "ShardFailure",
    "backoff_delay",
    "run_supervised",
]


class EngineTimeout(RuntimeError):
    """A supervised run exceeded its overall deadline.

    Finished shards are checkpointed; re-running with the same working
    directory resumes from them (the daemon uses this to requeue stuck
    jobs without losing progress).
    """


class QuarantineExhausted(RuntimeError):
    """Every shard was quarantined — there is no partial result to report."""


class RetryPolicy:
    """Knobs for the supervisor; the defaults are the CLI's defaults."""

    __slots__ = (
        "max_attempts", "backoff_base_s", "backoff_cap_s",
        "shard_timeout_s", "deadline_s", "max_pool_rebuilds", "seed",
    )

    def __init__(
        self,
        max_attempts: int = 3,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        shard_timeout_s: Optional[float] = None,
        deadline_s: Optional[float] = None,
        max_pool_rebuilds: int = 3,
        seed: int = 0,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.shard_timeout_s = shard_timeout_s
        self.deadline_s = deadline_s
        self.max_pool_rebuilds = max_pool_rebuilds
        self.seed = seed


class ShardFailure:
    """The post-mortem of one quarantined shard."""

    __slots__ = ("shard", "attempts", "error")

    def __init__(self, shard: int, attempts: int, error: str) -> None:
        self.shard = shard
        self.attempts = attempts
        self.error = error

    def to_json(self) -> Dict:
        return {
            "shard": self.shard,
            "attempts": self.attempts,
            "error": self.error,
        }


def backoff_delay(policy: RetryPolicy, shard: int, attempt: int) -> float:
    """Exponential backoff with deterministic jitter.

    Jitter is drawn from a ``Random`` seeded by ``(policy seed, shard,
    attempt)`` — retries of different shards decorrelate (no thundering
    herd against a recovering disk) while any given run replays the
    exact same schedule.
    """
    rng = random.Random(f"{policy.seed}:{shard}:{attempt}")
    raw = min(policy.backoff_cap_s, policy.backoff_base_s * (2 ** attempt))
    return raw * (0.5 + rng.random())


def _pick_start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _kill_pool(pool: concurrent.futures.Executor) -> None:
    """Hard-stop an owned pool, hung workers included.

    ``shutdown`` alone waits on (or abandons) running workers; a hung
    shard needs its process killed.  ``_processes`` is stdlib-internal
    but stable across the supported CPython range; when absent we fall
    back to a plain abandon-shutdown.
    """
    processes = getattr(pool, "_processes", None)
    if processes:
        for process in list(processes.values()):
            try:
                process.kill()
            except OSError:  # already gone
                pass
    pool.shutdown(wait=False, cancel_futures=True)


class _Supervisor:
    def __init__(
        self,
        root: str,
        pending: List[int],
        tool: str,
        tool_kwargs: Optional[Dict],
        classify: bool,
        policy: RetryPolicy,
        trace: Optional[Dict] = None,
    ) -> None:
        self.root = root
        self.pending = pending
        self.tool = tool
        self.tool_kwargs = tool_kwargs
        self.classify = classify
        self.policy = policy
        self.trace = trace
        self.workdir = Workdir(root)
        self.completed: set = set()
        self.failures: Dict[int, ShardFailure] = {}
        self.deadline = (
            time.monotonic() + policy.deadline_s
            if policy.deadline_s is not None
            else None
        )

    # -- shared bookkeeping ---------------------------------------------------

    def check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise EngineTimeout(
                f"engine run exceeded its {self.policy.deadline_s:g}s "
                "deadline; finished shards are checkpointed — resume with "
                "the same working directory"
            )

    def disk_complete(self, shard: int) -> bool:
        """Disk is the source of truth after a pool break: a worker may
        have checkpointed its shard and died before reporting."""
        return self.workdir.valid_result(self.tool, shard, self.classify)

    def drain_now(self) -> None:
        done = sum(1 for shard in self.pending if self.disk_complete(shard))
        raise DrainRequested(completed=done, total=len(self.pending))

    def submit_args(self, shard: int, attempt: int) -> Tuple:
        # The trailing trace context rides the same picklable tuple the
        # worker args do — that is the whole cross-process propagation
        # mechanism (fork, spawn, and the in-process fallback alike).
        return (
            self.root, shard, self.tool, self.tool_kwargs,
            self.classify, attempt, self.trace,
        )

    def handle_failure(self, shard: int, attempt: int, error: BaseException,
                       delayed: List) -> None:
        """A failed attempt: schedule a retry or quarantine the shard."""
        attempts_used = attempt + 1
        if attempts_used >= self.policy.max_attempts:
            self.quarantine(shard, attempts_used, error)
            return
        obs.record_degraded(
            "shard_retried", tool=self.tool, shard=shard,
            attempt=attempt, error=str(error),
        )
        ready_at = time.monotonic() + backoff_delay(
            self.policy, shard, attempt
        )
        heapq.heappush(delayed, (ready_at, shard, attempts_used))

    def quarantine(self, shard: int, attempts: int,
                   error: BaseException) -> None:
        self.failures[shard] = ShardFailure(shard, attempts, str(error))
        obs.record_degraded(
            "shard_quarantined", tool=self.tool, shard=shard,
            attempts=attempts, error=str(error),
        )

    # -- sequential execution (jobs=1, and the pool's fallback) ---------------

    def run_sequential(self, work: List[Tuple[int, int]]) -> None:
        """Run ``(shard, attempt)`` items in-process with the retry loop."""
        for shard, attempt in work:
            while True:
                if drain_requested():
                    self.drain_now()
                self.check_deadline()
                try:
                    run_shard(*self.submit_args(shard, attempt))
                except DrainRequested:
                    raise
                except Exception as error:
                    attempt += 1
                    if attempt >= self.policy.max_attempts:
                        self.quarantine(shard, attempt, error)
                        break
                    obs.record_degraded(
                        "shard_retried", tool=self.tool, shard=shard,
                        attempt=attempt - 1, error=str(error),
                    )
                    time.sleep(
                        backoff_delay(self.policy, shard, attempt - 1)
                    )
                else:
                    self.completed.add(shard)
                    break

    # -- pool execution -------------------------------------------------------

    def make_pool(self, jobs: int) -> concurrent.futures.Executor:
        context = multiprocessing.get_context(_pick_start_method())
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=min(jobs, max(1, len(self.pending))),
            mp_context=context,
        )

    def run_pool(
        self,
        jobs: int,
        executor: Optional[concurrent.futures.Executor],
    ) -> None:
        owns_pool = executor is None
        pool = self.make_pool(jobs) if owns_pool else executor
        max_inflight = getattr(pool, "_max_workers", None) or max(1, jobs)
        waiting = deque((shard, 0) for shard in self.pending)
        delayed: List = []  # heap of (ready_at, shard, attempt)
        inflight: Dict = {}  # future -> (shard, attempt, started)
        rebuilds = 0
        try:
            while waiting or delayed or inflight:
                self.check_deadline()
                draining = drain_requested()
                if draining and not inflight:
                    self.drain_now()
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    _, shard, attempt = heapq.heappop(delayed)
                    waiting.append((shard, attempt))
                submit_failed = False
                while (
                    waiting and not draining
                    and len(inflight) < max_inflight
                ):
                    shard, attempt = waiting.popleft()
                    try:
                        future = pool.submit(
                            run_shard, *self.submit_args(shard, attempt)
                        )
                    except (concurrent.futures.process.BrokenProcessPool,
                            RuntimeError):
                        # The pool broke between loop turns (or was shut
                        # down under us): re-queue the item and let the
                        # broken-pool handling below reconcile via disk.
                        waiting.appendleft((shard, attempt))
                        submit_failed = True
                        break
                    inflight[future] = (shard, attempt, time.monotonic())
                if not inflight and not submit_failed:
                    if delayed:
                        time.sleep(
                            min(0.05, max(0.0,
                                          delayed[0][0] - time.monotonic()))
                        )
                    continue
                done: set = set()
                if inflight:
                    done, _ = concurrent.futures.wait(
                        list(inflight), timeout=0.05,
                        return_when=concurrent.futures.FIRST_COMPLETED,
                    )
                broken = submit_failed
                unresolved: List[Tuple[int, int]] = []
                for future in done:
                    shard, attempt, _started = inflight.pop(future)
                    try:
                        future.result()
                    except concurrent.futures.process.BrokenProcessPool:
                        broken = True
                        unresolved.append((shard, attempt))
                    except concurrent.futures.CancelledError:
                        unresolved.append((shard, attempt))
                        broken = True
                    except Exception as error:
                        self.handle_failure(shard, attempt, error, delayed)
                    else:
                        self.completed.add(shard)
                if broken:
                    # A worker exiting after a drain checkpoint breaks the
                    # pool by design; translate only on a real drain.
                    if drain_requested():
                        self.drain_now()
                    unresolved.extend(
                        (shard, attempt)
                        for shard, attempt, _ in inflight.values()
                    )
                    inflight.clear()
                    for shard, attempt in unresolved:
                        if self.disk_complete(shard):
                            # Checkpointed before the worker died: done.
                            self.completed.add(shard)
                        else:
                            self.handle_failure(
                                shard, attempt,
                                RuntimeError(
                                    "worker process died before "
                                    f"checkpointing shard {shard}"
                                ),
                                delayed,
                            )
                    if owns_pool:
                        _kill_pool(pool)
                        rebuilds += 1
                        if rebuilds > self.policy.max_pool_rebuilds:
                            self._fall_back_sequential(
                                waiting, delayed, "pool kept breaking"
                            )
                            return
                        obs.record_degraded(
                            "pool_rebuilt", tool=self.tool, rebuilds=rebuilds
                        )
                        pool = self.make_pool(jobs)
                        max_inflight = pool._max_workers
                    else:
                        # The borrowed (persistent) pool is broken; its
                        # owner will rebuild it between jobs.  Finish this
                        # run in-process.
                        self._fall_back_sequential(
                            waiting, delayed, "borrowed pool broke"
                        )
                        return
                    continue
                if self.policy.shard_timeout_s is not None:
                    rebuilt = self._watchdog(
                        pool, owns_pool, inflight, waiting, delayed
                    )
                    if rebuilt is not None:
                        pool = rebuilt
                        max_inflight = pool._max_workers
        finally:
            if owns_pool:
                pool.shutdown(wait=False, cancel_futures=True)

    def _watchdog(self, pool, owns_pool, inflight, waiting, delayed):
        """Fail in-flight shards that exceeded the per-shard deadline.

        Returns a replacement pool when the overdue shard forced a kill
        of an owned pool, ``None`` otherwise.
        """
        timeout = self.policy.shard_timeout_s
        now = time.monotonic()
        overdue = [
            (future, entry)
            for future, entry in inflight.items()
            if now - entry[2] > timeout
        ]
        if not overdue:
            return None
        error = EngineTimeout(
            f"shard exceeded its {timeout:g}s deadline"
        )
        if not owns_pool:
            # Can't kill a borrowed pool's workers: abandon the futures
            # (a late checkpoint write is atomic and simply wins the race
            # with the retry — both payloads are valid) and retry.
            for future, (shard, attempt, _) in overdue:
                inflight.pop(future)
                self.handle_failure(shard, attempt, error, delayed)
            return None
        # Owned pool: the only way to stop a hung worker is to kill the
        # pool.  Overdue shards count as failed attempts; other in-flight
        # shards are requeued at the same attempt (they were healthy).
        overdue_shards = {shard for _, (shard, _, _) in overdue}
        workers = pool._max_workers
        _kill_pool(pool)
        for future, (shard, attempt, _) in list(inflight.items()):
            inflight.pop(future)
            if self.disk_complete(shard):
                self.completed.add(shard)
            elif shard in overdue_shards:
                self.handle_failure(shard, attempt, error, delayed)
            else:
                waiting.append((shard, attempt))
        obs.record_degraded(
            "pool_rebuilt", tool=self.tool, cause="shard_timeout"
        )
        return self.make_pool(workers)

    def _fall_back_sequential(self, waiting, delayed, cause: str) -> None:
        """Finish the remaining shards in-process (the last resort)."""
        remaining = list(waiting)
        remaining.extend(
            (shard, attempt) for _, shard, attempt in sorted(delayed)
        )
        remaining = [
            (shard, attempt)
            for shard, attempt in remaining
            if shard not in self.completed and shard not in self.failures
        ]
        obs.record_degraded(
            "pool_fallback", tool=self.tool, cause=cause,
            remaining=len(remaining),
        )
        self.run_sequential(sorted(remaining))


def run_supervised(
    root: str,
    pending: List[int],
    tool: str,
    tool_kwargs: Optional[Dict],
    jobs: int,
    classify: bool,
    executor: Optional[concurrent.futures.Executor] = None,
    policy: Optional[RetryPolicy] = None,
    trace: Optional[Dict] = None,
) -> List[ShardFailure]:
    """Analyze ``pending`` shards under supervision.

    ``trace`` is the dispatcher's trace context (from
    ``obs.propagation_context``); it is forwarded verbatim to every
    shard attempt so worker spans join the submitting trace.

    Returns the quarantined shards' failures (empty on a clean run);
    raises :class:`DrainRequested` on SIGTERM drain and
    :class:`EngineTimeout` past the run deadline.  Results land in the
    working directory's checkpoints either way.
    """
    if policy is None:
        policy = RetryPolicy()
    supervisor = _Supervisor(
        root, pending, tool, tool_kwargs, classify, policy,
        trace=trace,
    )
    if not pending:
        return []
    if executor is None and (jobs <= 1 or len(pending) <= 1):
        supervisor.run_sequential([(shard, 0) for shard in pending])
    else:
        supervisor.run_pool(jobs, executor)
    return [
        supervisor.failures[shard] for shard in sorted(supervisor.failures)
    ]
