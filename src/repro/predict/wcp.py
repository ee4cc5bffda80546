"""WCP: weak-causally-precedes — the predictive member of the registry.

Every other tool in the registry reports races visible in the *observed*
interleaving: FastTrack and friends track the happens-before relation of
Section 2.1, in which a release-acquire pair on the same lock always
orders the two critical sections.  That ordering is often coincidental —
the scheduler happened to run one critical section first — and a race
hiding one reordering away stays invisible.  Predictive detectors
(SmartTrack, PLDI 2020; WCP, PLDI 2017) weaken the ordering: a release
induces an edge only to a later critical section on the same lock that
*conflicts* with it (both access a common variable, at least one a
write).  Non-conflicting critical sections commute, so accesses they
coincidentally ordered become candidate races.

:class:`WCPDetector` implements the simplified online form of that rule
on the standard :class:`~repro.core.detector.Detector` interface:

* **Weak acquire** — ``acq(t, m)`` does *not* join ``L_m`` into ``C_t``.
  It only opens a critical section record on ``t``'s held stack.
* **Release flush** — ``rel(t, m)`` merges the release-time ``C_t`` into
  per-``(m, x)`` history clocks for every variable ``x`` the section
  read or wrote, then increments ``C_t(t)`` exactly as happens-before
  release does.
* **Conflict join** — an access to ``x`` while holding ``m`` joins the
  matching conflicting-section history (``write`` history for reads;
  both histories for writes) into ``C_t`` *before* the race check, so
  genuinely protected accesses never race.
* Fork, join, volatile, and barrier edges stay strong (inherited from
  :class:`~repro.core.vcsync.VCSyncDetector`) — they reflect control
  dependences no reordering may break.

Every WCP edge implies the corresponding happens-before ordering and a
thread's own clock component advances exactly as in the happens-before
tools, so ``C_t^WCP ⊑ C_t^HB`` pointwise at every event: **WCP's warning
set is a superset of FastTrack's on every trace** (the differential
suites enforce it).  The extra warnings are *candidates*, not verdicts —
each carries a ``(earlier, later)`` event pair that
:mod:`repro.predict.vindicate` re-orders into a concrete witness trace
and validates with :func:`repro.trace.feasibility.check_feasible`.

Sharding envelope (docs/PREDICT.md): the engine broadcasts every lock
event to every shard but routes accesses per variable, so a shard never
observes conflict joins caused by *other shards'* variables.  Per-shard
clocks are therefore pointwise ≤ the unsharded clocks and a sharded WCP
run reports a **superset** of the unsharded warnings (and still a
superset of FastTrack's, whose edges are all broadcast).  Unlike the
happens-before tools, sharded WCP is not warning-for-warning identical
to a single-threaded run.

This class is WCP's one implementation: it has no fused kernel, so the
engine, ``repro check`` and the service all run it on the object path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional

from repro.core.vectorclock import VectorClock
from repro.detectors.base import VCSyncDetector
from repro.trace import events as ev


@dataclass(frozen=True)
class RaceCandidate:
    """One WCP-concurrent conflicting access pair, by trace position.

    ``earlier_index`` is the last access of the offending thread recorded
    in the variable's shadow history when the ``later_index`` access
    failed its clock check; ``kind`` mirrors the warning kinds
    (``write-read`` / ``write-write`` / ``read-write``).
    """

    var: Hashable
    kind: str
    earlier_index: int
    later_index: int
    earlier_tid: int
    later_tid: int
    site: Optional[Hashable] = None


class _CriticalSection:
    """One open critical section: the lock plus the shadow keys the
    section has read and written so far (insertion-ordered)."""

    __slots__ = ("lock", "reads", "writes")

    def __init__(self, lock: Hashable) -> None:
        self.lock = lock
        self.reads: Dict[Hashable, None] = {}
        self.writes: Dict[Hashable, None] = {}


class _WCPVarState:
    """BasicVC-style read/write clocks plus per-thread last-access
    positions (the candidate pair's ``earlier_index`` source)."""

    __slots__ = ("read_vc", "write_vc", "read_at", "write_at")

    def __init__(self) -> None:
        self.read_vc = VectorClock.bottom()
        self.write_vc = VectorClock.bottom()
        self.read_at: Dict[int, int] = {}
        self.write_at: Dict[int, int] = {}

    def shadow_words(self) -> int:
        return (
            3
            + len(self.read_vc)
            + len(self.write_vc)
            + len(self.read_at)
            + len(self.write_at)
        )


class WCPDetector(VCSyncDetector):
    """Weak-causally-precedes candidate-race detector (predictive)."""

    name = "WCP"
    #: WCP deliberately over-approximates the observed-order races; its
    #: extra reports are made precise by vindication, not by Theorem 1.
    precise = False

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.vars: Dict[Hashable, _WCPVarState] = {}
        #: tid → stack of open critical sections (nested sections all
        #: record every access of the thread while they are open).
        self.held: Dict[int, List[_CriticalSection]] = {}
        #: lock → shadow key → join of release clocks of the sections on
        #: that lock that wrote (resp. read) the key.
        self.write_hist: Dict[Hashable, Dict[Hashable, VectorClock]] = {}
        self.read_hist: Dict[Hashable, Dict[Hashable, VectorClock]] = {}
        #: First candidate pair per shadow key, in detection order.
        self.candidates: List[RaceCandidate] = []
        self._candidate_keys: set = set()

    def var(self, name: Hashable) -> _WCPVarState:
        key = self.shadow_key(name)
        state = self.vars.get(key)
        if state is None:
            state = _WCPVarState()
            self.stats.vc_allocs += 2
            self.vars[key] = state
        return state

    # -- weak lock rules ------------------------------------------------------

    def on_acquire(self, event: ev.Event) -> None:
        # Weak: no L_m join.  The section only starts recording accesses.
        stack = self.held.get(event.tid)
        if stack is None:
            stack = self.held[event.tid] = []
        stack.append(_CriticalSection(event.target))
        self.stats.rules["WCP ACQUIRE"] += 1

    def on_release(self, event: ev.Event) -> None:
        t = self.thread(event.tid)
        stack = self.held.get(event.tid)
        cs = None
        if stack:
            for pos in range(len(stack) - 1, -1, -1):
                if stack[pos].lock == event.target:
                    cs = stack.pop(pos)
                    break
        if cs is not None:
            stats = self.stats
            if cs.writes:
                hist = self.write_hist.get(cs.lock)
                if hist is None:
                    hist = self.write_hist[cs.lock] = {}
                for key in cs.writes:
                    clock = hist.get(key)
                    if clock is None:
                        hist[key] = t.vc.copy()
                        stats.vc_allocs += 1
                    else:
                        clock.join(t.vc)
                    stats.vc_ops += 1
                    stats.rules["WCP RELEASE FLUSH"] += 1
            if cs.reads:
                hist = self.read_hist.get(cs.lock)
                if hist is None:
                    hist = self.read_hist[cs.lock] = {}
                for key in cs.reads:
                    clock = hist.get(key)
                    if clock is None:
                        hist[key] = t.vc.copy()
                        stats.vc_allocs += 1
                    else:
                        clock.join(t.vc)
                    stats.vc_ops += 1
                    stats.rules["WCP RELEASE FLUSH"] += 1
        self.stats.rules["WCP RELEASE"] += 1
        # Same own-component progression as [FT RELEASE] — load-bearing
        # for the superset property (docs/PREDICT.md).
        t.vc.inc(t.tid)
        t.refresh_epoch()

    # -- accesses -------------------------------------------------------------

    def on_read(self, event: ev.Event) -> None:
        t = self.thread(event.tid)
        x = self.var(event.target)
        key = self.shadow_key(event.target)
        stats = self.stats
        stack = self.held.get(event.tid)
        if stack:
            write_hist = self.write_hist
            vc = t.vc
            for cs in stack:
                cs.reads[key] = None
                hist = write_hist.get(cs.lock)
                if hist is not None:
                    clock = hist.get(key)
                    if clock is not None:
                        # Conflict join *before* the race check: a write
                        # in an earlier section on this lock conflicts
                        # with this read.
                        vc.join(clock)
                        stats.vc_ops += 1
                        stats.rules["WCP CONFLICT JOIN"] += 1
        stats.vc_ops += 1
        if not x.write_vc.leq(t.vc):
            self._record_candidate(event, key, "write-read", x, t)
            self.report(event, "write-read", f"write history {x.write_vc!r}")
        x.read_vc.set(t.tid, t.vc.clocks[t.tid])
        x.read_at[t.tid] = self._index

    def on_write(self, event: ev.Event) -> None:
        t = self.thread(event.tid)
        x = self.var(event.target)
        key = self.shadow_key(event.target)
        stats = self.stats
        stack = self.held.get(event.tid)
        if stack:
            write_hist = self.write_hist
            read_hist = self.read_hist
            vc = t.vc
            for cs in stack:
                cs.writes[key] = None
                hist = write_hist.get(cs.lock)
                if hist is not None:
                    clock = hist.get(key)
                    if clock is not None:
                        vc.join(clock)
                        stats.vc_ops += 1
                        stats.rules["WCP CONFLICT JOIN"] += 1
                hist = read_hist.get(cs.lock)
                if hist is not None:
                    clock = hist.get(key)
                    if clock is not None:
                        vc.join(clock)
                        stats.vc_ops += 1
                        stats.rules["WCP CONFLICT JOIN"] += 1
        stats.vc_ops += 2
        if not x.write_vc.leq(t.vc):
            self._record_candidate(event, key, "write-write", x, t)
            self.report(event, "write-write", f"write history {x.write_vc!r}")
        if not x.read_vc.leq(t.vc):
            self._record_candidate(event, key, "read-write", x, t)
            self.report(event, "read-write", f"read history {x.read_vc!r}")
        x.write_vc.set(t.tid, t.vc.clocks[t.tid])
        x.write_at[t.tid] = self._index

    # -- candidate bookkeeping -------------------------------------------------

    def _record_candidate(self, event, key, kind, x, t) -> None:
        """Record the first candidate pair per shadow key: the failing
        history component with the smallest tid names the earlier access."""
        if key in self._candidate_keys:
            return
        self._candidate_keys.add(key)
        if kind == "read-write":
            hist_vc, hist_at = x.read_vc, x.read_at
        else:
            hist_vc, hist_at = x.write_vc, x.write_at
        mine = t.vc.clocks
        nmine = len(mine)
        for tid, clock in enumerate(hist_vc.clocks):
            if clock > (mine[tid] if tid < nmine else 0):
                earlier = hist_at.get(tid)
                if earlier is None:
                    return
                self.candidates.append(
                    RaceCandidate(
                        var=event.target,
                        kind=kind,
                        earlier_index=earlier,
                        later_index=self._index,
                        earlier_tid=tid,
                        later_tid=event.tid,
                        site=event.site,
                    )
                )
                return

    # -- memory accounting -----------------------------------------------------

    def shadow_memory_words(self) -> int:
        words = self.sync_shadow_words()
        for x in self.vars.values():
            words += x.shadow_words()
        for hist in (self.write_hist, self.read_hist):
            for entries in hist.values():
                words += 1
                for clock in entries.values():
                    words += 2 + len(clock)
        for stack in self.held.values():
            for cs in stack:
                words += 2 + len(cs.reads) + len(cs.writes)
        return words
