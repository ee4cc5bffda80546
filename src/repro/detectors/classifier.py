"""Sharing-pattern classification: quantifying the paper's key insight.

Section 1: "the vast majority of data in multithreaded programs is either
thread local, lock protected, or read shared" — that empirical observation
is what justifies FastTrack's adaptive representation.  This analysis
measures it: every variable (and every access) is classified into

* ``thread-local``   — accessed by a single thread;
* ``lock-protected`` — accessed by several threads, with some lock held on
  every access (a non-empty consistent candidate lockset);
* ``read-shared``    — accessed by several threads, but written by at most
  one, with no foreign write after the first foreign read (the
  initialize-then-share idiom);
* ``synchronized``   — shared and race-free, but ordered by fork/join,
  barriers, volatiles, or monitor handoffs rather than a consistent lock;
* ``racy``           — involved in a detected race.

The first four classes come from one bookkeeping pass over the trace
(Eraser-style lockset refinement plus accessor and writer tracking), over
``Event`` objects or a :class:`~repro.trace.columnar.ColumnarTrace` such
as an engine shard's columns.  The ``racy`` class is FastTrack's verdict,
so it is precise.  A run that already analyzed the trace with FastTrack
hands its detector to :meth:`SharingClassifier.adopt` and the verdict is
reused; otherwise the first :meth:`~SharingClassifier.classify` runs the
fused FastTrack kernel once.  ``fractions()`` weights classes by access
count, which is the quantity the paper's fast-path argument needs.
"""

from __future__ import annotations

from operator import attrgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Optional,
    Set,
    Union,
)

from repro import obs
from repro.core.detector import Detector, fine_grain
from repro.core.fasttrack import FastTrack
from repro.trace import events as ev
from repro.trace.columnar import ColumnarTrace

THREAD_LOCAL = "thread-local"
LOCK_PROTECTED = "lock-protected"
READ_SHARED = "read-shared"
SYNCHRONIZED = "synchronized"
RACY = "racy"

CLASSES = (THREAD_LOCAL, LOCK_PROTECTED, READ_SHARED, SYNCHRONIZED, RACY)

_ROW = attrgetter("kind", "tid", "target")

#: ``_VarProfile.writer`` once two distinct threads have written.
MANY = object()


class _VarProfile:
    """One variable's sharing history.

    Only what the classes need is kept: the first accessor and whether a
    second thread followed, and the sole writer (``MANY`` after a second
    distinct one — from then on the variable cannot be read-shared, so
    the read/write history no longer matters).
    """

    __slots__ = (
        "accesses",
        "owner",
        "shared",
        "writer",
        "lockset",
        "foreign_read_seen",
        "write_after_share",
    )

    def __init__(self, tid: int) -> None:
        self.accesses = 0
        self.owner = tid
        self.shared = False
        self.writer: object = None  # no write yet
        self.lockset: Optional[FrozenSet[Hashable]] = None  # None = universe
        self.foreign_read_seen = False
        self.write_after_share = False


class SharingClassifier:
    """Classifies every variable of one trace by its observed sharing
    pattern (one :meth:`process` call per classifier)."""

    def __init__(
        self, shadow_key: Callable[[Hashable], Hashable] = fine_grain
    ) -> None:
        self.shadow_key = shadow_key
        self.profiles: Dict[Hashable, _VarProfile] = {}
        self.events = 0
        self._racy: Optional[FrozenSet[Hashable]] = None
        # The trace the verdict is computed from, held only until the
        # verdict is resolved (an engine shard's columns must not outlive
        # the shard's mapping).
        self._source = None

    def process(
        self, trace: Union[ColumnarTrace, Iterable[ev.Event]]
    ) -> "SharingClassifier":
        """Profile every access of ``trace`` in one pass, timed by one
        ``detectors.classifier`` span; returns self."""
        with obs.span("detectors.classifier") as span:
            self._profile(trace)
            span.set(events=self.events)
        return self

    def _profile(
        self, trace: Union[ColumnarTrace, Iterable[ev.Event]]
    ) -> None:
        if isinstance(trace, ColumnarTrace):
            targets = trace.targets
            rows = zip(
                trace.kinds, trace.tids,
                map(targets.__getitem__, trace.target_ids),
            )
        else:
            if iter(trace) is trace:
                trace = list(trace)  # one-shot: keep it for the verdict
            rows = map(_ROW, trace)
        self._source = trace
        profiles = self.profiles
        shadow_key = self.shadow_key
        ident = shadow_key is fine_grain
        held: Dict[int, Set[Hashable]] = {}
        READ = ev.READ
        WRITE = ev.WRITE
        ACQUIRE = ev.ACQUIRE
        RELEASE = ev.RELEASE
        events = 0
        for kind, tid, target in rows:
            events += 1
            if kind == READ or kind == WRITE:
                key = target if ident else shadow_key(target)
                profile = profiles.get(key)
                if profile is None:
                    profile = profiles[key] = _VarProfile(tid)
                elif profile.shared or tid != profile.owner:
                    # The variable is shared: refine the candidate lockset
                    # with the locks held on this access.
                    profile.shared = True
                    locks = frozenset(held.get(tid, ()))
                    lockset = profile.lockset
                    profile.lockset = (
                        locks if lockset is None else lockset & locks
                    )
                profile.accesses += 1
                writer = profile.writer
                if kind == READ:
                    if writer is not None and writer != tid:
                        profile.foreign_read_seen = True
                else:
                    if profile.foreign_read_seen:
                        # A write landing after the variable was read-shared:
                        # the initialize-then-share idiom is over.
                        profile.write_after_share = True
                    if writer is None:
                        profile.writer = tid
                    elif writer != tid:
                        profile.writer = MANY
            elif kind == ACQUIRE:
                locks = held.get(tid)
                if locks is None:
                    locks = held[tid] = set()
                locks.add(target)
            elif kind == RELEASE:
                locks = held.get(tid)
                if locks is not None:
                    locks.discard(target)
        self.events = events

    # -- the race verdict ---------------------------------------------------

    def adopt(self, detector: Detector) -> bool:
        """Reuse the race verdict of ``detector``, which must have analyzed
        the same trace, when it must equal this classifier's own: a plain
        :class:`FastTrack` (not a subclass such as AsyncFinish) at the same
        granularity with the default rules.  ``track_sites`` only changes
        the text of warnings, so it may differ.  Returns whether the
        verdict was adopted."""
        if (
            self._racy is not None
            or type(detector) is not FastTrack
            or detector.shadow_key is not self.shadow_key
            or not detector.enable_fast_paths
            or detector.shared_same_epoch
            or not detector.demote_on_shared_write
            or detector.stats.events != self.events
        ):
            return False
        self._resolve(detector._warned_keys)
        return True

    def racy_keys(self) -> FrozenSet[Hashable]:
        """The shadow keys FastTrack reports a race on."""
        if self._racy is None:
            from repro.kernels import fasttrack as fasttrack_kernel

            source = self._source
            if source is None:
                self._resolve(())
            else:
                columns = (
                    source
                    if isinstance(source, ColumnarTrace)
                    else ColumnarTrace.from_events(source)
                )
                detector = FastTrack(shadow_key=self.shadow_key)
                # The kernel directly, not ``run_kernel``: fault plans on
                # ``kernel.run`` target the tool's own run only.
                fasttrack_kernel.run(detector, columns)
                self._resolve(detector._warned_keys)
        return self._racy

    def _resolve(self, racy: Iterable[Hashable]) -> None:
        self._racy = frozenset(racy)
        self._source = None

    # -- results ------------------------------------------------------------------

    def classify(self) -> Dict[Hashable, str]:
        """The sharing class of every variable seen so far."""
        racy_keys = self.racy_keys()
        result: Dict[Hashable, str] = {}
        for key, profile in self.profiles.items():
            if key in racy_keys:
                result[key] = RACY
            elif not profile.shared:
                result[key] = THREAD_LOCAL
            elif profile.lockset:
                result[key] = LOCK_PROTECTED
            elif profile.writer is not MANY and not profile.write_after_share:
                result[key] = READ_SHARED
            else:
                result[key] = SYNCHRONIZED
        return result

    def fractions(self, by_accesses: bool = True) -> Dict[str, float]:
        """Class weights, by access count (default) or by variable count."""
        classes = self.classify()
        totals = {cls: 0 for cls in CLASSES}
        for key, cls in classes.items():
            weight = self.profiles[key].accesses if by_accesses else 1
            totals[cls] += weight
        denominator = sum(totals.values()) or 1
        return {cls: count / denominator for cls, count in totals.items()}
