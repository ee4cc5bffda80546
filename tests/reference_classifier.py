"""The per-event sharing classifier, kept as a reference.

This is how :class:`repro.detectors.classifier.SharingClassifier` used to
work: a :class:`~repro.core.detector.Detector` whose ``on_*`` hooks feed
every event to an embedded FastTrack (for the ``racy`` class) and update
per-variable accessor, writer and lockset bookkeeping.  It is slow but
plainly follows the class definitions, so ``tests/test_classifier.py``
fuzzes the one-pass classifier against it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Optional, Set

from repro.core.detector import Detector
from repro.core.fasttrack import FastTrack
from repro.detectors.classifier import (
    LOCK_PROTECTED,
    RACY,
    READ_SHARED,
    SYNCHRONIZED,
    THREAD_LOCAL,
)
from repro.trace import events as ev


class _VarProfile:
    __slots__ = (
        "accessors",
        "writers",
        "lockset",
        "accesses",
        "foreign_read_seen",
        "write_after_share",
    )

    def __init__(self) -> None:
        self.accessors: Set[int] = set()
        self.writers: Set[int] = set()
        self.lockset: Optional[FrozenSet[Hashable]] = None  # None = universe
        self.accesses = 0
        self.foreign_read_seen = False
        self.write_after_share = False


class ReferenceClassifier(Detector):
    """Classifies every variable by its observed sharing pattern, one
    event at a time, with an embedded FastTrack for the race verdict."""

    name = "ReferenceClassifier"
    precise = True  # its 'racy' class comes from FastTrack

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.fasttrack = FastTrack(shadow_key=self.shadow_key)
        self.profiles: Dict[Hashable, _VarProfile] = {}
        self.held: Dict[int, Set[Hashable]] = {}

    # -- bookkeeping -----------------------------------------------------------

    def _profile(self, var: Hashable) -> _VarProfile:
        key = self.shadow_key(var)
        profile = self.profiles.get(key)
        if profile is None:
            profile = _VarProfile()
            self.profiles[key] = profile
        return profile

    def _held(self, tid: int) -> Set[Hashable]:
        held = self.held.get(tid)
        if held is None:
            held = set()
            self.held[tid] = held
        return held

    def on_acquire(self, event: ev.Event) -> None:
        self.fasttrack.handle(event)
        self._held(event.tid).add(event.target)

    def on_release(self, event: ev.Event) -> None:
        self.fasttrack.handle(event)
        self._held(event.tid).discard(event.target)

    def on_fork(self, event: ev.Event) -> None:
        self.fasttrack.handle(event)

    def on_join(self, event: ev.Event) -> None:
        self.fasttrack.handle(event)

    def on_volatile_read(self, event: ev.Event) -> None:
        self.fasttrack.handle(event)

    def on_volatile_write(self, event: ev.Event) -> None:
        self.fasttrack.handle(event)

    def on_barrier_release(self, event: ev.Event) -> None:
        self.fasttrack.handle(event)

    def _access(self, event: ev.Event, is_write: bool) -> None:
        self.fasttrack.handle(event)
        profile = self._profile(event.target)
        tid = event.tid
        profile.accesses += 1
        if profile.accessors and (
            tid not in profile.accessors or len(profile.accessors) > 1
        ):
            # The variable is shared: refine the candidate lockset with the
            # locks held on this access.
            held = frozenset(self._held(tid))
            profile.lockset = (
                held if profile.lockset is None else profile.lockset & held
            )
        if not is_write:
            if profile.writers and tid not in profile.writers:
                profile.foreign_read_seen = True
        else:
            if profile.foreign_read_seen:
                # A write landing after the variable was read-shared: the
                # initialize-then-share idiom is over.
                profile.write_after_share = True
        profile.accessors.add(tid)
        if is_write:
            profile.writers.add(tid)

    def on_read(self, event: ev.Event) -> None:
        self._access(event, is_write=False)

    def on_write(self, event: ev.Event) -> None:
        self._access(event, is_write=True)

    # -- results ------------------------------------------------------------------

    def classify(self) -> Dict[Hashable, str]:
        """The sharing class of every variable seen so far."""
        racy_keys = self.fasttrack._warned_keys
        result: Dict[Hashable, str] = {}
        for key, profile in self.profiles.items():
            if key in racy_keys:
                result[key] = RACY
            elif len(profile.accessors) <= 1:
                result[key] = THREAD_LOCAL
            elif profile.lockset:
                result[key] = LOCK_PROTECTED
            elif len(profile.writers) <= 1 and not profile.write_after_share:
                result[key] = READ_SHARED
            else:
                result[key] = SYNCHRONIZED
        return result
