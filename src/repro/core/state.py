"""Shadow state attached to threads, variables, and locks (Figure 5).

The paper's RoadRunner framework lets a back-end tool hang instrumentation
state off every thread, lock object, and memory location of the target
program.  These classes are the FastTrack instances of that state:

* :class:`ThreadState` — the thread's vector clock ``C_t`` plus its cached
  current epoch ``E(t) = C_t(t)@t``.
* :class:`VarState`    — the write epoch ``W_x`` and the adaptive read state:
  either the read epoch ``R_x`` or, when ``R_x == READ_SHARED``, the read
  vector clock ``Rvc``.
* :class:`LockState`   — the vector clock ``L_m`` of the last release.

The VC-based detectors (BasicVC, DJIT+, MultiRace) define their own shadow
records in their modules; only the thread and lock state is shared, exactly
as in the paper where all tools sit on one optimized VC library.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.core.epoch import EPOCH_BOTTOM, make_epoch
from repro.core.vectorclock import VectorClock


class ThreadState:
    """Per-thread analysis state: ``tid``, ``C`` and the cached epoch.

    Invariant (asserted in tests): ``epoch == make_epoch(vc.get(tid), tid)``.
    """

    __slots__ = ("tid", "vc", "epoch")

    def __init__(self, tid: int, vc: Optional[VectorClock] = None) -> None:
        self.tid = tid
        if vc is None:
            # sigma_0 = (lambda t. inc_t(bottom), ...): every thread starts
            # at clock 1 in its own component.
            vc = VectorClock.bottom()
            vc.inc(tid)
        self.vc = vc
        self.epoch = make_epoch(vc.get(tid), tid)

    def refresh_epoch(self) -> None:
        """Re-cache the epoch after ``vc`` changed (joins or increments)."""
        self.epoch = make_epoch(self.vc.get(self.tid), self.tid)

    def __repr__(self) -> str:
        return f"ThreadState(tid={self.tid}, C={self.vc!r})"


class VarState:
    """Per-variable adaptive shadow state (``W``, ``R``, ``Rvc``).

    ``read_epoch`` holds a packed epoch, or :data:`~repro.core.epoch.
    READ_SHARED` when the variable is in read-shared mode and ``read_vc``
    carries the full read vector clock.  ``read_vc`` is dropped (``None``)
    when `[FT WRITE SHARED]` demotes the variable back to epoch mode, letting
    the garbage collector reclaim the vector as the paper observes.

    ``write_site``/``read_site`` record the source locations of the last
    write and last (epoch-mode) read when the owning detector runs with
    ``track_sites=True`` — the "more precise error reporting" the paper's
    actual implementation adds on top of Figure 5.
    """

    __slots__ = (
        "write_epoch",
        "read_epoch",
        "read_vc",
        "write_site",
        "read_site",
    )

    def __init__(self) -> None:
        self.write_epoch = EPOCH_BOTTOM
        self.read_epoch = EPOCH_BOTTOM
        self.read_vc: Optional[VectorClock] = None
        self.write_site: Optional[Hashable] = None
        self.read_site: Optional[Hashable] = None

    def shadow_words(self) -> int:
        """Memory-footprint proxy: header + two epochs + any read VC words.

        Used by the Table 3 reproduction, where memory overhead is reported
        as shadow words per tool.  An epoch costs one word; a vector clock
        costs one word per tracked thread plus a header word.
        """
        words = 3  # object header proxy + W + R
        if self.read_vc is not None:
            words += 1 + len(self.read_vc)
        return words


class LockState:
    """Per-lock shadow state: the vector clock ``L_m`` of the last release.

    Also used for volatile variables, which Section 4 folds into the ``L``
    component of the analysis state.
    """

    __slots__ = ("vc",)

    def __init__(self) -> None:
        self.vc = VectorClock.bottom()

    def shadow_words(self) -> int:
        return 2 + len(self.vc)
