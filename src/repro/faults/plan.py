"""The fault-plan model: named injection points, matchers, actions.

A *fault plan* is a JSON document (``repro.faults/1``) listing faults to
inject at named points in the stack::

    {
      "schema": "repro.faults/1",
      "seed": 7,
      "faults": [
        {"point": "worker.crash", "match": {"shard": 1, "attempt": 0}},
        {"point": "http.request", "action": "status", "status": 503,
         "match": {"method": "POST"}, "times": 2},
        {"point": "worker.hang", "action": "hang", "delay_s": 0.3}
      ]
    }

Each spec names one :data:`POINTS` entry and optionally narrows it with a
``match`` object (every key must equal the context the call site passes),
an ``after`` skip count, a ``times`` firing cap (default 1), and a
``prob`` firing probability.  Probability draws come from a
``random.Random`` seeded with ``(plan seed, spec index)`` and advanced
once per *matching hit*, so a plan replays identically run after run —
no wall-clock, no global RNG.

The *effect* of a fired fault is the spec's ``action``:

``raise``
    Raise the exception named by ``error`` (default
    :class:`FaultInjected`; ``"oserror"`` raises a real ``OSError`` so
    the production error-handling path is exercised, not a test double).
``exit``
    ``os._exit(70)`` — the hard kill a segfaulting worker would be.
``hang``
    Sleep ``delay_s`` seconds (a slow shard / stalled worker).
``torn`` / ``corrupt`` / ``status`` / ``reset`` / ``stall``
    Site-specific: :func:`repro.faults.fire` *returns* the fired spec
    and the call site implements the effect (write truncated bytes,
    mangle the input line, answer 5xx, drop the connection, stall the
    body).  See docs/ROBUSTNESS.md for the point-by-point catalog.
"""

from __future__ import annotations

import errno
import json
import os
import random
import threading
import time
from typing import Dict, List, Optional

#: Schema tag every fault plan must carry.
PLAN_SCHEMA = "repro.faults/1"

#: The named injection points threaded through the stack, with the
#: actions each supports (the first action is the point's default).
POINTS: Dict[str, tuple] = {
    # engine/worker.py — before a shard's analysis begins
    "worker.crash": ("raise", "exit"),
    "worker.hang": ("hang",),
    # engine/checkpoint.py — a shard result checkpoint write
    "checkpoint.write": ("raise", "torn"),
    # engine/checkpoint.py — a shard classifier checkpoint write
    "classifier.write": ("raise", "torn"),
    # service/store.py — any job-store record/result write
    "store.write": ("raise", "torn"),
    # trace/serialize.py — the streaming trace readers, per line
    "trace.read": ("corrupt", "raise"),
    # kernels/__init__.py — entering a fused kernel
    "kernel.run": ("raise",),
    # service/server.py — HTTP request dispatch
    "http.request": ("status", "reset", "stall"),
}

#: Exception classes ``action: raise`` can name via ``error``.
_ERRORS = {
    "fault": None,  # FaultInjected, the default
    "oserror": lambda msg: OSError(errno.ENOSPC, msg),
    "runtimeerror": lambda msg: RuntimeError(msg),
    "valueerror": lambda msg: ValueError(msg),
}

_ACTIONS = ("raise", "exit", "hang", "torn", "corrupt", "status",
            "reset", "stall")


class FaultInjected(RuntimeError):
    """The default exception an ``action: raise`` fault throws."""


class FaultPlanError(ValueError):
    """A fault plan document that does not validate."""


class FaultSpec:
    """One validated fault entry of a plan."""

    __slots__ = (
        "point", "action", "match", "after", "times", "prob",
        "delay_s", "status", "error", "message", "index",
        "hits", "fired", "_rng",
    )

    def __init__(self, record: Dict, index: int, seed: int) -> None:
        if not isinstance(record, dict):
            raise FaultPlanError(f"fault #{index} is not an object")
        unknown = set(record) - {
            "point", "action", "match", "after", "times", "prob",
            "delay_s", "status", "error", "message",
        }
        if unknown:
            raise FaultPlanError(
                f"fault #{index} has unknown keys {sorted(unknown)}"
            )
        point = record.get("point")
        if point not in POINTS:
            known = ", ".join(sorted(POINTS))
            raise FaultPlanError(
                f"fault #{index}: unknown point {point!r}; known: {known}"
            )
        action = record.get("action", POINTS[point][0])
        if action not in _ACTIONS:
            raise FaultPlanError(
                f"fault #{index}: unknown action {action!r}"
            )
        if action not in POINTS[point]:
            raise FaultPlanError(
                f"fault #{index}: point {point!r} does not support action "
                f"{action!r} (supported: {', '.join(POINTS[point])})"
            )
        match = record.get("match", {})
        if not isinstance(match, dict):
            raise FaultPlanError(f"fault #{index}: match must be an object")
        error = record.get("error", "fault")
        if error not in _ERRORS:
            raise FaultPlanError(
                f"fault #{index}: unknown error {error!r}; "
                f"known: {', '.join(sorted(_ERRORS))}"
            )
        self.point = point
        self.action = action
        self.match = dict(match)
        self.after = int(record.get("after", 0))
        self.times = int(record.get("times", 1))
        self.prob = float(record.get("prob", 1.0))
        self.delay_s = float(record.get("delay_s", 0.05))
        self.status = int(record.get("status", 503))
        self.error = error
        self.message = record.get(
            "message", f"injected fault at {point} [{action}]"
        )
        self.index = index
        self.hits = 0
        self.fired = 0
        self._rng = random.Random(f"{seed}:{index}")

    def matches(self, ctx: Dict) -> bool:
        for key, expected in self.match.items():
            if ctx.get(key) != expected:
                return False
        return True

    def should_fire(self) -> bool:
        """Advance the hit counters; True when this hit injects."""
        self.hits += 1
        if self.hits <= self.after:
            return False
        if self.fired >= self.times:
            return False
        if self.prob < 1.0 and self._rng.random() >= self.prob:
            return False
        self.fired += 1
        return True

    def throw(self) -> None:
        maker = _ERRORS[self.error]
        if maker is None:
            raise FaultInjected(self.message)
        raise maker(self.message)

    def perform(self):
        """Run the generic actions; return self for site-specific ones."""
        if self.action == "raise":
            self.throw()
        if self.action == "exit":
            os._exit(70)
        if self.action == "hang":
            time.sleep(self.delay_s)
            return None
        return self


class FaultPlan:
    """A validated, stateful fault plan (counters live here)."""

    def __init__(self, document: Dict) -> None:
        if not isinstance(document, dict):
            raise FaultPlanError("fault plan must be a JSON object")
        if document.get("schema") != PLAN_SCHEMA:
            raise FaultPlanError(
                f"fault plan schema must be {PLAN_SCHEMA!r}, "
                f"got {document.get('schema')!r}"
            )
        faults = document.get("faults")
        if not isinstance(faults, list) or not faults:
            raise FaultPlanError("fault plan needs a non-empty 'faults' list")
        self.seed = int(document.get("seed", 0))
        self.document = document
        self.specs: List[FaultSpec] = [
            FaultSpec(record, index, self.seed)
            for index, record in enumerate(faults)
        ]
        self._lock = threading.Lock()
        self._points = frozenset(spec.point for spec in self.specs)

    def fire(self, point: str, ctx: Dict) -> Optional[FaultSpec]:
        """Fire the first matching spec for a hit at ``point``.

        Generic actions (raise/exit/hang) are performed here; the fired
        spec is returned for site-specific actions, ``None`` when nothing
        fires.  Counter updates are serialized (daemon threads hit the
        same plan concurrently) but the fault effect itself runs outside
        the lock — a hang must not block other points.
        """
        if point not in self._points:
            return None
        fired = None
        with self._lock:
            for spec in self.specs:
                if spec.point != point or not spec.matches(ctx):
                    continue
                if spec.should_fire():
                    fired = spec
                    break
        if fired is None:
            return None
        return fired.perform()

    def report(self) -> List[Dict]:
        """Per-spec hit/fired counters, for tests and telemetry."""
        with self._lock:
            return [
                {
                    "point": spec.point,
                    "action": spec.action,
                    "hits": spec.hits,
                    "fired": spec.fired,
                }
                for spec in self.specs
            ]


def parse_plan(text: str) -> FaultPlan:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise FaultPlanError(f"fault plan is not valid JSON: {error}")
    return FaultPlan(document)


def load_plan(path: str) -> FaultPlan:
    with open(path, "r", encoding="utf-8") as stream:
        return parse_plan(stream.read())
