"""In-memory spans for the traced replay.

The benchmark times each call into a layer from its own code: a span is
a name, a start, an end and the span that was open when it began.  Spans
stay in memory until the run ends.  A layer's *self* time is its span's
duration minus what its direct children cover, so nested layers (a
kernel inside a shard worker, parsing inside the partitioner) are never
counted twice.

One tracer may serve several threads at once (the service replay runs
jobs in threads, as the daemon's job runners do): each thread keeps its
own stack of open spans, so a span's parent is always in its thread.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional


class Tracer:
    """Records spans from any thread of this process."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Dict:
        stack = self._stack()
        return {
            "id": next(self._ids),
            "parent": stack[-1]["id"] if stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "count": 0,
        }

    @contextmanager
    def span(self, name: str) -> Iterator[Dict]:
        record = self._open(name)
        stack = self._stack()
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def timed_iter(self, name: str, iterable: Iterable) -> Iterator:
        """Time every ``next()`` of ``iterable`` into one aggregate span.

        The span is a child of the span open now; its duration is the sum
        of the ``next()`` calls and its ``count`` the items produced.
        """
        record = self._open(name)
        self.spans.append(record)
        step = iter(iterable).__next__
        clock = time.perf_counter
        total = 0.0
        items = 0
        try:
            while True:
                started = clock()
                try:
                    item = step()
                except StopIteration:
                    total += clock() - started
                    return
                total += clock() - started
                items += 1
                yield item
        finally:
            # Locals in the loop, one write at the end: per-item dict
            # updates would add to the very time being measured.
            record["end"] = record["start"] + total
            record["count"] = items

    @contextmanager
    def patched(self, module, attribute: str, name: str,
                count: Optional[Callable] = None) -> Iterator[None]:
        """Time every call the program makes to ``module.attribute``.

        Used only for calls a layer makes from inside another public call
        (the kernel inside ``analyze_shard``), which the replay cannot
        wrap from outside.  ``count(args)`` gives the span's item count.
        The original is restored on exit.
        """
        original = getattr(module, attribute)

        def timed(*args, **kwargs):
            with self.span(name) as span:
                result = original(*args, **kwargs)
                if count is not None:
                    span["count"] = count(args)
                return result

        setattr(module, attribute, timed)
        try:
            yield
        finally:
            setattr(module, attribute, original)


class NullTracer(Tracer):
    """The same calls with no timing: the untraced twin of a replay,
    whose wall time the traced replay's is compared with."""

    @contextmanager
    def span(self, name: str) -> Iterator[Dict]:
        yield {"count": 0}

    def timed_iter(self, name: str, iterable: Iterable) -> Iterator:
        return iter(iterable)

    @contextmanager
    def patched(self, module, attribute: str, name: str,
                count: Optional[Callable] = None) -> Iterator[None]:
        yield


def layer_seconds(spans: List[Dict]) -> Dict[str, float]:
    """Self seconds per span name: each span's duration minus its direct
    children's."""
    covered: Dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = (
                covered.get(span["parent"], 0.0) + span["end"] - span["start"]
            )
    totals: Dict[str, float] = {}
    for span in spans:
        own = span["end"] - span["start"] - covered.get(span["id"], 0.0)
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def counts(spans: List[Dict], name: str) -> int:
    return sum(span["count"] for span in spans if span["name"] == name)
