"""Shared building blocks for the benchmark model programs."""

from __future__ import annotations

from typing import Callable, List

from repro.runtime.program import ThreadHandle


def fork_all(th: ThreadHandle, body: Callable, count: int, *args):
    """Fork ``count`` workers ``body(handle, index, *args)``; returns tids.

    Use as ``children = yield from fork_all(th, worker, 4)``.
    """
    children: List[int] = []
    for index in range(count):
        child = yield th.fork(body, index, *args)
        children.append(child)
    return children


def join_all(th: ThreadHandle, children):
    """Join every tid in ``children``: ``yield from join_all(th, tids)``."""
    for child in children:
        yield th.join(child)


def local_update(th: ThreadHandle, var, site=None):
    """The inner-loop accumulator idiom that dominates real programs
    (``sum += f(a[i])`` reads and writes the same field every iteration).

    Five reads and two writes of a per-thread variable with no intervening
    synchronization: after the first iteration every one of these accesses
    hits the same-epoch fast paths, which is what drives the paper's 63.4%
    / 71.0% same-epoch rates.
    """
    yield th.read(var, site=site)
    yield th.read(var, site=site)
    yield th.write(var, site=site)
    yield th.read(var, site=site)
    yield th.read(var, site=site)
    yield th.read(var, site=site)
    yield th.write(var, site=site)

