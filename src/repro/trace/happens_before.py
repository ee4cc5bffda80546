"""The happens-before relation, computed from first principles.

This module is the *oracle* for the precision experiments: it builds the
happens-before partial order ``<α`` of Section 2.1 directly from its
definition (smallest transitively-closed relation containing program order,
locking order, and fork/join order — extended, as in Section 4, with
volatile write→read edges and barrier releases) and enumerates races as
"concurrent conflicting accesses".  It never touches vector clocks or
epochs, so agreement between :class:`HappensBefore` and a detector is
genuine evidence for Theorem 1, not a tautology.

Two representations are provided:

* :class:`HappensBefore` — ancestor bitsets per event (exact transitive
  closure; O(n²/64) space, comfortably fast for the trace sizes the tests
  and oracles use);
* :func:`happens_before_graph` — a :mod:`networkx` DiGraph with one node per
  event index, for visualization and for cross-checking the bitset
  implementation in the test suite.  It is the only code that needs
  networkx, which it imports when called.

Edge construction
-----------------

* **Program order** — each operation links from its thread's previous
  operation.
* **Locking** — all acquire/release operations on one lock are chained in
  trace order (their pairwise ordering follows transitively).
* **Fork/join** — ``fork(t,u)`` becomes the predecessor of ``u``'s first
  operation; ``join(v,u)`` links from ``u``'s last operation.
* **Volatiles** — every volatile *write* happens before every subsequent
  volatile access of the same variable... with a subtlety: two volatile
  writes with no interleaved read are *not* ordered (only write→read edges
  exist, matching both the Java memory model and the `[FT WRITE VOLATILE]`
  rule, which joins into ``L_vx`` without updating the writer's own clock).
* **Barriers** — a ``barrier_rel(T)`` node links from the previous operation
  of every member and becomes the program-order predecessor of each member's
  next operation.
* **Async-finish tasks** — ``task_spawn(t,u)`` / ``task_await(t,u)`` edge
  like fork/join; ``finish_end(t,f)`` links from the last operation of every
  task spawned while ``f`` was the innermost open scope of its spawner
  (children inherit their spawner's scope, so registration is transitive).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.trace import events as ev
from repro.trace.trace import Trace


def _predecessor_lists(events: Sequence[ev.Event]):
    """Yield ``(index, direct_predecessor_indices, volatile_write_mask)``.

    ``volatile_write_mask`` is an extra ancestor bitset merged in for
    volatile reads (edges from *all* prior writes of that volatile, which
    are mutually unordered and therefore cannot be chained).
    """
    last_op: Dict[int, int] = {}
    last_lock_op: Dict[Hashable, int] = {}
    # Async-finish scope bookkeeping: ``visible[t]`` is the innermost open
    # finish scope governing t's spawns (inherited from t's spawner unless
    # t opened one itself); each scope is a mutable list of member tids
    # shared by reference, so registration is transitive.
    visible: Dict[int, Optional[List[int]]] = {}
    open_scopes: Dict[int, List[Tuple[Hashable, Optional[List[int]], List[int]]]] = {}
    preds_per_event: List[List[int]] = []
    for index, event in enumerate(events):
        kind = event.kind
        preds: List[int] = []
        if kind == ev.BARRIER_RELEASE:
            for member in event.target:
                prev = last_op.get(member)
                if prev is not None:
                    preds.append(prev)
            for member in event.target:
                last_op[member] = index
        else:
            prev = last_op.get(event.tid)
            if prev is not None:
                preds.append(prev)
            if kind in (ev.ACQUIRE, ev.RELEASE):
                prev_lock = last_lock_op.get(event.target)
                if prev_lock is not None:
                    preds.append(prev_lock)
                last_lock_op[event.target] = index
            elif kind in (ev.JOIN, ev.TASK_AWAIT):
                prev_child = last_op.get(event.target)
                if prev_child is not None:
                    preds.append(prev_child)
            elif kind == ev.FINISH_BEGIN:
                scope: List[int] = []
                open_scopes.setdefault(event.tid, []).append(
                    (event.target, visible.get(event.tid), scope)
                )
                visible[event.tid] = scope
            elif kind == ev.FINISH_END:
                stack = open_scopes.get(event.tid)
                if stack:
                    _, parent, scope = stack.pop()
                    visible[event.tid] = parent
                    for member in scope:
                        prev_member = last_op.get(member)
                        if prev_member is not None:
                            preds.append(prev_member)
            last_op[event.tid] = index
            if kind in (ev.FORK, ev.TASK_SPAWN):
                # The child's first op will chain from the fork/spawn.
                last_op[event.target] = index
                if kind == ev.TASK_SPAWN:
                    scope = visible.get(event.tid)
                    visible[event.target] = scope
                    if scope is not None:
                        scope.append(event.target)
        preds_per_event.append(preds)
    return preds_per_event


class HappensBefore:
    """Exact happens-before closure over a trace, via ancestor bitsets."""

    def __init__(self, trace: Iterable[ev.Event]) -> None:
        self.events: List[ev.Event] = list(trace)
        self._ancestors: List[int] = []
        self._build()

    def _build(self) -> None:
        events = self.events
        ancestors = self._ancestors
        preds_per_event = _predecessor_lists(events)
        vol_write_mask: Dict[Hashable, int] = {}
        for index, event in enumerate(events):
            mask = 0
            for pred in preds_per_event[index]:
                mask |= ancestors[pred] | (1 << pred)
            kind = event.kind
            if kind == ev.VOLATILE_READ:
                mask |= vol_write_mask.get(event.target, 0)
            ancestors.append(mask)
            if kind == ev.VOLATILE_WRITE:
                # Later reads see this write and (transitively) its history;
                # earlier writes stay unordered with it.
                vol_write_mask[event.target] = vol_write_mask.get(
                    event.target, 0
                ) | (mask | (1 << index))

    # -- order queries -----------------------------------------------------------

    def ordered(self, i: int, j: int) -> bool:
        """``events[i] <α events[j]`` (strict happens-before)."""
        if i == j:
            return False
        if i > j:
            return False
        return bool(self._ancestors[j] & (1 << i))

    def concurrent(self, i: int, j: int) -> bool:
        """Neither access happens before the other."""
        if i == j:
            return False
        if i > j:
            i, j = j, i
        return not self.ordered(i, j)

    # -- race enumeration -----------------------------------------------------------

    def races(self) -> List[Tuple[int, int]]:
        """All pairs ``(i, j)`` of concurrent conflicting accesses, i < j.

        Accesses are indexed per variable as running bitmasks (all prior
        accesses / prior writes), so each access pays one mask
        intersection against its ancestor bitset instead of an
        ``ordered()`` probe per earlier access: the candidate set for
        access ``j`` is exactly ``conflicting_priors & ~ancestors[j]``.
        Walking ``j`` in trace order with set bits extracted low-to-high
        reproduces the naive enumeration's ``(j, i)``-sorted output
        without sorting.
        """
        ancestors = self._ancestors
        write_mask: Dict[Hashable, int] = {}
        access_mask: Dict[Hashable, int] = {}
        found: List[Tuple[int, int]] = []
        for j, event in enumerate(self.events):
            kind = event.kind
            if kind == ev.READ:
                var = event.target
                candidates = write_mask.get(var, 0) & ~ancestors[j]
                access_mask[var] = access_mask.get(var, 0) | (1 << j)
            elif kind == ev.WRITE:
                var = event.target
                candidates = access_mask.get(var, 0) & ~ancestors[j]
                bit = 1 << j
                access_mask[var] = access_mask.get(var, 0) | bit
                write_mask[var] = write_mask.get(var, 0) | bit
            else:
                continue
            while candidates:
                low = candidates & -candidates
                found.append((low.bit_length() - 1, j))
                candidates ^= low
        return found

    def first_race_per_variable(self) -> Dict[Hashable, Tuple[int, int]]:
        """For each racy variable, the race that completes earliest (the one
        FastTrack guarantees to detect)."""
        first: Dict[Hashable, Tuple[int, int]] = {}
        for i, j in self.races():
            var = self.events[j].target
            if var not in first:
                first[var] = (i, j)
        return first

    def racy_variables(self) -> set:
        return set(self.first_race_per_variable())

    def is_race_free(self) -> bool:
        """Whether no pair of concurrent conflicting accesses exists —
        the right-hand side of Theorem 1."""
        return not self.races()


# -- module-level conveniences ----------------------------------------------------


def find_races(trace: Iterable[ev.Event]) -> List[Tuple[int, int]]:
    return HappensBefore(trace).races()


def first_races(trace: Iterable[ev.Event]) -> Dict[Hashable, Tuple[int, int]]:
    return HappensBefore(trace).first_race_per_variable()


def racy_variables(trace: Iterable[ev.Event]) -> set:
    return HappensBefore(trace).racy_variables()


def is_race_free(trace: Iterable[ev.Event]) -> bool:
    return HappensBefore(trace).is_race_free()


def happens_before_graph(trace: Iterable[ev.Event]) -> "nx.DiGraph":
    """The happens-before DAG as a networkx graph (node = event index).

    Built with the same edge rules as :class:`HappensBefore` except that
    volatile write→read edges are materialized explicitly; reachability in
    this graph must agree with :meth:`HappensBefore.ordered` (asserted by
    the test suite).  Needs :mod:`networkx` (the ``test`` extra).
    """
    import networkx as nx

    events = list(trace)
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(events)))
    for index, preds in enumerate(_predecessor_lists(events)):
        for pred in preds:
            graph.add_edge(pred, index)
    vol_writes: Dict[Hashable, List[int]] = {}
    for index, event in enumerate(events):
        if event.kind == ev.VOLATILE_READ:
            for write_index in vol_writes.get(event.target, ()):
                graph.add_edge(write_index, index)
        elif event.kind == ev.VOLATILE_WRITE:
            vol_writes.setdefault(event.target, []).append(index)
    for index, event in enumerate(events):
        graph.nodes[index]["event"] = event
    return graph
