"""Tests for the happens-before oracle (Section 2.1 + Section 4 extensions).

The oracle is what Theorem 1 is tested against, so it gets its own scrutiny:
hand-checked orderings for every edge type, plus a cross-check of the bitset
transitive closure against networkx reachability on random traces.
"""

import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
from hypothesis import given, settings

from repro.trace import events as ev
from repro.trace.generators import traces
from repro.trace.happens_before import (
    HappensBefore,
    find_races,
    first_races,
    happens_before_graph,
    is_race_free,
    racy_variables,
)


class TestProgramOrder:
    def test_same_thread_ordered(self):
        hb = HappensBefore([ev.rd(0, "x"), ev.wr(0, "x")])
        assert hb.ordered(0, 1)
        assert not hb.ordered(1, 0)
        assert not hb.concurrent(0, 1)

    def test_different_threads_unordered(self):
        hb = HappensBefore([ev.rd(0, "x"), ev.wr(1, "x")])
        assert hb.concurrent(0, 1)


class TestLockOrder:
    def test_release_acquire_edge(self):
        trace = [
            ev.wr(0, "x"),  # 0
            ev.acq(0, "m"),  # 1
            ev.rel(0, "m"),  # 2
            ev.acq(1, "m"),  # 3
            ev.wr(1, "x"),  # 4
        ]
        hb = HappensBefore(trace)
        assert hb.ordered(0, 4)
        assert is_race_free(trace)

    def test_unrelated_locks_do_not_order(self):
        trace = [
            ev.acq(0, "m"),
            ev.wr(0, "x"),
            ev.rel(0, "m"),
            ev.acq(1, "n"),
            ev.wr(1, "x"),
            ev.rel(1, "n"),
        ]
        assert find_races(trace) == [(1, 4)]


class TestForkJoin:
    def test_fork_orders_child(self):
        trace = [ev.wr(0, "x"), ev.fork(0, 1), ev.wr(1, "x")]
        assert is_race_free(trace)

    def test_join_orders_parent(self):
        trace = [
            ev.fork(0, 1),
            ev.wr(1, "x"),
            ev.join(0, 1),
            ev.wr(0, "x"),
        ]
        assert is_race_free(trace)

    def test_sibling_operations_concurrent(self):
        trace = [ev.fork(0, 1), ev.wr(1, "x"), ev.wr(0, "x")]
        assert find_races(trace) == [(1, 2)]

    def test_parent_op_after_fork_concurrent_with_child(self):
        trace = [ev.fork(0, 1), ev.wr(0, "x"), ev.wr(1, "x")]
        assert not is_race_free(trace)


class TestVolatiles:
    def test_volatile_write_orders_subsequent_reader(self):
        trace = [
            ev.wr(0, "x"),  # 0: data
            ev.vol_wr(0, "v"),  # 1: publish
            ev.vol_rd(1, "v"),  # 2: observe
            ev.rd(1, "x"),  # 3: consume
        ]
        assert is_race_free(trace)

    def test_two_volatile_writes_are_unordered(self):
        # Only write->read edges exist (matching [FT WRITE VOLATILE]).
        trace = [ev.vol_wr(0, "v"), ev.vol_wr(1, "v")]
        hb = HappensBefore(trace)
        assert hb.concurrent(0, 1)

    def test_volatile_read_does_not_order_later_write(self):
        trace = [
            ev.vol_rd(0, "v"),  # 0
            ev.wr(0, "x"),  # 1
            ev.vol_wr(1, "v"),  # 2
            ev.wr(1, "x"),  # 3
        ]
        assert find_races(trace) == [(1, 3)]

    def test_reader_sees_all_prior_writes(self):
        trace = [
            ev.wr(0, "x"),  # 0
            ev.vol_wr(0, "v"),  # 1
            ev.wr(2, "y"),  # 2
            ev.vol_wr(2, "v"),  # 3
            ev.vol_rd(1, "v"),  # 4
            ev.rd(1, "x"),  # 5
            ev.rd(1, "y"),  # 6
        ]
        assert is_race_free(trace)


class TestBarriers:
    def test_barrier_orders_across_members(self):
        trace = [
            ev.wr(0, "x"),  # 0
            ev.barrier_rel((0, 1)),  # 1
            ev.rd(1, "x"),  # 2
        ]
        assert is_race_free(trace)

    def test_barrier_does_not_order_nonmembers(self):
        trace = [
            ev.wr(0, "x"),
            ev.barrier_rel((0, 1)),
            ev.rd(2, "x"),
        ]
        assert find_races(trace) == [(0, 2)]

    def test_consecutive_barriers_chain(self):
        trace = [
            ev.wr(0, "x"),
            ev.barrier_rel((0, 1)),
            ev.barrier_rel((0, 1)),
            ev.rd(1, "x"),
        ]
        assert is_race_free(trace)


class TestRaceEnumeration:
    def test_read_read_is_not_a_race(self):
        trace = [ev.rd(0, "x"), ev.rd(1, "x")]
        assert is_race_free(trace)

    def test_race_kinds(self):
        trace = [ev.wr(0, "x"), ev.rd(1, "x"), ev.wr(1, "y"), ev.rd(0, "y")]
        assert racy_variables(trace) == {"x", "y"}

    def test_first_race_per_variable(self):
        trace = [
            ev.wr(0, "x"),  # 0
            ev.wr(1, "x"),  # 1: first race on x
            ev.wr(0, "x"),  # 2: second race on x
        ]
        assert first_races(trace) == {"x": (0, 1)}
        # (0, 2) is not a race: both writes are by thread 0 (program order).
        assert find_races(trace) == [(0, 1), (1, 2)]


class TestAgainstNetworkx:
    @settings(max_examples=40, deadline=None)
    @given(traces())
    def test_bitset_closure_matches_graph_reachability(self, trace):
        events = list(trace)
        hb = HappensBefore(events)
        graph = happens_before_graph(events)
        closure = nx.transitive_closure_dag(graph)
        for j in range(len(events)):
            for i in range(j):
                assert hb.ordered(i, j) == closure.has_edge(i, j), (
                    i,
                    j,
                    events,
                )

    def test_graph_nodes_carry_events(self):
        trace = [ev.rd(0, "x")]
        graph = happens_before_graph(trace)
        assert graph.nodes[0]["event"] == trace[0]


def test_networkx_is_imported_only_by_the_graph_view():
    """``happens_before_graph`` is networkx's only user, so starting the
    CLI must not pay for importing it."""
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    probe = "import sys, repro.cli; print('networkx' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, check=True,
    )
    assert result.stdout.strip() == "False"
