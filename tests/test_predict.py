"""The predictive detector family: WCP, vindication, and its wiring.

Covers the ISSUE acceptance matrix for ``repro.predict``:

* WCP's warning set is a superset of FastTrack's everywhere, and a
  *strict* superset on the golden corpus — with every extra report
  vindicated by a feasibility-checked witness reordering;
* the sharded engine honours the per-shard soundness envelope at
  1/2/4 shards;
* ``repro check --tool wcp`` / ``repro predict`` / ``tool: wcp``
  service jobs run end to end, and ``obs.rules`` exposes the WCP edge
  kinds as ``repro_rule_total{detector="WCP",rule=...}``;
* ``HappensBefore.races()``'s bitmask candidate index returns exactly
  what the naive quadratic enumeration did.
"""

import json
import random
from pathlib import Path

import pytest

from repro import cli
from repro.core.fasttrack import FastTrack
from repro.detectors.registry import DETECTORS, resolve_tool_name
from repro.obs.metrics import MetricsRegistry
from repro.obs.rules import record_rule_counts
from repro.predict import (
    PredictionReport,
    RaceCandidate,
    WCPDetector,
    build_witness,
    predict_races,
    vindicate,
)
from repro.trace import events as ev
from repro.trace.feasibility import check_feasible
from repro.trace.generators import GeneratorConfig, random_feasible_trace
from repro.trace.happens_before import HappensBefore
from repro.trace.serialize import loads

DATA = Path(__file__).parent / "data"
MANIFEST = json.loads((DATA / "manifest.json").read_text())
SHARD_COUNTS = (1, 2, 4)


def load_trace(name):
    return loads((DATA / f"{name}.trace").read_text())


def warned_vars(detector):
    return {detector.shadow_key(w.var) for w in detector.warnings}


# -- the algorithm ------------------------------------------------------------


class TestWCPDetector:
    def test_registered_as_imprecise(self):
        assert "WCP" in DETECTORS
        assert not DETECTORS["WCP"].precise

    def test_resolve_tool_name_case_insensitive(self):
        assert resolve_tool_name("wcp") == "WCP"
        assert resolve_tool_name("WcP") == "WCP"
        assert resolve_tool_name("fasttrack") == "FastTrack"
        assert resolve_tool_name("djit+") == "DJIT+"
        # Unknown names pass through for the caller's own error message.
        assert resolve_tool_name("TSan") == "TSan"

    def test_nonconflicting_sections_do_not_order(self):
        """The canonical predictive race: coincidental lock ordering."""
        events = list(load_trace("predict_lock"))
        assert not FastTrack().process(events).warnings
        wcp = WCPDetector().process(events)
        assert [w.kind for w in wcp.warnings] == ["write-write"]
        assert wcp.candidates == [
            RaceCandidate(
                var="x",
                kind="write-write",
                earlier_index=2,
                later_index=7,
                earlier_tid=0,
                later_tid=1,
            )
        ]

    def test_conflicting_sections_do_order(self):
        """Both sections write x → the release-acquire edge is kept and
        the accesses are properly protected."""
        events = [
            ev.acq(0, "m"),
            ev.wr(0, "x"),
            ev.rel(0, "m"),
            ev.acq(1, "m"),
            ev.wr(1, "x"),
            ev.rel(1, "m"),
        ]
        wcp = WCPDetector().process(events)
        assert not wcp.warnings
        assert wcp.stats.rules["WCP CONFLICT JOIN"] == 1

    def test_read_read_sections_do_not_conflict(self):
        """Two read-only sections commute; the unprotected write after
        them races with the first section's read."""
        events = [
            ev.acq(0, "m"),
            ev.rd(0, "x"),
            ev.rel(0, "m"),
            ev.acq(1, "m"),
            ev.rd(1, "x"),
            ev.rel(1, "m"),
            ev.wr(1, "y"),
            ev.wr(0, "x"),
        ]
        wcp = WCPDetector().process(events)
        assert [w.kind for w in wcp.warnings] == ["read-write"]

    def test_fork_join_edges_stay_strong(self):
        events = [
            ev.fork(0, 1),
            ev.wr(1, "x"),
            ev.join(0, 1),
            ev.wr(0, "x"),
        ]
        assert not WCPDetector().process(events).warnings

    def test_rule_counters(self):
        events = list(load_trace("predict_lock"))
        wcp = WCPDetector().process(events)
        rules = wcp.stats.rules
        assert rules["WCP ACQUIRE"] == 2
        assert rules["WCP RELEASE"] == 2
        # Section 0 flushes {a, x} into the write history; section 1 {b}.
        assert rules["WCP RELEASE FLUSH"] == 3
        assert "WCP CONFLICT JOIN" not in rules

    def test_superset_of_fasttrack_on_random_traces(self):
        rng = random.Random(0x5E7)
        for round_index in range(10):
            trace = random_feasible_trace(
                rng,
                GeneratorConfig(
                    max_events=300,
                    max_threads=6,
                    n_vars=8,
                    n_locks=3,
                    n_volatiles=2,
                    discipline=0.4,
                    p_fork=0.06,
                    p_join=0.06,
                    p_barrier=0.03,
                    p_volatile=0.05,
                    seed_threads=2,
                ),
            )
            events = list(trace)
            ft = FastTrack().process(events)
            wcp = WCPDetector().process(events)
            assert warned_vars(ft) <= warned_vars(wcp), round_index


# -- golden corpus: superset + vindication ------------------------------------


def test_wcp_strict_superset_on_golden_corpus():
    """The headline acceptance criterion: WCP ⊋ FastTrack over the corpus
    as a whole, with per-trace containment."""
    strict = 0
    for name in sorted(MANIFEST):
        expected = MANIFEST[name]["warnings"]
        assert set(expected["FastTrack"]) <= set(expected["WCP"]), name
        if set(expected["FastTrack"]) < set(expected["WCP"]):
            strict += 1
    assert strict >= 3  # predict_lock, predict_fork, section2


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_every_golden_extra_is_vindicated(name):
    """Every WCP report beyond FastTrack's carries a feasibility-checked
    witness; FastTrack-visible races classify as observed."""
    events = list(load_trace(name))
    report = predict_races(events)
    hb = HappensBefore(events)
    for race in report.races:
        if race.status == "observed":
            # The observed trace is its own witness: the pair really is
            # concurrent in the happens-before order (FastTrack may have
            # site-deduplicated the report, but the race is visible).
            assert hb.concurrent(
                race.candidate.earlier_index, race.candidate.later_index
            ), (name, race)
            continue
        assert race.status == "vindicated", (name, race)
        witness = race.witness.events(events)
        assert check_feasible(witness) == [], (name, race)
        # The racing pair is adjacent and last, in original order.
        assert race.witness.order[-2:] == (
            race.candidate.earlier_index,
            race.candidate.later_index,
        )
    assert report.unvindicated == [], name


@pytest.mark.parametrize("name", ("predict_lock", "predict_fork"))
def test_annotated_witnesses_match(name):
    """The witness reorderings annotated in the trace files are the ones
    the vindicator actually constructs."""
    annotated = {
        "predict_lock": (4, 5, 6, 0, 1, 2, 7),
        "predict_fork": (0, 5, 6, 7, 1, 2, 3, 8),
    }[name]
    report = predict_races(list(load_trace(name)))
    assert [r.status for r in report.races] == ["vindicated"]
    assert report.races[0].witness.order == annotated


# -- vindication negatives ----------------------------------------------------


class TestVindication:
    def test_required_intervening_conflicting_access_rejected(self):
        """A conflicting access in the later thread's own prefix sits
        between the pair in every order-preserving witness."""
        events = [
            ev.wr(0, "x"),
            ev.wr(1, "x"),
            ev.wr(1, "x"),
        ]
        assert build_witness(events, 0, 2) is None
        assert build_witness(events, 0, 1) is not None

    def test_droppable_intervening_access_is_not_required(self):
        """An intervening conflicting access in the *earlier* thread's
        suffix is simply dropped from the witness."""
        events = [
            ev.wr(0, "x"),
            ev.wr(0, "y"),
            ev.wr(0, "x"),
            ev.wr(1, "x"),
        ]
        order = build_witness(events, 0, 3)
        assert order is not None
        assert 2 not in order
        assert check_feasible([events[pos] for pos in order]) == []

    def test_join_forces_observed_order(self):
        """join(1,0) drags thread 0's write before thread 1's: the
        observed order is control-forced, no witness exists."""
        events = [
            ev.wr(0, "x"),
            ev.join(1, 0),
            ev.wr(1, "x"),
        ]
        assert build_witness(events, 0, 2) is None

    def test_same_thread_pair_rejected(self):
        events = [ev.wr(0, "x"), ev.wr(0, "x")]
        assert build_witness(events, 0, 1) is None

    def test_vindicate_requires_feasible_witness(self):
        """vindicate() trusts check_feasible, not the scheduler: a
        candidate whose 'witness' would be infeasible comes back None."""
        events = list(load_trace("predict_lock"))
        bogus = RaceCandidate(
            var="x",
            kind="write-write",
            earlier_index=0,  # an acquire, not an access
            later_index=7,
            earlier_tid=0,
            later_tid=1,
        )
        assert vindicate(events, bogus) is None

    def test_window_bounds_vindication(self):
        events = list(load_trace("predict_lock"))
        wide = predict_races(events, window=10)
        assert [r.status for r in wide.races] == ["vindicated"]
        narrow = predict_races(events, window=2)
        assert [r.status for r in narrow.races] == ["out-of-window"]
        assert narrow.races[0].witness is None

    def test_report_json_schema(self):
        events = list(load_trace("predict_lock"))
        document = predict_races(events, window=16).to_json()
        assert document["schema"] == "repro.predict/1"
        assert document["events"] == len(events)
        assert document["window"] == 16
        (race,) = document["races"]
        assert race["status"] == "vindicated"
        assert race["witness"] == [4, 5, 6, 0, 1, 2, 7]

    def test_prediction_report_accessors(self):
        report = PredictionReport(events=0, window=None)
        assert report.observed == []
        assert report.vindicated == []
        assert report.unvindicated == []


# -- engine -------------------------------------------------------------------


class TestWCPKernel:
    @pytest.mark.parametrize("nshards", SHARD_COUNTS)
    def test_engine_envelope(self, matrix, nshards):
        """docs/PREDICT.md's sharding envelope (the matrix's cells:
        sharded ⊇ single, equal at one shard), and sharded WCP still
        warns on every variable FastTrack does."""
        row, column = f"envelope-{77 + nshards}", f"shards={nshards}"
        matrix.check([row], ["object", "events", column], ["WCP"])

        def warned(tool):
            document = matrix.document(row, column, tool)
            return {json.dumps(w["var"]) for w in document["warnings"]}

        assert warned("FastTrack") <= warned("WCP")


# -- wiring: CLI, service, obs ------------------------------------------------


class TestPredictCLI:
    @pytest.fixture
    def lock_trace(self):
        return str(DATA / "predict_lock.trace")

    def test_check_tool_wcp_case_insensitive(self, lock_trace, capsys):
        assert cli.main(["check", lock_trace, "--tool", "wcp"]) == 1
        out = capsys.readouterr().out
        assert "WCP: 1 warning(s)" in out
        assert cli.main(["check", lock_trace, "--tool", "FastTrack"]) == 0

    def test_check_tool_wcp_sharded(self, matrix):
        matrix.check(["predict_lock"], ["text", "text-2"], ["WCP"])
        # On this trace WCP's envelope is tight: 2 shards, same warnings.
        assert matrix.document("predict_lock", "shards=2", "WCP")[
            "warnings"
        ] == matrix.document("predict_lock", "check", "WCP")["warnings"]

    def test_predict_command(self, lock_trace, capsys):
        assert cli.main(["predict", lock_trace]) == 1
        out = capsys.readouterr().out
        assert "1 predicted+vindicated" in out

    def test_predict_json(self, lock_trace, capsys):
        assert cli.main(["predict", lock_trace, "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro.predict/1"
        assert document["races"][0]["status"] == "vindicated"

    def test_predict_window_out_of_range_exits_zero(self, lock_trace, capsys):
        assert cli.main(["predict", lock_trace, "--window", "2"]) == 0
        assert "out of window" in capsys.readouterr().out

    def test_predict_race_free_trace_exits_zero(self, capsys):
        assert cli.main(["predict", str(DATA / "figure4.trace")]) == 0

    def test_predict_missing_file(self, capsys):
        assert cli.main(["predict", "/no/such/file.trace"]) == 2
        assert "error" in capsys.readouterr().err

    def test_tools_lists_wcp(self, capsys):
        assert cli.main(["tools"]) == 0
        assert "WCP" in capsys.readouterr().out


def test_service_runs_wcp_jobs(matrix):
    """A ``tool: wcp`` job (case-insensitive) through the real daemon
    equals ``repro check --tool WCP --json`` byte for byte."""
    matrix.check(["predict_lock"], ["served-tool"], ["WCP"])


def test_wcp_rule_metrics_exposed():
    """The WCP edge kinds surface as repro_rule_total{detector="WCP"}."""
    registry = MetricsRegistry()
    wcp = WCPDetector().process(list(load_trace("predict_lock")))
    counts = record_rule_counts("WCP", wcp.stats, registry)
    assert counts["WCP ACQUIRE"] == 2
    assert counts["WCP RELEASE"] == 2
    assert counts["WCP RELEASE FLUSH"] == 3
    assert list(counts) == sorted(counts)
    text = registry.render()
    assert 'repro_rule_total{detector="WCP",rule="WCP ACQUIRE"} 2' in text


# -- HappensBefore.races() bitmask index --------------------------------------


def _naive_races(hb):
    """The pre-optimization quadratic enumeration, kept as the reference."""
    per_var = {}
    for index, event in enumerate(hb.events):
        if event.kind in (ev.READ, ev.WRITE):
            per_var.setdefault(event.target, []).append(index)
    found = []
    for accesses in per_var.values():
        for a_pos, i in enumerate(accesses):
            event_i = hb.events[i]
            for j in accesses[a_pos + 1 :]:
                event_j = hb.events[j]
                if event_i.kind == ev.READ and event_j.kind == ev.READ:
                    continue
                if not hb.ordered(i, j):
                    found.append((i, j))
    found.sort(key=lambda pair: (pair[1], pair[0]))
    return found


@pytest.mark.parametrize("seed", range(15))
def test_races_bitmask_matches_naive_enumeration(seed):
    rng = random.Random(seed)
    trace = random_feasible_trace(
        rng,
        GeneratorConfig(
            max_events=250,
            max_threads=6,
            n_vars=5,
            n_locks=2,
            n_volatiles=1,
            discipline=rng.choice([0.0, 0.3, 0.8]),
            p_fork=0.06,
            p_join=0.05,
            p_barrier=0.03,
            p_volatile=0.05,
            seed_threads=2,
        ),
    )
    hb = HappensBefore(list(trace))
    assert hb.races() == _naive_races(hb)


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_races_bitmask_matches_naive_on_corpus(name):
    hb = HappensBefore(list(load_trace(name)))
    assert hb.races() == _naive_races(hb)
