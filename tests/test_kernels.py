"""The analysis loop a tool gets vs the object path: bit-identical.

``analyze_columns`` runs a tool's fused kernel when it has one and the
object path over the columns otherwise.  The kernels' contract
(docs/KERNELS.md) is strict equivalence: the loop must produce the
*same* warnings (same order, same ``event_index``, same ``prior`` text),
the same ``CostStats`` and rule counters, the same suppressed-warning
count, and the same shadow state as ``detector.process(events)``.  These
tests enforce that over the golden corpus, hand-built edge traces, and
through the sharded engine at 1, 2, and 4 shards, where a kernel fault
on every shard must fall back to the object path with the same result.
"""

import json
import random
from pathlib import Path

import pytest

from repro import engine, faults
from repro.cli import main
from repro.detectors.registry import make_detector
from repro.engine.checkpoint import Workdir
from repro.engine.worker import analyze_columns
from repro.kernels import KERNEL_TOOLS, has_kernel, run_kernel
from repro.trace import events as ev
from repro.trace.columnar import ColumnarTrace
from repro.trace.generators import GeneratorConfig, random_feasible_trace
from repro.trace.serialize import dumps, loads
from repro.trace.trace import Trace

DATA = Path(__file__).parent / "data"
MANIFEST = json.loads((DATA / "manifest.json").read_text())
SHARD_COUNTS = (1, 2, 4)

#: The tools a served job runs: FastTrack and DJIT+ take their kernels,
#: WCP the object path over the columns.
TOOLS = KERNEL_TOOLS + ("WCP",)


def _slot_attrs(obj):
    names = []
    for cls in type(obj).__mro__:
        names.extend(getattr(cls, "__slots__", ()))
    if hasattr(obj, "__dict__"):
        names.extend(obj.__dict__)
    return names


def assert_bit_identical(generic, fused, context=""):
    """The full equivalence contract, down to shadow-state dict order."""
    assert [str(w) for w in generic.warnings] == [
        str(w) for w in fused.warnings
    ], context
    assert generic.stats.summary() == fused.stats.summary(), context
    assert list(generic.stats.rules.items()) == list(
        fused.stats.rules.items()
    ), context
    assert generic.suppressed_warnings == fused.suppressed_warnings, context
    for coll in ("vars", "locks", "threads", "held"):
        g = getattr(generic, coll, None)
        f = getattr(fused, coll, None)
        if g is None:
            assert f is None, (context, coll)
            continue
        assert list(g) == list(f), (context, coll)
        if isinstance(g, dict):
            for key in g:
                gv, fv = g[key], f[key]
                assert type(gv) is type(fv), (context, coll, key)
                for attr in _slot_attrs(gv):
                    assert repr(getattr(gv, attr)) == repr(
                        getattr(fv, attr)
                    ), (context, coll, key, attr)


def run_both(tool, events):
    """The object path and the loop ``analyze_columns`` gives ``tool``.

    The loop must be the tool's own: a kernel that raises would be
    redone on the object path and compare that path with itself.
    """
    generic = make_detector(tool).process(events)
    analyzed, used, _ = analyze_columns(
        tool, ColumnarTrace.from_events(events)
    )
    assert used == ("fused" if has_kernel(tool) else "generic"), tool
    return generic, analyzed


@pytest.mark.parametrize("tool", TOOLS)
@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_golden_corpus_bit_identical(tool, name):
    events = list(loads((DATA / f"{name}.trace").read_text()))
    generic, fused = run_both(tool, events)
    assert_bit_identical(generic, fused, f"{tool}/{name}")


@pytest.mark.parametrize("tool", TOOLS)
def test_empty_trace(tool):
    generic, fused = run_both(tool, [])
    assert_bit_identical(generic, fused, tool)


@pytest.mark.parametrize("tool", TOOLS)
def test_rare_kinds_interleaved(tool):
    """Fork/join/volatile/barrier (the kernels' dispatch escape hatch)
    interleaved with accesses, including a volatile access interning a
    target *before* its first plain access (a shadow-dict-order trap)."""
    events = [
        ev.Event(ev.VOLATILE_WRITE, 0, "x2", None),
        ev.Event(ev.WRITE, 0, "x1", "s1"),
        ev.Event(ev.FORK, 0, 1, None),
        ev.Event(ev.WRITE, 1, "x2", "s2"),
        ev.Event(ev.READ, 1, "x1", "s2"),
        ev.Event(ev.ACQUIRE, 1, "m", None),
        ev.Event(ev.VOLATILE_READ, 1, "x2", None),
        ev.Event(ev.RELEASE, 1, "m", None),
        ev.Event(ev.BARRIER_RELEASE, -1, (0, 1), None),
        ev.Event(ev.READ, 0, "x2", "s3"),
        ev.Event(ev.JOIN, 0, 1, None),
        ev.Event(ev.WRITE, 0, "x1", "s4"),
        ev.Event(ev.ENTER, 0, "fn", None),
        ev.Event(ev.EXIT, 0, "fn", None),
    ]
    generic, fused = run_both(tool, events)
    assert_bit_identical(generic, fused, tool)
    assert list(generic.vars) == list(fused.vars)


@pytest.mark.parametrize("tool", TOOLS)
def test_warning_indices_and_priors(tool):
    """Racy trace: event_index and prior strings must match exactly."""
    rng = random.Random(11)
    trace = random_feasible_trace(
        rng,
        GeneratorConfig(
            max_events=400, max_threads=5, n_vars=6, discipline=0.1
        ),
    )
    events = list(trace)
    generic, fused = run_both(tool, events)
    assert generic.warnings, f"{tool}: trace should be racy"
    for gw, fw in zip(generic.warnings, fused.warnings):
        assert gw.event_index == fw.event_index
        assert gw.prior == fw.prior


def test_run_kernel_rejects_unknown_tool():
    with pytest.raises(ValueError):
        run_kernel("NoSuchTool", ColumnarTrace())


def test_run_kernel_rejects_wrong_detector_class():
    col = ColumnarTrace.from_events([ev.Event(ev.READ, 0, "x", None)])
    with pytest.raises(TypeError):
        run_kernel("FastTrack", col, detector=make_detector("Eraser"))


def test_has_kernel():
    for tool in KERNEL_TOOLS:
        assert has_kernel(tool)
    assert not has_kernel("Empty")


@pytest.fixture
def clean_faults():
    faults.clear()
    yield
    faults.clear()


@pytest.mark.parametrize("nshards", SHARD_COUNTS)
@pytest.mark.parametrize("tool", TOOLS)
def test_engine_fused_identical_to_generic(tool, nshards, tmp_path,
                                           clean_faults):
    """The engine's result with each tool's own loop equals the
    single-threaded object path at 1/2/4 shards; for a tool with a
    kernel, so does the result when the kernel fails on every shard and
    the object path redoes it."""
    rng = random.Random(500 + nshards)
    trace = random_feasible_trace(
        rng,
        GeneratorConfig(
            max_events=400,
            max_threads=5,
            n_vars=10,
            n_locks=2,
            discipline=0.3,
            p_fork=0.08,
            p_join=0.06,
            p_volatile=0.05,
        ),
    )
    single = make_detector(tool).process(trace)
    # Without a kernel there is nothing to fault: one run is the test.
    modes = ("own", "fallback") if has_kernel(tool) else ("own",)
    reports, loops = {}, {}
    for mode in modes:
        if mode == "fallback":
            faults.install(faults.parse_plan(json.dumps({
                "schema": "repro.faults/1",
                "faults": [{"point": "kernel.run", "times": 99}],
            })))
        root = str(tmp_path / mode)
        reports[mode] = engine.check_events(
            trace.events, tool=tool, nshards=nshards, workdir=root
        )
        loops[mode] = {
            Workdir(root).read_result(tool, shard)["kernel"]
            for shard in range(nshards)
        }
    expected = {"own": {"fused" if has_kernel(tool) else "generic"}}
    if has_kernel(tool):
        expected["fallback"] = {"generic"}
    assert loops == expected
    for mode, report in reports.items():
        context = (tool, nshards, mode)
        if tool == "WCP" and nshards > 1:
            # WCP's sharding envelope (docs/PREDICT.md): per-variable
            # routing hides cross-variable conflict joins, so a sharded
            # run warns on a superset of the single-threaded variables.
            assert {w.var for w in single.warnings} <= {
                w.var for w in report.warnings
            }, context
        else:
            assert [str(w) for w in report.warnings] == [
                str(w) for w in single.warnings
            ], context
            assert report.suppressed_warnings == single.suppressed_warnings, (
                context
            )
        assert report.stats.reads == single.stats.reads, context
        assert report.stats.writes == single.stats.writes, context
    if not has_kernel(tool):
        return
    own, fallback = reports["own"], reports["fallback"]
    assert [str(w) for w in fallback.warnings] == [
        str(w) for w in own.warnings
    ], (tool, nshards)
    assert fallback.suppressed_warnings == own.suppressed_warnings, (
        tool, nshards,
    )
    assert fallback.stats.summary() == own.stats.summary(), (tool, nshards)


class TestKernelCLI:
    @pytest.fixture
    def racy_file(self, tmp_path):
        events = [
            ev.Event(ev.WRITE, 0, "x", "a.py:1"),
            ev.Event(ev.WRITE, 1, "x", "a.py:2"),
        ]
        path = tmp_path / "racy.trace"
        path.write_text(dumps(Trace(events)))
        return str(path)

    def test_kernel_option_is_gone(self, racy_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", racy_file, "--kernel", "auto"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --kernel" in capsys.readouterr().err

    def test_jobs_auto(self, racy_file, capsys):
        assert main(["check", racy_file, "--jobs", "auto"]) == 1

    def test_jobs_oversubscription_warning(self, racy_file, capsys):
        assert main(["check", racy_file, "--jobs", "99"]) == 1
        assert "exceeds" in capsys.readouterr().err
