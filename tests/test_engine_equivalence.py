"""Differential tests: the sharded engine vs single-threaded detectors.

The engine's whole claim (docs/ENGINE.md) is that sharding by variable with
broadcast synchronization loses nothing: for every tool, every shard count,
and every trace, the merged report must be *warning-for-warning identical*
to ``make_detector(tool).process(trace)`` — same variables, same kinds,
same ``event_index`` positions, same ``prior`` descriptions, same
suppressed-warning count.  These tests enforce that over seeded random
feasible traces spanning the paper's sharing idioms (disciplined,
semi-disciplined, and chaotic), at 1, 2, and 4 shards.
"""

import json
import os
import random
import shutil
from pathlib import Path

import pytest

from repro import cli, engine
from repro.detectors import DETECTORS, make_detector
from repro.engine.checkpoint import CheckpointError, Workdir
from repro.report import detector_result, dumps_result
from repro.trace.generators import GeneratorConfig, random_feasible_trace

#: The tools the issue calls out, spanning precise VC tools and Eraser.
TOOLS = ("FastTrack", "DJIT+", "Eraser")
SHARD_COUNTS = (1, 2, 4)

#: From fully lock-disciplined (race-free) to chaotic (many races), with
#: fork/join, barriers, and volatiles in the mix.
CONFIGS = (
    GeneratorConfig(
        max_events=350, max_threads=4, n_vars=8, n_locks=3, discipline=1.0
    ),
    GeneratorConfig(
        max_events=350,
        max_threads=5,
        n_vars=10,
        n_locks=2,
        discipline=0.5,
        p_fork=0.1,
        p_join=0.08,
        p_volatile=0.08,
    ),
    GeneratorConfig(
        max_events=350,
        max_threads=6,
        n_vars=6,
        n_locks=2,
        discipline=0.1,
        p_fork=0.12,
        p_barrier=0.05,
    ),
)
SEEDS = (0, 1, 2, 3)


def _tool_kwargs(tool):
    # Mirror the CLI: FastTrack reports both sides of a race via sites.
    return {"track_sites": True} if tool == "FastTrack" else {}


def _traces():
    for config_index, config in enumerate(CONFIGS):
        for seed in SEEDS:
            rng = random.Random(1000 * config_index + seed)
            yield random_feasible_trace(rng, config)


@pytest.mark.parametrize("nshards", SHARD_COUNTS)
@pytest.mark.parametrize("tool", TOOLS)
def test_sharded_identical_to_single_threaded(tool, nshards):
    some_warnings = 0
    for trace in _traces():
        kwargs = _tool_kwargs(tool)
        single = make_detector(tool, **kwargs).process(trace)
        report = engine.check_events(
            trace.events, tool=tool, nshards=nshards, tool_kwargs=kwargs
        )
        assert report.warnings == single.warnings
        assert [str(w) for w in report.warnings] == [
            str(w) for w in single.warnings
        ]
        assert report.suppressed_warnings == single.suppressed_warnings
        assert report.events == len(trace)
        assert report.stats.reads == single.stats.reads
        assert report.stats.writes == single.stats.writes
        assert report.stats.syncs == single.stats.syncs
        some_warnings += report.warning_count
    # The chaotic configurations must actually exercise the merge path.
    assert some_warnings > 0


def test_every_registered_tool_survives_sharding():
    rng = random.Random(99)
    trace = random_feasible_trace(
        rng,
        GeneratorConfig(
            max_events=500, max_threads=5, n_vars=12, discipline=0.3
        ),
    )
    for tool in DETECTORS:
        kwargs = _tool_kwargs(tool)
        single = make_detector(tool, **kwargs).process(trace)
        report = engine.check_events(
            trace.events, tool=tool, nshards=3, tool_kwargs=kwargs
        )
        if tool == "WCP":
            # Sharding envelope (docs/PREDICT.md): per-variable routing
            # hides *other* shards' conflict joins, so sharded WCP warns
            # on a superset of the single-threaded run's variables — it
            # never loses a warning.
            assert {w.var for w in single.warnings} <= {
                w.var for w in report.warnings
            }, tool
            continue
        assert report.warnings == single.warnings, tool
        assert report.suppressed_warnings == single.suppressed_warnings, tool


def test_multiprocessing_workers_identical(tmp_path):
    rng = random.Random(7)
    trace = random_feasible_trace(
        rng,
        GeneratorConfig(
            max_events=800, max_threads=5, n_vars=16, discipline=0.4
        ),
    )
    kwargs = _tool_kwargs("FastTrack")
    single = make_detector("FastTrack", **kwargs).process(trace)
    report = engine.check_events(
        trace.events,
        tool="FastTrack",
        nshards=4,
        jobs=2,
        workdir=str(tmp_path),
        tool_kwargs=kwargs,
    )
    assert report.warnings == single.warnings
    assert report.suppressed_warnings == single.suppressed_warnings


def test_cross_shard_site_dedup_matches_single_threaded():
    """Two variables in *different* shards race at the same source site: a
    single-threaded run reports only the earlier one (the site dedup of the
    reporting discipline), so the merge replay must drop the later one."""
    from repro.engine.partition import shard_of
    from repro.trace import events as ev
    from repro.trace.trace import Trace

    nshards = 2
    var_a = "a0"
    var_b = next(
        f"b{i}"
        for i in range(100)
        if shard_of(f"b{i}", nshards) != shard_of(var_a, nshards)
    )
    site = "hot.line"
    trace = Trace(
        [
            ev.fork(0, 1),
            ev.wr(0, var_a, site=site),
            ev.wr(0, var_b, site=site),
            ev.wr(1, var_a, site=site),  # race on var_a, reported
            ev.wr(1, var_b, site=site),  # race on var_b, same site: suppressed
        ]
    )
    single = make_detector("FastTrack", track_sites=True).process(trace)
    report = engine.check_events(
        trace.events,
        tool="FastTrack",
        nshards=nshards,
        tool_kwargs={"track_sites": True},
    )
    assert single.warning_count == 1  # the premise: site dedup fired
    assert report.warnings == single.warnings
    assert report.suppressed_warnings == single.suppressed_warnings == 1


# -- every tool, every shard count -------------------------------------------


def _reference_trace():
    rng = random.Random(4242)
    return random_feasible_trace(
        rng,
        GeneratorConfig(
            max_events=600,
            max_threads=5,
            n_vars=14,
            n_locks=2,
            discipline=0.3,
            p_fork=0.1,
            p_volatile=0.05,
        ),
    )


@pytest.mark.parametrize("nshards", SHARD_COUNTS)
def test_all_tools_bit_identical_across_shard_counts(tmp_path, nshards):
    """For every registered tool, the warnings of the canonical
    ``repro.result/1`` document are the single-threaded run's, byte for
    byte, at every shard count.  (Cost counters are per-shard sums, so
    the rest of the document may differ; WCP's sharding envelope —
    docs/PREDICT.md — warns on a superset of variables.)"""
    trace = _reference_trace()
    for tool in DETECTORS:
        kwargs = _tool_kwargs(tool)
        single = detector_result(make_detector(tool, **kwargs).process(trace))
        report = engine.check_events(
            trace.events,
            tool=tool,
            nshards=nshards,
            workdir=str(tmp_path / f"{tool}-{nshards}"),
            tool_kwargs=kwargs,
        ).to_json()
        if tool == "WCP" and nshards > 1:
            assert {w["var"] for w in single["warnings"]} <= {
                w["var"] for w in report["warnings"]
            }
            continue
        for key in ("warnings", "warning_count", "suppressed_warnings"):
            assert json.dumps(report[key]) == json.dumps(single[key]), (
                tool, nshards, key,
            )


def test_transport_keyword_accepts_only_mmap(tmp_path):
    trace = _reference_trace()
    with pytest.raises(ValueError, match="mmap"):
        engine.check_events(trace.events, nshards=1, transport="shm")
    with pytest.raises(ValueError, match="mmap"):
        engine.partition_events(
            trace.events, Workdir(str(tmp_path)), 1, transport="auto"
        )


def test_crash_resume_over_v3_partition(tmp_path):
    """A resumed run over a v3 partition reuses checkpoints: delete one
    shard's result, resume, and the bytes match the uninterrupted run."""
    trace = _reference_trace()
    workdir = tmp_path / "resume"
    kwargs = _tool_kwargs("FastTrack")

    def run():
        return engine.check_events(
            trace.events,
            tool="FastTrack",
            nshards=4,
            workdir=str(workdir),
            resume=True,
            tool_kwargs=kwargs,
        )

    full = dumps_result(run().to_json())
    wd = Workdir(str(workdir))
    meta = wd.read_meta()
    assert meta is not None and meta["format_version"] == 3
    # Simulate a crash that lost one shard's checkpoint mid-run: the
    # partition and the other three checkpoints survive on disk.
    os.unlink(wd.result_path("FastTrack", 2))
    assert sorted(wd.completed_shards("FastTrack", 4)) == [0, 1, 3]
    assert dumps_result(run().to_json()) == full
    assert sorted(wd.completed_shards("FastTrack", 4)) == [0, 1, 2, 3]


def test_v2_workdir_rejected_with_version_error(tmp_path):
    """Resuming against a pickle-era (v2) partition must fail fast and
    name both versions — never silently re-partition over it."""
    trace = _reference_trace()
    workdir = tmp_path / "v2"
    workdir.mkdir()
    (workdir / "meta.json").write_text(json.dumps({
        "format_version": 2,
        "nshards": 4,
        "events": len(trace),
        "batches": {"0": 1, "1": 1, "2": 1, "3": 1},
    }))
    with pytest.raises(CheckpointError) as exc:
        engine.check_events(
            trace.events,
            tool="FastTrack",
            nshards=4,
            workdir=str(workdir),
            resume=True,
        )
    message = str(exc.value)
    assert "v2" in message and "v3" in message
    assert "fresh directory" in message


# -- resuming directories written before the shm transport went --------------


_GOLDEN = str(Path(__file__).parent / "data" / "tsp_small.trace")


def _resume_check(workdir, capsys):
    code = cli.main([
        "check", _GOLDEN, "--shards", "2", "--resume", str(workdir), "--json",
    ])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parent_format_workdir_resumes_to_identical_bytes(tmp_path, capsys):
    """An mmap directory written when there were two transports carries
    ``transport``/``blocks`` in ``meta.json`` and ``timing``/``transport``
    in every checkpoint; it resumes unchanged, re-analyzing only the
    shard whose checkpoint is gone."""
    workdir = tmp_path / "parent"
    code, reference, _ = _resume_check(workdir, capsys)
    assert code in (0, 1)
    wd = Workdir(str(workdir))
    meta = wd.read_meta()
    meta.update(transport="mmap", blocks={"shards": [], "intern": None})
    wd.write_meta(meta)
    for shard in range(2):
        payload = wd.read_result("FastTrack", shard)
        payload["transport"] = "mmap"
        payload["timing"] = {
            "started": 1.0, "wall_s": 0.01, "cpu_s": 0.01,
            "transport_s": 0.001,
        }
        wd.write_result("FastTrack", shard, payload)
    assert _resume_check(workdir, capsys)[:2] == (code, reference)
    os.unlink(wd.result_path("FastTrack", 1))
    assert _resume_check(workdir, capsys)[:2] == (code, reference)
    assert wd.completed_shards("FastTrack", 2) == [0, 1]


def test_shm_era_workdir_is_refused_naming_the_shard_file(tmp_path, capsys):
    """Under the shm transport the shard buffers lived outside the
    directory, so there are no shard files to resume from."""
    workdir = tmp_path / "shm"
    workdir.mkdir()
    (workdir / "meta.json").write_text(json.dumps({
        "format_version": 3,
        "nshards": 2,
        "events": 2206,
        "shard_events": [1103, 1103],
        "transport": "shm",
        "generation": "0badc0de",
        "blocks": {
            "shards": ["repro3-x-0badc0de-0000", "repro3-x-0badc0de-0001"],
            "intern": "repro3-x-0badc0de-intern",
        },
    }))
    (workdir / "intern.bin").write_bytes(b"")
    code, out, err = _resume_check(workdir, capsys)
    assert code == 2 and out == ""
    assert "missing shard file" in err and "shard_0000.bin" in err


def test_truncated_shard_file_is_refused(tmp_path, capsys):
    """A shard file cut short is refused up front (exit 2, naming the
    file and both sizes) instead of being retried and quarantined."""
    workdir = tmp_path / "cut"
    assert _resume_check(workdir, capsys)[0] in (0, 1)
    wd = Workdir(str(workdir))
    path = wd.shard_path(1)
    size = os.path.getsize(path)
    with open(path, "r+b") as stream:
        stream.truncate(size // 2)
    shutil.rmtree(wd.results_dir)
    code, out, err = _resume_check(workdir, capsys)
    assert code == 2 and out == ""
    assert "shard_0001.bin" in err
    assert f"is {size // 2} bytes, expected {size}" in err
