"""The per-shard classifier checkpoint: one profiling pass per partition.

The sharing-classifier block of a ``repro.result/1`` document depends
only on the trace, so a partition's shards are profiled once — by the
first classifying run — and every later tool, job and ``--resume`` run
reads ``classifier/shard_NNNN.json``.  A checkpoint that is torn, names
another shard or carries another partition generation is recomputed,
never trusted, and the bytes never change.
"""

import io
import json
import os
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro import cli, engine, faults, obs
from repro.detectors.classifier import SharingClassifier
from repro.service.client import Client
from repro.service.server import ServiceConfig, start_in_thread

DATA = Path(__file__).parent / "data"
TRACE = str(DATA / "tsp_small.trace")


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture()
def passes(monkeypatch):
    """Every ``SharingClassifier.process`` call made while the test runs."""
    calls = []
    process = SharingClassifier.process

    def counted(self, trace):
        calls.append(len(trace))
        return process(self, trace)

    monkeypatch.setattr(SharingClassifier, "process", counted)
    return calls


def _check(*argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(["check", *argv])
    assert code in (0, 1), code
    return buffer.getvalue()


def _checkpoint(workdir, shard):
    with open(engine.Workdir(workdir).classifier_path(shard)) as stream:
        return json.load(stream)


# -- engine and CLI -----------------------------------------------------------


def test_all_tools_profile_each_shard_once(passes):
    _check(TRACE, "--shards", "2", "--all-tools", "--json")
    assert len(passes) == 2  # one per shard, not one per tool per shard


@pytest.mark.parametrize("tools", [[], ["--all-tools"]], ids=["tool", "all"])
def test_resume_json_after_plain_run_prints_fresh_bytes(tmp_path, tools):
    workdir = str(tmp_path / "wd")
    fresh = _check(TRACE, "--shards", "2", "--json", *tools)
    _check(TRACE, "--shards", "2", "--resume", workdir, *tools)
    resumed = _check(
        TRACE, "--shards", "2", "--resume", workdir, "--json", *tools
    )
    assert '"classifier": null' not in resumed
    assert resumed == fresh


def test_plain_runs_neither_read_nor_write_the_checkpoint(tmp_path, passes):
    workdir = tmp_path / "wd"
    _check(TRACE, "--shards", "2", "--resume", str(workdir), "--all-tools")
    assert passes == []
    assert not (workdir / "classifier").exists()


def test_resume_reads_the_checkpoints(tmp_path, passes):
    workdir = str(tmp_path / "wd")
    first = _check(TRACE, "--shards", "3", "--resume", workdir, "--json")
    assert len(passes) == 3
    meta = engine.Workdir(workdir).read_meta()
    for shard in range(3):
        checkpoint = _checkpoint(workdir, shard)
        assert checkpoint["shard"] == shard
        assert checkpoint["generation"] == meta["generation"]
    again = _check(
        TRACE, "--shards", "3", "--resume", workdir, "--json",
        "--tool", "DJIT+",
    )
    assert len(passes) == 3
    assert json.loads(again)["classifier"] == json.loads(first)["classifier"]


def _tear(path):
    text = Path(path).read_text()
    Path(path).write_text(text[: len(text) // 2])


def _truncate(path):
    Path(path).write_text("")


def _other_generation(path):
    checkpoint = json.loads(Path(path).read_text())
    checkpoint["generation"] = "0" * 8
    Path(path).write_text(json.dumps(checkpoint))


def _other_shard(path):
    checkpoint = json.loads(Path(path).read_text())
    checkpoint["shard"] = 0
    Path(path).write_text(json.dumps(checkpoint))


@pytest.mark.parametrize(
    "damage", [_tear, _truncate, _other_generation, _other_shard],
    ids=["torn", "truncated", "other-generation", "other-shard"],
)
def test_bad_checkpoint_is_recomputed_with_identical_bytes(
    tmp_path, passes, damage
):
    expected = _check(TRACE, "--shards", "2", "--json", "--tool", "WCP")
    workdir = str(tmp_path / "wd")
    _check(TRACE, "--shards", "2", "--resume", workdir, "--json")
    path = engine.Workdir(workdir).classifier_path(1)
    good = _checkpoint(workdir, 1)
    damage(path)
    passes.clear()
    served = _check(
        TRACE, "--shards", "2", "--resume", workdir, "--json",
        "--tool", "WCP",
    )
    assert served == expected
    assert len(passes) == 1  # shard 1 only; shard 0's checkpoint held
    assert _checkpoint(workdir, 1) == good


def test_repartitioned_directory_invalidates_the_checkpoints(tmp_path, passes):
    workdir = str(tmp_path / "wd")
    _check(TRACE, "--shards", "2", "--resume", workdir, "--json")
    stale = _checkpoint(workdir, 0)["generation"]
    # A run without --resume re-partitions: a new generation.
    engine.check_trace_file(
        TRACE, nshards=2, workdir=workdir, classify=True
    )
    assert len(passes) == 4
    assert _checkpoint(workdir, 0)["generation"] != stale


def test_torn_checkpoint_write_heals(tmp_path, passes):
    expected = {
        tool: _check(TRACE, "--shards", "2", "--json", "--tool", tool)
        for tool in ("FastTrack", "DJIT+")
    }
    faults.install(faults.parse_plan(json.dumps({
        "schema": "repro.faults/1",
        "faults": [{"point": "classifier.write", "action": "torn",
                    "match": {"shard": 1}}],
    })))
    workdir = str(tmp_path / "wd")
    assert _check(
        TRACE, "--shards", "2", "--resume", workdir, "--json"
    ) == expected["FastTrack"]
    with pytest.raises(json.JSONDecodeError):
        _checkpoint(workdir, 1)
    passes.clear()
    assert _check(
        TRACE, "--shards", "2", "--resume", workdir, "--json",
        "--tool", "DJIT+",
    ) == expected["DJIT+"]
    assert len(passes) == 1
    assert _checkpoint(workdir, 1)["shard"] == 1


def test_one_classifier_span_per_pass(tmp_path):
    directory = str(tmp_path / "tel")
    _check(
        TRACE, "--shards", "2", "--all-tools", "--json",
        "--telemetry", directory,
    )
    spans = [
        record for record in obs.read_all_spans(directory)
        if record["type"] == "span" and record["name"] == "detectors.classifier"
    ]
    assert len(spans) == 2
    assert all(span["attrs"]["events"] > 0 for span in spans)


# -- the daemon's resident partitions -----------------------------------------


def _served(client, tool, shards=1):
    job = client.submit(path=TRACE, tools=[tool], shards=shards)
    client.wait(job["id"], timeout=60.0, poll=0.05)
    return client.result_bytes(job["id"]).decode("utf-8"), job


def test_served_jobs_profile_the_partition_once(tmp_path, passes):
    expected = {
        tool: _check(TRACE, "--json", "--tool", tool)
        for tool in ("FastTrack", "WCP", "DJIT+", "Eraser")
    }
    passes.clear()
    store = str(tmp_path / "store")
    handle = start_in_thread(ServiceConfig(port=0, workers=1, store_dir=store))
    try:
        client = Client(port=handle.port, timeout=30.0)
        for tool in ("FastTrack", "WCP", "DJIT+"):
            assert _served(client, tool)[0] == expected[tool]
        assert len(passes) == 1
    finally:
        handle.stop(grace=5.0)
    passes.clear()
    handle = start_in_thread(ServiceConfig(port=0, workers=1, store_dir=store))
    try:
        client = Client(port=handle.port, timeout=30.0)
        assert _served(client, "Eraser")[0] == expected["Eraser"]
        assert passes == []  # the resident partition's checkpoint held
    finally:
        handle.stop(grace=5.0)


def test_recreated_resident_partition_is_reprofiled(tmp_path, passes):
    expected = _check(TRACE, "--json", "--tool", "WCP", "--shards", "2")
    passes.clear()
    handle = start_in_thread(
        ServiceConfig(port=0, workers=1, store_dir=str(tmp_path / "store"))
    )
    try:
        client = Client(port=handle.port, timeout=30.0)
        _, first = _served(client, "FastTrack", shards=2)
        key = client.status(first["id"])["partition"]
        resident = engine.Workdir(handle.service.store.partition_dir(key))
        stale = _checkpoint(resident.root, 0)["generation"]
        path = resident.shard_path(1)
        with open(path, "r+b") as stream:
            stream.truncate(os.path.getsize(path) // 2)
        assert _served(client, "WCP", shards=2)[0] == expected
        assert len(passes) == 4  # two shards, each profiled twice
        generation = resident.read_meta()["generation"]
        assert generation != stale
        assert _checkpoint(resident.root, 0)["generation"] == generation
    finally:
        handle.stop(grace=5.0)
