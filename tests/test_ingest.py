"""The engine's one ingest path: trace file → columns → shard files.

The shard layout is pinned by decoding shard files with ``struct`` at the
offsets docs/ENGINE.md documents, never through the transport's own
reader, so a writer and reader that drift together cannot go unnoticed
(``--resume`` directories written by older builds must stay readable).
The other tests cover the routes into the partitioner, a parse error
mid-file, durability ordering and the ingest's span.
"""

import json
import os
import pickle
import struct
from pathlib import Path

import pytest

from repro import engine, obs
from repro.cli import main
from repro.engine.checkpoint import Workdir
from repro.engine.partition import shard_of
from repro.trace import events as ev
from repro.trace.serialize import dumps_jsonl, loads

DATA = Path(__file__).parent / "data"
TRACES = sorted(DATA.glob("*.trace"))


def _load(path):
    return loads(Path(path).read_text(encoding="utf-8"))


def _decode_shard(path, n):
    """A shard file's five segments, decoded from the documented layout:
    int64 indices/tids/target_ids/site_ids at 0, 8n, 16n, 24n, then int8
    kinds at 32n."""
    raw = Path(path).read_bytes()
    assert len(raw) == max(1, 33 * n)
    names = ("indices", "tids", "target_ids", "site_ids")
    segments = {
        name: struct.unpack_from(f"={n}q", raw, 8 * n * position)
        for position, name in enumerate(names)
    }
    segments["kinds"] = struct.unpack_from(f"={n}b", raw, 32 * n)
    return segments


@pytest.mark.parametrize("nshards", [1, 3])
def test_shard_files_follow_the_documented_v3_layout(tmp_path, nshards):
    path = DATA / "figure4.trace"
    trace = _load(path)
    root = str(tmp_path / "wd")
    engine.check_trace_file(str(path), nshards=nshards, workdir=root)
    wd = Workdir(root)
    with open(wd.intern_path, "rb") as stream:
        targets, sites = pickle.load(stream)
    meta = json.loads(Path(wd.meta_path).read_text(encoding="utf-8"))
    assert meta["format_version"] == 3
    for shard in range(nshards):
        expected = [
            (index, event) for index, event in enumerate(trace.events)
            if event.kind not in (ev.READ, ev.WRITE)
            or shard_of(event.target, nshards) == shard
        ]
        n = len(expected)
        assert meta["shard_events"][shard] == n
        segments = _decode_shard(wd.shard_path(shard), n)
        decoded = [
            (
                index,
                ev.Event(
                    kind, tid, targets[target_id],
                    sites[site_id] if site_id >= 0 else None,
                ),
            )
            for index, tid, target_id, site_id, kind in zip(
                segments["indices"], segments["tids"],
                segments["target_ids"], segments["site_ids"],
                segments["kinds"],
            )
        ]
        assert decoded == expected


def _partition_snapshot(root, nshards):
    """Shard bytes, unpickled intern tables and meta minus generation."""
    wd = Workdir(root)
    shards = [
        Path(wd.shard_path(shard)).read_bytes() for shard in range(nshards)
    ]
    with open(wd.intern_path, "rb") as stream:
        intern = pickle.load(stream)
    meta = json.loads(Path(wd.meta_path).read_text(encoding="utf-8"))
    del meta["generation"]
    return shards, intern, meta


@pytest.mark.parametrize("path", TRACES, ids=lambda path: path.stem)
def test_text_jsonl_and_in_memory_routes_write_identical_partitions(
    tmp_path, path
):
    trace = _load(path)
    jsonl = tmp_path / "trace.jsonl"
    jsonl.write_text(dumps_jsonl(trace), encoding="utf-8")
    for nshards in (1, 2, 4):
        roots = [str(tmp_path / f"{route}-{nshards}") for route in "tjm"]
        engine.check_trace_file(str(path), nshards=nshards, workdir=roots[0])
        engine.check_trace_file(
            str(jsonl), fmt="jsonl", nshards=nshards, workdir=roots[1]
        )
        engine.check_events(trace.events, nshards=nshards, workdir=roots[2])
        text, from_jsonl, in_memory = (
            _partition_snapshot(root, nshards) for root in roots
        )
        assert text == from_jsonl == in_memory


def test_parse_error_mid_file_leaves_no_partition(tmp_path, capsys):
    path = tmp_path / "bad.trace"
    lines = (DATA / "figure4.trace").read_text().splitlines()
    lines.insert(len(lines) // 2, "frobnicate(1, y)")
    path.write_text("\n".join(lines) + "\n")
    root = tmp_path / "wd"
    code = main(
        ["check", str(path), "--shards", "2", "--resume", str(root)]
    )
    assert code == 2
    assert "frobnicate" in capsys.readouterr().err
    assert not (root / "meta.json").exists()
    assert os.listdir(root / "shards") == []


def test_shards_and_intern_table_are_fsynced_before_meta(
    tmp_path, monkeypatch
):
    synced = set()
    fsync = os.fsync

    def recording_fsync(fd):
        stat = os.fstat(fd)
        synced.add((stat.st_dev, stat.st_ino))
        fsync(fd)

    write_meta = Workdir.write_meta
    checked = []

    def checking_write_meta(self, meta):
        paths = [self.shard_path(s) for s in range(meta["nshards"])]
        for path in paths + [self.intern_path]:
            stat = os.stat(path)
            assert (stat.st_dev, stat.st_ino) in synced, path
        checked.append(len(paths))
        write_meta(self, meta)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(Workdir, "write_meta", checking_write_meta)
    engine.check_trace_file(
        str(DATA / "figure4.trace"), nshards=3, workdir=str(tmp_path)
    )
    assert checked == [3]


def test_engine_path_emits_one_serialize_span(tmp_path, capsys):
    path = str(DATA / "tsp_small.trace")
    events = len(_load(path))
    telemetry = tmp_path / "tel"
    main(
        ["check", path, "--shards", "2", "--all-tools",
         "--telemetry", str(telemetry)]
    )
    capsys.readouterr()
    spans = [
        record for record in obs.read_all_spans(str(telemetry))
        if record["type"] == "span"
    ]
    serialize_spans = [s for s in spans if s["name"] == "trace.serialize"]
    assert len(serialize_spans) == 1
    assert serialize_spans[0]["attrs"]["events"] == events
    parents = {s["id"]: s["name"] for s in spans}
    assert parents[serialize_spans[0]["parent"]] == "engine.partition"

    assert main(["profile", path]) == 0
    stages = capsys.readouterr().out.split("stage timings:")[1]
    assert stages.split("\n")[2].split()[0] == "trace.serialize"
