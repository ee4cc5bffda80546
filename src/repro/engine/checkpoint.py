"""On-disk layout and crash-safe persistence for an engine run.

An engine working directory survives worker crashes and process kills, so a
``repro check --jobs N --resume DIR`` re-run only analyzes the shards that
never finished::

    DIR/
      meta.json                     partition metadata (written last, so its
                                    presence certifies a complete partition);
                                    v3 adds generation/shard_bytes for the
                                    zero-copy transport
      intern.bin                    the shared target/site intern tables all
                                    shards' columns index into
      shards/shard_0007.bin         one flat v3 columnar buffer per shard,
                                    memory-mapped by the workers
      results/FastTrack/shard_0007.json
                                    one checkpoint per (tool, shard); the
                                    file's existence is the progress record
      classifier/shard_0007.json    the shard's sharing-classifier counts,
                                    shared by every tool; tagged with the
                                    partition's generation

Every write here is atomic and durable (temp file + ``fsync`` +
``os.replace``): a killed worker leaves either a complete checkpoint or
none, never a truncated one.  Against disks and file systems that break
that promise anyway, :meth:`Workdir.completed_shards` *validates* each
checkpoint before trusting it — an unreadable or truncated result file
is quarantined (renamed ``*.json.corrupt``) and its shard recomputed,
recorded as ``repro_degraded_total{reason="checkpoint_quarantined"}``.
Results are grouped per tool so one partition can serve several detectors
(``--all-tools``) and each resumes independently.  The classifier counts
depend only on the shard, so the first classifying run writes them once
and every later tool, job and resume reads them; a checkpoint that does
not parse, names another shard or carries another ``generation`` than
``meta.json`` is recomputed and overwritten, never trusted.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import tempfile
from typing import Dict, Hashable, List, Optional, Tuple

from repro import faults
from repro.engine.transport import shard_file_size

#: Bump when the shard file or checkpoint format changes incompatibly.
#: Version 3: shards are flat fixed-width columnar buffers (five segments,
#: 33 bytes/event — see :mod:`repro.engine.transport`) in mmap'd shard
#: files; v2's pickle-framed batch files are gone.  A v1/v2 directory
#: fails ``read_meta``; resuming one is rejected with an explicit version
#: error by ``ensure_resumable_layout`` rather than silently
#: re-partitioned over stale checkpoints.
FORMAT_VERSION = 3


class CheckpointError(RuntimeError):
    """A resume directory does not match the requested run."""


_RESULT_FILE = re.compile(r"^shard_\d+\.json$")
_CORRUPT_FILE = re.compile(r"^shard_\d+\.json\.corrupt$")


def _tool_dirname(tool: str) -> str:
    """A filesystem-safe directory name for a tool (``DJIT+`` → ``DJIT_``)."""
    return re.sub(r"[^A-Za-z0-9.-]", "_", tool)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as stream:
            stream.write(text)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_checkpoint(path: str, text: str, point: str, **context) -> None:
    """Atomically write a checkpoint.  A ``torn`` fault at ``point``
    writes only a prefix — a torn write that "succeeded" — which the
    validating reader must refuse."""
    if faults.active():
        spec = faults.fire(point, **context)
        if spec is not None and spec.action == "torn":
            text = text[: max(1, len(text) // 2)]
    _atomic_write(path, text)


class Workdir:
    """Handle on one engine working directory."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.shards_dir = os.path.join(root, "shards")
        self.results_dir = os.path.join(root, "results")
        self.meta_path = os.path.join(root, "meta.json")
        self.intern_path = os.path.join(root, "intern.bin")
        os.makedirs(self.shards_dir, exist_ok=True)
        os.makedirs(self.results_dir, exist_ok=True)

    # -- partition metadata --------------------------------------------------

    def write_meta(self, meta: Dict) -> None:
        meta = dict(meta)
        meta["format_version"] = FORMAT_VERSION
        _atomic_write(self.meta_path, json.dumps(meta, indent=2) + "\n")

    def read_meta(self) -> Optional[Dict]:
        """The partition metadata, or ``None`` if no complete partition
        exists here (meta.json is written only after all shards are)."""
        meta = self.read_raw_meta()
        if meta is None or meta.get("format_version") != FORMAT_VERSION:
            return None
        return meta

    def read_raw_meta(self) -> Optional[Dict]:
        """Whatever parses at ``meta.json``, *any* format version.

        The version-checked :meth:`read_meta` is what analysis trusts;
        this raw reader names the offending version in resume-rejection
        errors.
        """
        try:
            with open(self.meta_path, "r", encoding="utf-8") as stream:
                meta = json.load(stream)
        except (OSError, json.JSONDecodeError):
            return None
        return meta if isinstance(meta, dict) else None

    def validate_meta(self, meta: Dict, nshards: Optional[int]) -> None:
        """Reject a resume against a partition with a different geometry,
        or one whose shard files are missing or not the size the metadata
        says."""
        if nshards is not None and meta.get("nshards") != nshards:
            raise CheckpointError(
                f"resume directory was partitioned into {meta.get('nshards')} "
                f"shards but {nshards} were requested; drop --shards or use "
                "a fresh directory"
            )
        shard_events = meta.get("shard_events") or []
        for shard in range(meta.get("nshards", 0)):
            path = self.shard_path(shard)
            try:
                actual = os.path.getsize(path)
            except OSError:
                raise CheckpointError(
                    f"resume directory is missing shard file {path!r}"
                )
            expected = shard_file_size(shard_events[shard])
            if actual != expected:
                raise CheckpointError(
                    f"resume directory's shard file {path!r} is {actual} "
                    f"bytes, expected {expected}; re-run without --resume "
                    "in a fresh directory to re-partition"
                )
        if not os.path.exists(self.intern_path):
            raise CheckpointError(
                f"resume directory is missing the intern table "
                f"{self.intern_path!r}"
            )

    # -- shard event files ---------------------------------------------------

    def shard_path(self, shard: int) -> str:
        return os.path.join(self.shards_dir, f"shard_{shard:04d}.bin")

    # -- shared intern tables ------------------------------------------------

    def write_intern(
        self, targets: List[Hashable], sites: List[Hashable]
    ) -> None:
        """Persist the intern tables every shard's columns index into."""
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as stream:
                pickle.dump(
                    (targets, sites), stream,
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(tmp, self.intern_path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def read_intern(self) -> Tuple[List[Hashable], List[Hashable]]:
        with open(self.intern_path, "rb") as stream:
            return pickle.load(stream)

    # -- per-(tool, shard) result checkpoints --------------------------------

    def result_path(self, tool: str, shard: int) -> str:
        return os.path.join(
            self.results_dir, _tool_dirname(tool), f"shard_{shard:04d}.json"
        )

    def valid_result(
        self, tool: str, shard: int, classify: bool = False
    ) -> bool:
        """True iff ``(tool, shard)`` has a trustworthy checkpoint.

        A checkpoint is trusted only if it parses as JSON and names the
        shard it claims to checkpoint — a zero-byte or truncated file
        left by a torn write is *quarantined* (renamed ``*.json.corrupt``,
        kept for post-mortems) so the shard is recomputed instead of
        crashing the merge or, worse, being silently trusted.  A
        ``classify`` run also needs the checkpoint's classifier counts:
        one written without them is left in place and recomputed.
        """
        path = self.result_path(tool, shard)
        try:
            with open(path, "r", encoding="utf-8") as stream:
                payload = json.load(stream)
        except FileNotFoundError:
            return False
        except (OSError, ValueError, UnicodeDecodeError):
            payload = None
        if isinstance(payload, dict) and payload.get("shard") == shard:
            return not classify or payload.get("classifier") is not None
        try:
            os.replace(path, path + ".corrupt")
        except OSError:  # pragma: no cover - raced with a rewrite
            return False
        from repro import obs

        obs.record_degraded(
            "checkpoint_quarantined", tool=tool, shard=shard, path=path
        )
        return False

    def completed_shards(
        self, tool: str, nshards: int, classify: bool = False
    ) -> List[int]:
        return [
            shard
            for shard in range(nshards)
            if self.valid_result(tool, shard, classify)
        ]

    def result_files(self) -> List[str]:
        """Every checkpointed result file under ``results/``, any tool."""
        found = []
        try:
            tool_dirs = sorted(os.listdir(self.results_dir))
        except OSError:
            return found
        for tool_dir in tool_dirs:
            directory = os.path.join(self.results_dir, tool_dir)
            if not os.path.isdir(directory):
                continue
            for name in sorted(os.listdir(directory)):
                if _RESULT_FILE.match(name):
                    found.append(os.path.join(directory, name))
        return found

    def ensure_resumable_layout(self, meta: Optional[Dict]) -> None:
        """Fail fast when a resume would silently mix shard layouts.

        A result checkpoint is only meaningful relative to the partition it
        was computed against.  When ``meta.json`` is missing, corrupt, or
        from an incompatible format version, a resume would re-partition —
        possibly into a different shard count — while ``completed_shards``
        happily trusts the stale checkpoints, merging results from two
        different layouts.  Refuse instead: the caller must use a fresh
        directory (or delete the stale results) to proceed.
        """
        if meta is not None:
            return
        raw = self.read_raw_meta()
        if raw is not None and raw.get("format_version") != FORMAT_VERSION:
            raise CheckpointError(
                f"resume directory {self.root!r} was written by shard "
                f"format v{raw.get('format_version')}, but this build "
                f"reads v{FORMAT_VERSION} (zero-copy columnar buffers); "
                "formats are not cross-compatible — re-run without "
                "--resume in a fresh directory to re-partition"
            )
        stale = self.result_files()
        if stale:
            raise CheckpointError(
                f"resume directory {self.root!r} has {len(stale)} result "
                "checkpoint(s) but no valid partition metadata (meta.json "
                "missing, corrupt, or from an incompatible format); "
                "resuming would mix shard layouts — use a fresh directory "
                f"or delete {self.results_dir!r} first "
                f"(first stale file: {stale[0]!r})"
            )

    def release_blocks(self) -> None:
        """Does nothing: shard buffers are files under this directory, so
        there is nothing outside it to release.  Kept because the cold-run
        benchmark (``perfbench/``) still calls it."""

    def write_result(self, tool: str, shard: int, payload: Dict) -> str:
        path = self.result_path(tool, shard)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        _write_checkpoint(
            path, json.dumps(payload) + "\n", "checkpoint.write",
            tool=tool, shard=shard,
        )
        return path

    def read_result(self, tool: str, shard: int) -> Dict:
        with open(self.result_path(tool, shard), "r", encoding="utf-8") as f:
            return json.load(f)

    # -- per-shard classifier checkpoints -------------------------------------

    def classifier_path(self, shard: int) -> str:
        return os.path.join(self.root, "classifier", f"shard_{shard:04d}.json")

    def read_classifier(
        self, shard: int, generation: Optional[str]
    ) -> Optional[Dict]:
        """The shard's stored classifier counts, or ``None`` unless the
        checkpoint parses, names ``shard`` and carries the partition's
        ``generation`` (a torn, foreign or stale file is recomputed)."""
        try:
            with open(
                self.classifier_path(shard), "r", encoding="utf-8"
            ) as stream:
                checkpoint = json.load(stream)
        except (OSError, ValueError, UnicodeDecodeError):
            return None
        if (
            isinstance(checkpoint, dict)
            and checkpoint.get("shard") == shard
            and generation is not None
            and checkpoint.get("generation") == generation
            and isinstance(checkpoint.get("counts"), dict)
        ):
            return checkpoint["counts"]
        return None

    def write_classifier(
        self, shard: int, generation: Optional[str], counts: Dict
    ) -> None:
        path = self.classifier_path(shard)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        checkpoint = {
            "shard": shard, "generation": generation, "counts": counts,
        }
        _write_checkpoint(
            path, json.dumps(checkpoint) + "\n", "classifier.write",
            shard=shard,
        )

    def clear_results(self, tool: str, nshards: Optional[int] = None) -> None:
        """Drop *all* of a tool's checkpoints (a non-resume run starts
        clean).

        Removal is by directory listing rather than ``range(nshards)`` so a
        re-partition into fewer shards cannot leave high-index checkpoints
        from the previous layout behind (a later resume would mistake them
        for finished work).  ``nshards`` is accepted for symmetry with
        :meth:`completed_shards` but no longer bounds the sweep.
        """
        directory = os.path.join(self.results_dir, _tool_dirname(tool))
        try:
            names = os.listdir(directory)
        except OSError:
            return
        for name in names:
            if _RESULT_FILE.match(name) or _CORRUPT_FILE.match(name):
                os.unlink(os.path.join(directory, name))
