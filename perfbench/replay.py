"""Traced in-process replays of the paths a cold run takes.

Each replay makes the same public calls, in the same order, as the code
path it mirrors — ``repro check`` single-process, and the jobs of a
``repro serve`` daemon — and wraps every call in a span.  Nothing in
``src/`` is changed: the calls ``analyze_shard`` makes internally are
timed by temporarily wrapping the module attributes it looks them up
through — ``run_kernel``, and ``load_intern``/``attach_view`` (what
``load_shard_columns`` is made of) for the transport, so the attach a
worker really makes is timed rather than a second one.  Every replay
returns the result bytes so the caller can check them against the cold
run's.
"""

from __future__ import annotations

import concurrent.futures
import os
import shutil
import tempfile
from contextlib import ExitStack
from typing import Dict, List, Tuple

from repro.detectors import default_tool_kwargs, make_detector
from repro.detectors.classifier import SharingClassifier
from repro.engine import merge_shard_results, partition_events
from repro.engine import transport as engine_transport
from repro.engine import worker as engine_worker
from repro.engine.checkpoint import Workdir
from repro.kernels import run_kernel
from repro.report import detector_result, dumps_result
from repro.trace import serialize
from repro.trace.columnar import ColumnarTrace
from repro.trace.feasibility import check_feasible

from spans import Tracer


def replay_single(tracer: Tracer, path: str, tool: str) -> bytes:
    """``repro check PATH --json --tool TOOL`` (the default path)."""
    with tracer.span("trace.serialize") as span:
        with open(path, "r", encoding="utf-8") as stream:
            trace = serialize.loads(stream.read())
        span["count"] = len(trace)
    with tracer.span("trace.feasibility"):
        check_feasible(trace)
    with tracer.span("trace.columnar"):
        columns = ColumnarTrace.from_events(trace)
    with tracer.span("detectors.classifier"):
        classifier = SharingClassifier()
        classifier.process(trace)
    detector = make_detector(tool, **default_tool_kwargs(tool))
    with tracer.span("kernels") as span:
        run_kernel(tool, columns, detector=detector)
        span["count"] = len(columns)
    with tracer.span("report"):
        document = detector_result(detector, classifier)
        return dumps_result(document).encode("utf-8")


def _partition(tracer: Tracer, path: str, workdir: Workdir) -> Dict:
    """``partition_events`` fed by ``serialize.iter_load``, one shard on
    the mmap transport as the daemon makes it; parsing is timed per
    ``next()`` so the partition span's self time excludes it."""
    with tracer.span("engine.partition"):
        with open(path, "r", encoding="utf-8") as stream:
            events = tracer.timed_iter(
                "trace.serialize", serialize.iter_load(stream)
            )
            return partition_events(events, workdir, 1, transport="mmap")


def _service_jobs(
    tracer: Tracer, path: str, tools: List[str], scratch: str
) -> Tuple[Dict[str, bytes], Dict]:
    """One trace's job sequence, as ``RaceService`` runs it.

    The first tool's job creates the resident partition and analyzes;
    later tools' jobs reuse the partition.  Returns the result bytes per
    tool and the partition metadata.
    """
    root = tempfile.mkdtemp(prefix="partition-", dir=scratch)
    workdir = Workdir(root)
    results = {}
    try:
        meta = _partition(tracer, path, workdir)
        for tool in tools:
            with tracer.span("engine.worker") as span:
                payload = engine_worker.analyze_shard(
                    workdir, 0, tool, default_tool_kwargs(tool),
                    classify=True, kernel="auto",
                )
                span["count"] = payload["events"]
            with tracer.span("engine.merge"):
                report = merge_shard_results([workdir.read_result(tool, 0)])
            with tracer.span("report"):
                results[tool] = dumps_result(report.to_json()).encode("utf-8")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return results, meta


def replay_service(
    tracer: Tracer, paths: List[str], tools: List[str], scratch: str,
    workers: int,
) -> List[Tuple[Dict[str, bytes], Dict]]:
    """Every trace's job sequence, ``workers`` sequences at a time in
    threads of this process, as the daemon's job runners run them (its
    analysis is in-process too, so the jobs contend for one interpreter
    lock as they do there).  Returns each trace's ``_service_jobs``."""
    with ExitStack() as stack:
        # Patched once for all threads: the attribute is process-wide.
        for attribute in ("load_intern", "attach_view"):
            stack.enter_context(tracer.patched(
                engine_transport, attribute, "engine.transport"
            ))
        stack.enter_context(tracer.patched(
            engine_worker, "run_kernel", "kernels",
            count=lambda args: len(args[1]),
        ))
        with concurrent.futures.ThreadPoolExecutor(workers) as pool:
            return list(pool.map(
                lambda path: _service_jobs(tracer, path, tools, scratch),
                paths,
            ))


def scratch_dir(parent: str, name: str) -> str:
    path = os.path.join(parent, name)
    os.makedirs(path, exist_ok=True)
    return path
