"""Seeded inputs and the reference results every run is checked against.

Traces come from the repo's own program models, run under the seeded
scheduler, and are written in the text format ``repro check`` reads.
References are computed in set-up from the in-memory trace, through a
different entry point than the one measured (no text parsing), so a
parser or engine fault shows up as a byte mismatch.
"""

from __future__ import annotations

import os
from typing import Dict, List

from repro import engine
from repro.core.detector import CostStats
from repro.bench import eclipse
from repro.detectors import default_tool_kwargs, make_detector
from repro.detectors.classifier import SharingClassifier
from repro.engine.checkpoint import Workdir
from repro.kernels import run_kernel
from repro.obs.rules import derived_rule_counts
from repro.report import detector_result, dumps_result, stats_from_json
from repro.runtime.scheduler import run_program
from repro.trace import serialize
from repro.trace.columnar import ColumnarTrace
from repro.trace.happens_before import racy_variables

#: FastTrack's rules that cost O(n) vector-clock work; every other rule is
#: an O(1) epoch path (PAPER.md Figure 2).
VC_RULES = ("FT READ SHARE", "FT WRITE SHARED")

#: FastTrack's access rules (Figure 2), reported even when they never fire.
FT_RULES = (
    "FT READ SAME EPOCH", "FT READ SHARED", "FT READ EXCLUSIVE",
    "FT READ SHARE", "FT WRITE SAME EPOCH", "FT WRITE EXCLUSIVE",
    "FT WRITE SHARED",
)


def eclipse_trace(scale: int, seed: int):
    """The ``eclipse-import`` trace at ``scale`` (204,101 events at 8500)."""
    return run_program(eclipse.import_program(scale), seed=seed)


def write_trace(trace, path: str) -> str:
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(serialize.dumps(trace))
    return path


def single_reference(trace, tool: str) -> bytes:
    """``repro check --json`` bytes for ``tool`` on the unsharded path."""
    detector = make_detector(tool, **default_tool_kwargs(tool))
    run_kernel(tool, ColumnarTrace.from_events(trace), detector=detector)
    classifier = SharingClassifier()
    classifier.process(trace)
    return dumps_result(detector_result(detector, classifier)).encode("utf-8")


def engine_reference(trace, tools: List[str], root: str) -> Dict[str, bytes]:
    """Engine result bytes per tool at one shard (as the daemon runs a
    job), partitioned once."""
    os.makedirs(root, exist_ok=True)
    references = {}
    for position, tool in enumerate(tools):
        report = engine.check_events(
            trace.events, tool, nshards=1, jobs=1, workdir=root,
            resume=position > 0, classify=True,
            tool_kwargs=default_tool_kwargs(tool), transport="mmap",
        )
        references[tool] = dumps_result(report.to_json()).encode("utf-8")
    Workdir(root).release_blocks()
    return references


def oracle_variables(trace) -> List[str]:
    """The happens-before oracle's racy variables (Theorem 1's side)."""
    return sorted(map(str, racy_variables(trace)))


def warned_variables(document: Dict) -> List[str]:
    return sorted({str(warning["var"]) for warning in document["warnings"]})


def paper_counters(documents: List[Dict]) -> Dict[str, float]:
    """Figure 2 rule counts, Table 2 VC counts and (for FastTrack) the
    share of accesses on O(1) paths, summed over one tool's results."""
    tool = documents[0]["tool"]
    stats = CostStats()
    for document in documents:
        stats.merge(stats_from_json(document["stats"]))
    rules = dict.fromkeys(FT_RULES if tool == "FastTrack" else (), 0)
    rules.update(derived_rule_counts(tool, stats))
    counters: Dict[str, float] = {
        "vc_ops": stats.vc_ops,
        "vc_allocs": stats.vc_allocs,
    }
    if tool == "FastTrack":
        accesses = stats.reads + stats.writes
        slow = sum(rules[rule] for rule in VC_RULES)
        counters["fast_path_frac"] = (accesses - slow) / accesses
    for rule, count in rules.items():
        counters["rules." + rule.replace(" ", "_")] = count
    return counters
