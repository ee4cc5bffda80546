"""Deterministic merge of per-shard results into one report.

Warnings
--------
Each shard's warning list is already ordered by original trace position
(workers replay their shard in order and stamp the original index).  The
merger k-way-merges the lists by ``event_index`` and then *replays the
single-threaded reporting discipline* over the merged stream: at most one
warning per shadow key and at most one per source site, earlier position
wins.  Per-key dedup is shard-local (a variable lives in exactly one
shard), but per-*site* dedup crosses shards — two different variables in
different shards can race at the same source line, and a single-threaded
run would report only the first.  Replaying the discipline here restores
exactly that output; docs/ENGINE.md gives the argument that the result is
warning-for-warning identical to a single-threaded run, including the
suppressed-warning count.

Stats
-----
Per-shard :class:`CostStats` are summed (the merged counters describe work
actually performed, which for the broadcast sync events is once per
shard), then the event-mix counters (``events``/``syncs``/``boundaries``)
are corrected back to trace-accurate totals using shard 0's sync counts —
every shard saw the identical sync sub-stream, so shard 0's tally *is* the
trace's.  ``vc_allocs``/``vc_ops`` keep the summed semantics and the raw
per-shard numbers stay available in :attr:`MergedReport.shard_stats`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.core.detector import CostStats, RaceWarning, fine_grain
from repro.report import stats_from_json, warning_from_json


@dataclass
class MergedReport:
    """The engine's merged output for one (trace, tool) run."""

    tool: str
    nshards: int
    events: int
    warnings: List[RaceWarning]
    suppressed_warnings: int
    stats: CostStats
    shard_stats: List[CostStats]
    classifier_access_counts: Optional[Dict[str, int]] = None
    classifier_variable_counts: Optional[Dict[str, int]] = None
    shard_events: List[int] = field(default_factory=list)
    #: Partial-failure accounting: ``None`` on a clean run; on a run with
    #: quarantined shards, ``{"quarantined_shards": [...], "shards_total":
    #: N, "failures": [{"shard", "attempts", "error"}, ...]}``.  The
    #: surviving shards' results are exact; the quarantined shards'
    #: variables are simply *not analyzed* — never guessed at.
    degraded: Optional[Dict] = None

    @property
    def is_degraded(self) -> bool:
        return self.degraded is not None

    @property
    def warning_count(self) -> int:
        return len(self.warnings)

    def classifier_fractions(self) -> Optional[Dict[str, float]]:
        """Access-weighted sharing-class fractions, as the single-threaded
        :meth:`SharingClassifier.fractions` reports them."""
        counts = self.classifier_access_counts
        if counts is None:
            return None
        denominator = sum(counts.values()) or 1
        from repro.detectors.classifier import CLASSES

        return {cls: counts.get(cls, 0) / denominator for cls in CLASSES}

    def to_json(self) -> Dict:
        """The canonical ``repro.result/1`` document for this run — the
        same schema ``repro check --json`` and the service's ``/result``
        endpoint emit (see :mod:`repro.report`)."""
        from repro.report import result_to_json

        classifier = None
        if self.classifier_access_counts is not None:
            classifier = {
                "access_counts": dict(self.classifier_access_counts),
                "variable_counts": dict(self.classifier_variable_counts or {}),
            }
        return result_to_json(
            self.tool,
            self.stats,
            self.warnings,
            self.suppressed_warnings,
            classifier=classifier,
            degraded=self.degraded,
        )


def merge_warnings(
    shard_warning_lists: List[List[RaceWarning]],
    shadow_key: Callable[[Hashable], Hashable] = fine_grain,
) -> Tuple[List[RaceWarning], int]:
    """K-way merge by trace position, then replay the reporting discipline.

    Returns ``(warnings, extra_suppressed)`` where ``extra_suppressed``
    counts warnings a shard reported locally but a single-threaded run
    would have deduplicated (cross-shard same-site collisions).
    """
    warned_keys: set = set()
    warned_sites: set = set()
    merged: List[RaceWarning] = []
    extra_suppressed = 0
    stream = heapq.merge(
        *shard_warning_lists, key=lambda warning: warning.event_index
    )
    for warning in stream:
        key = shadow_key(warning.var)
        if key in warned_keys or (
            warning.site is not None and warning.site in warned_sites
        ):
            warned_keys.add(key)
            extra_suppressed += 1
            continue
        warned_keys.add(key)
        if warning.site is not None:
            warned_sites.add(warning.site)
        merged.append(warning)
    return merged, extra_suppressed


def merge_stats(shard_stats: List[CostStats]) -> CostStats:
    """Sum per-shard work counters, de-duplicating the broadcast sync
    events in the event-mix columns (see the module docstring)."""
    merged = CostStats()
    for stats in shard_stats:
        merged.merge(stats)
    if shard_stats:
        duplicated = len(shard_stats) - 1
        merged.syncs -= duplicated * shard_stats[0].syncs
        merged.boundaries -= duplicated * shard_stats[0].boundaries
        merged.events = merged.reads + merged.writes + merged.syncs + merged.boundaries
    return merged


def merge_shard_results(
    payloads: List[Dict],
    shadow_key: Callable[[Hashable], Hashable] = fine_grain,
) -> MergedReport:
    """Combine checkpointed shard payloads into one :class:`MergedReport`."""
    if not payloads:
        raise ValueError("no shard payloads to merge")
    tools = {payload["tool"] for payload in payloads}
    if len(tools) != 1:
        raise ValueError(f"payloads mix tools: {sorted(tools)}")
    ordered = sorted(payloads, key=lambda payload: payload["shard"])
    shard_warning_lists = [
        [warning_from_json(record) for record in payload["warnings"]]
        for payload in ordered
    ]
    warnings, extra_suppressed = merge_warnings(shard_warning_lists, shadow_key)
    suppressed = (
        sum(payload["suppressed"] for payload in ordered) + extra_suppressed
    )
    shard_stats = [stats_from_json(payload["stats"]) for payload in ordered]
    stats = merge_stats(shard_stats)

    access_counts: Optional[Dict[str, int]] = None
    variable_counts: Optional[Dict[str, int]] = None
    if all(payload.get("classifier") for payload in ordered):
        access_counts = {}
        variable_counts = {}
        for payload in ordered:
            for cls, count in payload["classifier"]["access_counts"].items():
                access_counts[cls] = access_counts.get(cls, 0) + count
            for cls, count in payload["classifier"]["variable_counts"].items():
                variable_counts[cls] = variable_counts.get(cls, 0) + count

    return MergedReport(
        tool=ordered[0]["tool"],
        nshards=len(ordered),
        events=stats.events,
        warnings=warnings,
        suppressed_warnings=suppressed,
        stats=stats,
        shard_stats=shard_stats,
        classifier_access_counts=access_counts,
        classifier_variable_counts=variable_counts,
        shard_events=[payload["events"] for payload in ordered],
    )


def render_markdown(report: MergedReport) -> str:
    """A compact markdown rendering of a merged engine report."""
    lines = [f"# Engine report — {report.tool} × {report.nshards} shard(s)", ""]
    verdict = (
        f"**{report.warning_count} warning(s)**"
        if report.warning_count
        else "**race-free** (no warnings)"
    )
    lines.append(
        f"Verdict: {verdict} over {report.events} events "
        f"({report.stats.reads} reads, {report.stats.writes} writes, "
        f"{report.stats.syncs} sync ops)."
    )
    lines.append("")
    lines.append("## Warnings")
    lines.append("")
    if not report.warnings:
        lines.append("None.")
    else:
        lines.append("| # | kind | variable | thread | site | conflicts with |")
        lines.append("|---|---|---|---|---|---|")
        for index, warning in enumerate(report.warnings):
            lines.append(
                f"| {index + 1} | {warning.kind} | `{warning.var}` "
                f"| {warning.tid} | {warning.site or '—'} "
                f"| {warning.prior} |"
            )
        if report.suppressed_warnings:
            lines.append("")
            lines.append(
                f"({report.suppressed_warnings} further occurrence(s) "
                "suppressed — one report per variable and per site)"
            )
    fractions = report.classifier_fractions()
    if fractions is not None:
        lines.append("")
        lines.append("## Sharing classification")
        lines.append("")
        for cls, fraction in fractions.items():
            lines.append(f"* {cls}: {fraction:.1%} of accesses")
    lines.append("")
    lines.append("## Shard balance")
    lines.append("")
    lines.append("| shard | events | vc ops | fast ops |")
    lines.append("|---|---|---|---|")
    for shard, stats in enumerate(report.shard_stats):
        lines.append(
            f"| {shard} | {stats.events} | {stats.vc_ops} | {stats.fast_ops} |"
        )
    return "\n".join(lines) + "\n"
