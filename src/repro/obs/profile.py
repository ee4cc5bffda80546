"""``repro profile`` — the human-readable hot-path report.

Turns one telemetry-enabled check (a :class:`MergedReport` per tool plus
the run's ``spans.jsonl`` records) into the report a performance triage
wants on one screen:

* the operation mix (the paper's 82.3% reads / 14.5% writes frame);
* per-detector rule frequencies — counts and fractions, same-epoch fast
  paths derived by :mod:`repro.obs.rules`, i.e. Figure 2 for *this*
  trace;
* stage timings from the spans (serialize → partition → shard.analyze →
  merge), with events/sec wherever a span carries an event count;
* the **critical path** — the chain of spans that bounds wall-clock,
  stitched across every process that wrote to the telemetry dir;
* shard balance (events, VC ops, wall time per shard) — the engine's
  load-skew diagnostic.

The stitching half also powers ``repro profile --from-telemetry DIR``:
:func:`stitch_traces` groups the records of a whole telemetry dir (the
main ``spans.jsonl`` plus every worker's ``spans-<pid>.jsonl``) into one
tree per ``trace_id``, and :func:`render_trace_report` renders those
trees without needing the original trace or a re-run.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.rules import derived_rule_counts

#: Stage span names rendered in pipeline order; anything else follows.
_STAGE_ORDER = (
    "trace.serialize", "engine.partition", "engine.analyze",
    "shard.analyze", "shard.attach", "detectors.classifier", "kernels",
    "engine.merge", "check",
)


def _fraction(count: int, denominator: int) -> str:
    if denominator <= 0:
        return "    —"
    return f"{count / denominator:6.1%}"


def _rule_denominator(rule: str, stats) -> int:
    """The class a rule's frequency is quoted against (Figure 2 quotes
    read rules as fractions of reads, write rules of writes)."""
    if "READ" in rule:
        return stats.reads
    if "WRITE" in rule:
        return stats.writes
    return stats.events


def _stage_rows(spans: List[Dict]) -> List[Dict]:
    """Aggregate span records by name: count, wall/cpu totals, events."""
    stages: Dict[str, Dict] = {}
    for record in spans:
        if record.get("type") != "span":
            continue
        name = record["name"]
        row = stages.setdefault(
            name, {"name": name, "count": 0, "wall_s": 0.0, "cpu_s": 0.0,
                   "events": 0, "errors": 0}
        )
        row["count"] += 1
        row["wall_s"] += record["wall_s"]
        row["cpu_s"] += record["cpu_s"]
        row["events"] += int(record.get("attrs", {}).get("events") or 0)
        if record.get("status") == "error":
            row["errors"] += 1
    order = {name: index for index, name in enumerate(_STAGE_ORDER)}
    return sorted(
        stages.values(),
        key=lambda row: (order.get(row["name"], len(order)), row["name"]),
    )


def stitch_traces(records: List[Dict]) -> Dict[str, Dict]:
    """Group span records into one tree per ``trace_id``.

    Returns ``{trace_id: entry}`` where each entry carries the trace's
    ``spans``, its ``roots`` (spans whose parent is absent — including
    parents that live in a process whose file was lost), a ``children``
    index keyed by span id, and the set of ``pids`` that contributed.
    Records predating trace propagation group under ``"untraced"``.
    """
    traces: Dict[str, Dict] = {}
    for record in records:
        if record.get("type") != "span":
            continue
        trace_id = record.get("trace_id") or "untraced"
        entry = traces.setdefault(
            trace_id, {"trace_id": trace_id, "spans": [], "pids": set()}
        )
        entry["spans"].append(record)
        if record.get("pid") is not None:
            entry["pids"].add(record["pid"])
    for entry in traces.values():
        ids = {span["id"] for span in entry["spans"]}
        children: Dict = {}
        roots: List[Dict] = []
        for span in entry["spans"]:
            parent = span.get("parent")
            if parent is not None and parent in ids:
                children.setdefault(parent, []).append(span)
            else:
                roots.append(span)
        for kids in children.values():
            kids.sort(key=lambda s: (s["start_unix"], str(s["id"])))
        roots.sort(key=lambda s: (s["start_unix"], str(s["id"])))
        entry["children"] = children
        entry["roots"] = roots
    return traces


def critical_path(spans: List[Dict]) -> List[Dict]:
    """The chain of spans bounding wall-clock time, root to leaf.

    Starts at the longest root (the stage that dominates the run) and at
    each level descends into the child that *finished last* — the one the
    parent was still waiting on when it closed.  Deterministic under
    ties (span id breaks them).  Zero-duration spans (markers like the
    degraded breadcrumbs) never bound anything and are ignored.
    """
    spans = [
        span for span in spans
        if span.get("type") == "span" and span["wall_s"] > 0
    ]
    if not spans:
        return []
    ids = {span["id"] for span in spans}
    children: Dict = {}
    roots: List[Dict] = []
    for span in spans:
        parent = span.get("parent")
        if parent is not None and parent in ids:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
    path = [max(roots, key=lambda s: (s["wall_s"], str(s["id"])))]
    while True:
        kids = children.get(path[-1]["id"])
        if not kids:
            return path
        path.append(
            max(kids, key=lambda s: (s["start_unix"] + s["wall_s"],
                                     str(s["id"])))
        )


def _span_label(span: Dict) -> str:
    attrs = span.get("attrs") or {}
    if "shard" in attrs:
        return f"{span['name']}[shard={attrs['shard']}]"
    return span["name"]


def render_critical_path(records: List[Dict]) -> str:
    """One ``critical path: a 0.3s → b 0.2s`` line for the dominant
    trace of ``records`` (empty string when there are no spans)."""
    traces = stitch_traces(records)
    if not traces:
        return ""
    entry = max(
        traces.values(), key=lambda e: (len(e["spans"]), e["trace_id"])
    )
    path = critical_path(entry["spans"])
    if not path:
        return ""
    steps = " → ".join(
        f"{_span_label(span)} {span['wall_s']:.3f}s" for span in path
    )
    return f"critical path: {steps}"


def _render_tree(entry: Dict, lines: List[str]) -> None:
    on_path = {id(span) for span in critical_path(entry["spans"])}

    def walk(span: Dict, depth: int) -> None:
        indent = "  " * depth
        marker = " *" if id(span) in on_path else ""
        status = "" if span.get("status") == "ok" else "  [error]"
        lines.append(
            f"  {indent}{_span_label(span):<{max(2, 34 - 2 * depth)}s}"
            f"{span['wall_s'] * 1e3:>9.1f}ms{status}{marker}"
        )
        for child in entry["children"].get(span["id"], ()):
            walk(child, depth + 1)

    for root in entry["roots"]:
        walk(root, 0)


def render_trace_report(
    records: List[Dict], directory: Optional[str] = None
) -> str:
    """Render the stitched trace tree(s) of a telemetry dir — the
    ``repro profile --from-telemetry DIR`` view, no re-run needed.
    Spans on the critical path are starred."""
    lines: List[str] = []
    header = "repro profile — stitched telemetry"
    if directory:
        header += f" ({directory})"
    lines.append(header)
    traces = stitch_traces(records)
    if not traces:
        lines.append("  (no span records)")
        return "\n".join(lines) + "\n"
    ordered = sorted(
        traces.values(), key=lambda e: (-len(e["spans"]), e["trace_id"])
    )
    for entry in ordered:
        lines.append("")
        lines.append(
            f"trace {entry['trace_id']} — {len(entry['spans'])} span(s), "
            f"{max(1, len(entry['pids']))} process(es)"
        )
        _render_tree(entry, lines)
        path_line = render_critical_path(entry["spans"])
        if path_line:
            lines.append(f"  {path_line}")
    return "\n".join(lines) + "\n"


def render_profile(
    trace_path: str,
    reports: Dict[str, "MergedReport"],  # noqa: F821 - avoid engine import
    spans: Optional[List[Dict]] = None,
) -> str:
    """Render the hot-path report for one profiled check."""
    lines: List[str] = []
    first = next(iter(reports.values()))
    stats = first.stats
    lines.append(
        f"repro profile — {trace_path} "
        f"({stats.events} events, {first.nshards} shard(s))"
    )
    lines.append("")
    lines.append("operation mix (Figure 2 frame: 82.3% / 14.5% / 3.3%):")
    denominator = max(stats.events, 1)
    other = stats.syncs + stats.boundaries
    for label, count in (
        ("reads", stats.reads), ("writes", stats.writes), ("other", other)
    ):
        lines.append(
            f"  {label:<8s}{count:>12,d}  {count / denominator:6.1%}"
        )

    for tool, report in reports.items():
        lines.append("")
        verdict = (
            f"{report.warning_count} warning(s)"
            if report.warning_count
            else "race-free"
        )
        lines.append(f"{tool} — {verdict}; rule frequencies:")
        counts = derived_rule_counts(tool, report.stats)
        if not counts:
            lines.append("  (this tool fires no counted rules)")
            continue
        width = max(len(rule) for rule in counts)
        for rule, count in counts.items():
            denom = _rule_denominator(rule, report.stats)
            share = _fraction(count, denom)
            of = (
                "of reads" if "READ" in rule
                else "of writes" if "WRITE" in rule
                else "of events"
            )
            lines.append(
                f"  {rule:<{width}s}{count:>12,d}  {share} {of}"
            )

    rows = _stage_rows(spans or [])
    if rows:
        lines.append("")
        lines.append("stage timings:")
        lines.append(
            f"  {'stage':<18s}{'n':>4s}{'wall':>10s}{'cpu':>10s}"
            f"{'events/s':>12s}"
        )
        for row in rows:
            rate = (
                f"{row['events'] / row['wall_s']:>12,.0f}"
                if row["events"] and row["wall_s"] > 0
                else f"{'—':>12s}"
            )
            suffix = f"  ({row['errors']} error(s))" if row["errors"] else ""
            lines.append(
                f"  {row['name']:<18s}{row['count']:>4d}"
                f"{row['wall_s'] * 1e3:>8.1f}ms{row['cpu_s'] * 1e3:>8.1f}ms"
                f"{rate}{suffix}"
            )
        path_line = render_critical_path(spans or [])
        if path_line:
            lines.append("")
            lines.append(path_line)

    shard_stats = first.shard_stats
    if len(shard_stats) > 1:
        lines.append("")
        total = sum(first.shard_events) or 1
        lines.append(f"shard balance ({next(iter(reports))}):")
        lines.append(
            f"  {'shard':<7s}{'events':>10s}{'share':>8s}{'vc ops':>10s}"
            f"{'slow rules':>12s}"
        )
        for shard, stats_ in enumerate(shard_stats):
            events = (
                first.shard_events[shard]
                if shard < len(first.shard_events) else stats_.events
            )
            slow = sum(stats_.rules.values())
            lines.append(
                f"  {shard:<7d}{events:>10,d}{events / total:>8.1%}"
                f"{stats_.vc_ops:>10,d}{slow:>12,d}"
            )
    return "\n".join(lines) + "\n"
