"""Race reports: human-readable renderings and the canonical JSON schema.

Bundles everything a developer triaging a race wants in one artifact:

* the detector's warnings, with both access sites when available;
* the happens-before oracle's confirmation (optional — O(n²) on the trace);
* the sharing classification of every racy variable's neighborhood;
* trace statistics (threads, operation mix, synchronization inventory).

Used by ``repro check --report out.md`` and importable directly::

    from repro.report import build_report
    text = build_report(trace, detector, fmt="markdown")

This module also owns the **machine-readable result schema**
(``repro.result/1``) shared by every surface that emits analysis results:
``repro check --json``, the sharded engine's
:meth:`repro.engine.merge.MergedReport.to_json`, and the ``repro serve``
daemon's ``GET /v1/jobs/{id}/result`` endpoint all produce the same
document, so results can be diffed bit-for-bit across execution paths
(serialize with :func:`dumps_result`, which sorts keys)::

    {
      "schema": "repro.result/1",
      "tool": "FastTrack",
      "events": 20,
      "warning_count": 1,
      "warnings": [{"var": ..., "kind": ..., "tid": ..., "prior": ...,
                    "event_index": ..., "site": ...}],
      "suppressed_warnings": 0,
      "stats": {"events": ..., "reads": ..., ..., "rules": {...}},
      "classifier": {"access_counts": {...}, "variable_counts": {...}}
    }

The warning/stats JSON codecs live here (the engine's shard checkpoints
reuse them), so the checkpoint wire format and the public schema cannot
drift apart.
"""

from __future__ import annotations

import html
import json
from typing import Dict, Hashable, Iterable, Optional

from repro.core.detector import CostStats, Detector, RaceWarning
from repro.detectors.classifier import SharingClassifier
from repro.trace import events as ev
from repro.trace.serialize import _target_from_json, _target_to_json
from repro.trace.trace import Trace

#: Schema tags stamped into every result document.
RESULT_SCHEMA = "repro.result/1"
RESULT_SET_SCHEMA = "repro.result-set/1"


# -- JSON codecs (shared with the engine's shard checkpoints) ----------------


def _encode_hashable(value: Optional[Hashable]):
    return None if value is None else _target_to_json(value)


def _decode_hashable(value) -> Optional[Hashable]:
    return None if value is None else _target_from_json(value)


def warning_to_json(warning: RaceWarning) -> Dict:
    return {
        "var": _encode_hashable(warning.var),
        "kind": warning.kind,
        "tid": warning.tid,
        "prior": warning.prior,
        "event_index": warning.event_index,
        "site": _encode_hashable(warning.site),
    }


def warning_from_json(record: Dict) -> RaceWarning:
    return RaceWarning(
        var=_decode_hashable(record["var"]),
        kind=record["kind"],
        tid=record["tid"],
        prior=record["prior"],
        event_index=record["event_index"],
        site=_decode_hashable(record["site"]),
    )


def stats_to_json(stats: CostStats) -> Dict:
    return {
        "events": stats.events,
        "reads": stats.reads,
        "writes": stats.writes,
        "syncs": stats.syncs,
        "boundaries": stats.boundaries,
        "vc_allocs": stats.vc_allocs,
        "vc_ops": stats.vc_ops,
        "fast_ops": stats.fast_ops,
        "rules": dict(sorted(stats.rules.items())),
    }


def stats_from_json(record: Dict) -> CostStats:
    stats = CostStats(
        events=record["events"],
        reads=record["reads"],
        writes=record["writes"],
        syncs=record["syncs"],
        boundaries=record["boundaries"],
        vc_allocs=record["vc_allocs"],
        vc_ops=record["vc_ops"],
        fast_ops=record["fast_ops"],
    )
    stats.rules.update(record["rules"])
    return stats


def classifier_counts(classifier: SharingClassifier) -> Dict:
    """Aggregate a classifier run into per-class access/variable counts —
    the exact payload the engine's shard checkpoints carry and merge."""
    access_counts: Dict[str, int] = {}
    variable_counts: Dict[str, int] = {}
    for key, cls in classifier.classify().items():
        profile = classifier.profiles[key]
        access_counts[cls] = access_counts.get(cls, 0) + profile.accesses
        variable_counts[cls] = variable_counts.get(cls, 0) + 1
    return {
        "access_counts": access_counts,
        "variable_counts": variable_counts,
    }


# -- the canonical result document -------------------------------------------


def result_to_json(
    tool: str,
    stats: CostStats,
    warnings: Iterable[RaceWarning],
    suppressed_warnings: int,
    classifier: Optional[Dict] = None,
    degraded: Optional[Dict] = None,
) -> Dict:
    """Assemble the ``repro.result/1`` document from its components.

    ``degraded`` is the engine's partial-failure block (quarantined
    shards and their post-mortems — see docs/ROBUSTNESS.md).  It is
    *omitted* from clean results rather than emitted as ``null``, so a
    healthy run's bytes are unchanged from pre-robustness builds and the
    differential byte-identity contract keeps holding.
    """
    warning_records = [warning_to_json(w) for w in warnings]
    document = {
        "schema": RESULT_SCHEMA,
        "tool": tool,
        "events": stats.events,
        "warning_count": len(warning_records),
        "warnings": warning_records,
        "suppressed_warnings": suppressed_warnings,
        "stats": stats_to_json(stats),
        "classifier": classifier,
    }
    if degraded is not None:
        document["degraded"] = degraded
    return document


def detector_result(
    detector: Detector, classifier: Optional[SharingClassifier] = None
) -> Dict:
    """The result document for a single-threaded detector run.

    ``classifier`` must have profiled the trace ``detector`` analyzed; it
    reuses the detector's race verdict when that verdict must equal its
    own (:meth:`SharingClassifier.adopt`).
    """
    counts = None
    if classifier is not None:
        classifier.adopt(detector)
        counts = classifier_counts(classifier)
    return result_to_json(
        detector.name,
        detector.stats,
        detector.warnings,
        detector.suppressed_warnings,
        classifier=counts,
    )


def result_set(results: Dict[str, Dict]) -> Dict:
    """Wrap several tools' result documents (``--all-tools`` / multi-tool
    service jobs) into one ``repro.result-set/1`` document."""
    return {"schema": RESULT_SET_SCHEMA, "results": results}


def dumps_result(document: Dict) -> str:
    """The canonical serialization: sorted keys, two-space indent, so two
    documents are bit-identical iff their contents are."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def _trace_summary(trace: Trace) -> dict:
    mix = trace.operation_mix()
    return {
        "events": len(trace),
        "threads": len(trace.threads()),
        "variables": len(trace.variables()),
        "locks": len(trace.locks()),
        "volatiles": len(trace.volatiles()),
        "reads": f"{mix['reads']:.1%}",
        "writes": f"{mix['writes']:.1%}",
        "synchronization": f"{mix['other']:.1%}",
    }


def build_report(
    trace: Trace,
    detector: Detector,
    fmt: str = "markdown",
    oracle_racy: Optional[Iterable] = None,
    classify: bool = True,
) -> str:
    """Render a report for a detector that has already processed ``trace``.

    ``oracle_racy`` (e.g. from :func:`repro.trace.racy_variables`) adds a
    ground-truth confirmation column; ``classify`` adds the sharing-pattern
    section (one extra pass over the trace).
    """
    if fmt not in ("markdown", "html"):
        raise ValueError(f"unknown report format {fmt!r}")

    summary = _trace_summary(trace)
    classes = None
    if classify:
        classifier = SharingClassifier().process(trace)
        classifier.adopt(detector)
        classes = classifier.classify()
        fractions = classifier.fractions()

    oracle_set = set(oracle_racy) if oracle_racy is not None else None

    lines = []
    lines.append(f"# Race report — {detector.name}")
    lines.append("")
    verdict = (
        f"**{detector.warning_count} warning(s)**"
        if detector.warning_count
        else "**race-free** (no warnings)"
    )
    lines.append(f"Verdict: {verdict} over {summary['events']} events, "
                 f"{summary['threads']} threads.")
    lines.append("")
    lines.append("## Trace profile")
    lines.append("")
    lines.append("| metric | value |")
    lines.append("|---|---|")
    for key, value in summary.items():
        lines.append(f"| {key} | {value} |")
    if classes is not None:
        lines.append("")
        lines.append("sharing classes (fraction of accesses): " + ", ".join(
            f"{cls} {fraction:.1%}"
            for cls, fraction in fractions.items()
            if fraction > 0
        ))
    lines.append("")
    lines.append("## Warnings")
    lines.append("")
    if not detector.warnings:
        lines.append("None.")
    else:
        header = "| # | kind | variable | thread | site | conflicts with |"
        if oracle_set is not None:
            header += " confirmed |"
        lines.append(header)
        lines.append("|---|---|---|---|---|---|" + ("---|" if oracle_set is not None else ""))
        for index, warning in enumerate(detector.warnings):
            row = (
                f"| {index + 1} | {warning.kind} | `{warning.var}` "
                f"| {warning.tid} | {warning.site or '—'} "
                f"| {warning.prior} |"
            )
            if oracle_set is not None:
                confirmed = "yes" if warning.var in oracle_set else "NO"
                row += f" {confirmed} |"
            lines.append(row)
        if detector.suppressed_warnings:
            lines.append("")
            lines.append(
                f"({detector.suppressed_warnings} further occurrence(s) "
                "suppressed — one report per variable and per site)"
            )
    if classes is not None and detector.warnings:
        lines.append("")
        lines.append("## Racy variables in context")
        lines.append("")
        racy_keys = {detector.shadow_key(w.var) for w in detector.warnings}
        neighbors = sorted(
            (str(var), cls)
            for var, cls in classes.items()
            if var not in racy_keys and cls != "thread-local"
        )[:12]
        lines.append(
            "Shared-but-clean variables nearby (how the rest of the "
            "program synchronizes):"
        )
        lines.append("")
        for var, cls in neighbors:
            lines.append(f"* `{var}` — {cls}")
        if not neighbors:
            lines.append("* (none — every other variable is thread-local)")
    text = "\n".join(lines) + "\n"
    if fmt == "markdown":
        return text
    return _markdown_to_html(text)


def _markdown_to_html(markdown: str) -> str:
    """A minimal, dependency-free renderer for the report's own markdown
    subset (headings, tables, bullets, bold, code spans)."""
    body_lines = []
    in_table = False
    for raw in markdown.splitlines():
        line = html.escape(raw)
        # inline formatting
        while "`" in line:
            line = line.replace("`", "<code>", 1).replace("`", "</code>", 1)
        while "**" in line:
            line = line.replace("**", "<strong>", 1).replace(
                "**", "</strong>", 1
            )
        if raw.startswith("## "):
            body_lines.append(f"<h2>{line[3:]}</h2>")
        elif raw.startswith("# "):
            body_lines.append(f"<h1>{line[2:]}</h1>")
        elif raw.startswith("|"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if all(set(cell) <= {"-"} for cell in cells):
                continue  # the separator row
            if not in_table:
                body_lines.append("<table>")
                in_table = True
                tag = "th"
            else:
                tag = "td"
            body_lines.append(
                "<tr>"
                + "".join(f"<{tag}>{cell}</{tag}>" for cell in cells)
                + "</tr>"
            )
        else:
            if in_table:
                body_lines.append("</table>")
                in_table = False
            if raw.startswith("* "):
                body_lines.append(f"<li>{line[2:]}</li>")
            elif raw.strip():
                body_lines.append(f"<p>{line}</p>")
    if in_table:
        body_lines.append("</table>")
    style = (
        "body{font-family:system-ui,sans-serif;margin:2em;max-width:60em}"
        "table{border-collapse:collapse}"
        "td,th{border:1px solid #999;padding:4px 8px;text-align:left}"
        "code{background:#f2f2f2;padding:1px 4px}"
    )
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>Race report</title><style>{style}</style></head><body>"
        + "\n".join(body_lines)
        + "</body></html>\n"
    )
