"""The conformance matrix: the result contract, checked in one table.

For a given trace and tool, the ``repro.result/1`` bytes do not depend
on the entry point, the shard count, telemetry or a healed fault plan
(Theorem 1; docs/ENGINE.md, "What the merged stats mean").  A cell is
one (row, tool, column): the row's trace run through the column's entry
point, compared with the tool's cell in the column's base, ``check`` or
:data:`BASE`'s.  Cells compare whole documents and stdout bytes, except
at 2, 3 and 4 shards (:func:`sharded_difference`); a rejected row must
exit 2 with the same ``error:`` text.  A failure names the row, tool,
column and first differing key; :func:`skip_reason` says why a cell
cannot apply.

Each (row, column) runs once per test session, for all tools at once
(the ``matrix`` fixture in ``conftest.py``).  ``test_conformance.py``
asserts every cell; the older cross-path tests in other modules assert,
through :meth:`Matrix.check`, the cells that stand for them.
"""

import contextlib
import functools
import io
import json
import os
import random
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence

import pytest

from repro import cli, engine, faults, obs
from repro.bench.workload import WORKLOADS
from repro.detectors import DETECTORS, default_tool_kwargs, make_detector
from repro.detectors.classifier import SharingClassifier
from repro.engine import supervise
from repro.engine.checkpoint import Workdir
from repro.engine.worker import analyze_columns
from repro.kernels import has_kernel
from repro.report import (
    detector_result, dumps_result, result_to_json, warning_from_json,
)
from repro.service.client import Client
from repro.service.server import ServiceConfig, start_in_thread
from repro.trace import serialize
from repro.trace.generators import GeneratorConfig, random_feasible_trace
from repro.trace.generators import async_pipeline_trace, task_pool_trace
from repro.watch import WARNING_SCHEMA

DATA = Path(__file__).parent / "data"
TOOLS = tuple(DETECTORS)

# -- rows ---------------------------------------------------------------------

GOLDEN = sorted(json.loads((DATA / "manifest.json").read_text())) + sorted(
    json.loads((DATA / "async_manifest.json").read_text())
)

#: Workload traces that tests run besides the golden files.
WORKLOAD = {"tsp-6": lambda: WORKLOADS["tsp"].trace(scale=6)}

#: From fully lock-disciplined (race-free) to chaotic (many races), with
#: fork/join, barriers and volatiles in the mix.
CONFIGS = (
    GeneratorConfig(
        max_events=350, max_threads=4, n_vars=8, n_locks=3, discipline=1.0
    ),
    GeneratorConfig(
        max_events=350, max_threads=5, n_vars=10, n_locks=2, discipline=0.5,
        p_fork=0.1, p_join=0.08, p_volatile=0.08,
    ),
    GeneratorConfig(
        max_events=350, max_threads=6, n_vars=6, n_locks=2, discipline=0.1,
        p_fork=0.12, p_barrier=0.05,
    ),
)
SEEDS = (0, 1, 2, 3)

#: Every access kind between forks and volatiles, over two locks.
REFERENCE_CONFIG = GeneratorConfig(
    max_events=600, max_threads=5, n_vars=14, n_locks=2, discipline=0.3,
    p_fork=0.1, p_volatile=0.05,
)

#: Lock-heavy traces with two threads running from the start, where
#: sharded WCP may warn on more variables (docs/PREDICT.md).
ENVELOPE_CONFIG = GeneratorConfig(
    max_events=500, max_threads=5, n_vars=10, n_locks=3, discipline=0.3,
    p_fork=0.06, p_join=0.05, seed_threads=2,
)

#: Fork, join and volatile traffic around every access kind.
KERNEL_CONFIG = GeneratorConfig(
    max_events=400, max_threads=5, n_vars=10, n_locks=2, discipline=0.3,
    p_fork=0.08, p_join=0.06, p_volatile=0.05,
)


def _random(seed, config):
    return lambda: random_feasible_trace(random.Random(seed), config)


#: The ``CONFIGS × SEEDS`` rows.
MIXED = [
    f"mixed-{index}-{seed}" for index in range(len(CONFIGS)) for seed in SEEDS
]

#: Generated rows: name -> a function that builds the trace.
GENERATED = {
    **{
        f"mixed-{index}-{seed}": _random(1000 * index + seed, config)
        for index, config in enumerate(CONFIGS)
        for seed in SEEDS
    },
    "reference": _random(4242, REFERENCE_CONFIG),
    "seed-99": _random(99, GeneratorConfig(
        max_events=500, max_threads=5, n_vars=12, discipline=0.3
    )),
    **{f"kernel-{seed}": _random(seed, KERNEL_CONFIG)
       for seed in (501, 502, 504)},
    **{f"envelope-{seed}": _random(seed, ENVELOPE_CONFIG)
       for seed in (78, 79, 81)},
    "pool-racy-1": lambda: task_pool_trace(racy=True, seed=1),
    "pool-racy-3": lambda: task_pool_trace(racy=True, seed=3),
    "pool-safe-3": lambda: task_pool_trace(racy=False, seed=3),
    "pipeline-racy-5": lambda: async_pipeline_trace(racy=True, seed=5),
    "pipeline-safe-5": lambda: async_pipeline_trace(racy=False, seed=5),
}

#: Released before it is held: only the in-process check notices.
INFEASIBLE = "rel(0, m)\nfork(0, 1)\nwr(0, x)\nwr(1, x)\n"

#: One-record traces naming a thread id outside 0..MAX_TID, or a fork or
#: join target that is not an integer: (format, record).
OUT_OF_RANGE = {
    "text-negative-tid": ("text", "wr(-1, x)"),
    "text-negative-acquirer": ("text", "acq(-3, m)"),
    "text-negative-fork-target": ("text", "fork(0, -1)"),
    "text-negative-join-target": ("text", "join(0, -2)"),
    "text-huge-tid": ("text", "wr(99999999999999999999999, x)"),
    "text-int64-max-tid": ("text", "wr(9223372036854775807, x)"),
    "text-tid-past-bound": ("text", f"wr({serialize.MAX_TID + 1}, x)"),
    "text-negative-barrier-member": ("text", "barrier_rel(0, -3)"),
    "jsonl-negative-tid": ("jsonl", '{"op": "wr", "tid": -2, "target": "x"}'),
    "jsonl-negative-fork-target": (
        "jsonl", '{"op": "fork", "tid": 0, "target": -3}'
    ),
    "jsonl-string-fork-target": (
        "jsonl", '{"op": "fork", "tid": 0, "target": "x"}'
    ),
    "jsonl-float-join-target": (
        "jsonl", '{"op": "join", "tid": 0, "target": 1.5}'
    ),
    "jsonl-huge-tid": (
        "jsonl", '{"op": "wr", "tid": %d, "target": "x"}' % 2**70
    ),
    "jsonl-int64-max-tid": (
        "jsonl", '{"op": "wr", "tid": %d, "target": "x"}' % (2**63 - 1)
    ),
    "jsonl-negative-barrier-member": (
        "jsonl", '{"op": "barrier_rel", "target": [0, -4]}'
    ),
}

#: JSONL records whose fields have the wrong JSON type.
WRONG_TYPED = {
    "site-list": '{"op": "wr", "tid": 0, "target": "x", "site": [1]}',
    "target-object": '{"op": "wr", "tid": 0, "target": {"a": 1}}',
    "target-nested-list": '{"op": "wr", "tid": 0, "target": [["a"], 1]}',
    "tid-list": '{"op": "wr", "tid": [0], "target": "x"}',
    "tid-string": '{"op": "wr", "tid": "0", "target": "x"}',
    "tid-float": '{"op": "wr", "tid": 1.5, "target": "x"}',
}

#: A non-UTF-8 byte deep in the file, past the decoder's read-ahead
#: chunk: (bytes, its line, its offset from the start of the file).
ROT = {
    "text": (b"wr(0, x)\n" * 5000 + b"wr(0, \xffx)\nwr(1, x)\n", 5001, 45006),
    "jsonl": (
        b'{"op":"wr","tid":0,"target":"x"}\n' * 3000
        + b'{"op":"wr","tid":0,"target":"\xff"}\n',
        3001, 99029,
    ),
}


def _offending(line: str) -> str:
    return f"  offending line: {line}\n"


#: Rejected rows: name -> (format, file bytes or ``None`` for no file,
#: the start and the end of the ``error:`` text after the path).
REJECTED = {
    **{
        f"range-{form}": (
            fmt, f"{record}\n".encode(), "line 1: ", _offending(record)
        )
        for form, (fmt, record) in OUT_OF_RANGE.items()
    },
    **{
        f"typed-{name}": (
            "jsonl", f"{record}\n".encode(), "line 1: bad event record ",
            _offending(record),
        )
        for name, record in WRONG_TYPED.items()
    },
    **{
        f"rot-{fmt}": (fmt, data, f"line {lineno}: trace is not valid UTF-8 "
                                  f"(invalid start byte at byte {offset})\n",
                       "")
        for fmt, (data, lineno, offset) in ROT.items()
    },
    "malformed": ("text", b"wr(0, x)\nbogus line\n",
                  "line 2: unparseable line 'bogus line'\n",
                  _offending("bogus line")),
    "missing": ("text", None, "No such file or directory\n", ""),
}

ROWS = (
    GOLDEN + list(WORKLOAD) + list(GENERATED) + ["infeasible"]
    + list(REJECTED)
)


class Row(NamedTuple):
    name: str
    path: str
    fmt: str
    error: Optional[str] = None  # a rejected row's expected error text,
    error_end: str = ""  # its start and its end


class Cell(NamedTuple):
    code: Optional[int]  # None for a path without an exit code
    value: object  # the document, or a rejected row's error text
    out: Optional[str] = None  # the stdout, where the column has one


# -- columns ------------------------------------------------------------------


def _cli(*argv: str):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _cells(row: Row, code: int, out: str, err: str) -> Dict[str, Cell]:
    """A CLI run as a cell per tool."""
    if row.error is not None:
        error = err.replace(f"error: {row.path}: ", "", 1)
        return dict.fromkeys(TOOLS, Cell(code, error, out))
    documents = json.loads(out)["results"] if out else {}
    return {tool: Cell(code, documents.get(tool, err), out) for tool in TOOLS}


def _check(matrix, row: Row, *extra: str, path=None, fmt=None):
    return _cells(row, *_cli(
        "check", path or row.path, "--format", fmt or row.fmt,
        "--all-tools", "--json", *extra,
    ))


def _object(matrix, row: Row):
    trace = matrix.trace(row.name)
    return {tool: Cell(None, detector_result(
        make_detector(tool, **default_tool_kwargs(tool)).process(trace),
        SharingClassifier().process(trace),
    )) for tool in TOOLS}


def _columns(matrix, row: Row):
    columns = engine.read_columns(row.path, row.fmt)
    cells = {}
    for tool in TOOLS:
        detector, loop, counts = analyze_columns(
            tool, columns, tool_kwargs=default_tool_kwargs(tool),
            classifier=SharingClassifier().process(columns),
        )
        assert loop == ("fused" if has_kernel(tool) else "generic"), tool
        cells[tool] = Cell(None, result_to_json(
            detector.name, detector.stats, detector.warnings,
            detector.suppressed_warnings, classifier=counts,
        ))
    return cells


def _own_loops(workdir: str, tool: str, nshards: int):
    return {Workdir(workdir).read_result(tool, shard)["kernel"]
            for shard in range(nshards)}


def _events(matrix, row: Row):
    """The in-memory engine, ``engine.check_events``, at 3 shards: every
    tool over one partition, each shard with the tool's own loop."""
    trace = matrix.trace(row.name)
    workdir = str(matrix.root / "events" / row.name)
    cells = {}
    for position, tool in enumerate(TOOLS):
        report = engine.check_events(
            trace.events, tool=tool, nshards=3, workdir=workdir,
            resume=position > 0, classify=True,
            tool_kwargs=default_tool_kwargs(tool),
        )
        loops = _own_loops(workdir, tool, 3)
        own = "fused" if has_kernel(tool) else "generic"
        assert loops == {own}, f"{tool}: shard payloads ran {loops}"
        cells[tool] = Cell(None, report.to_json())
    return cells


def _plan(matrix, fault: Dict) -> str:
    path = matrix.root / f"{fault['point']}.json"
    path.write_text(json.dumps({"schema": "repro.faults/1",
                                "faults": [fault]}))
    return str(path)


def _kernel_fault(matrix, row: Row):
    """Each kernel tool alone at 2 shards, its kernel failing on every
    shard, so the object path redoes it."""
    plan = _plan(matrix, {"point": "kernel.run", "times": 99})
    cells = {}
    for tool in filter(has_kernel, TOOLS):
        workdir = str(matrix.root / "kernel-fault" / row.name / tool)
        code, out, err = _cli(
            "check", row.path, "--format", row.fmt, "--tool", tool, "--json",
            "--shards", "2", "--faults", plan, "--resume", workdir,
        )
        loops = _own_loops(workdir, tool, 2)
        assert loops == {"generic"}, f"{tool}: shard payloads ran {loops}"
        cells[tool] = Cell(code, json.loads(out), out)
    return cells


def _healed_crash(matrix, row: Row):
    """Every shard's first attempt dies at 2 shards; its retry heals it."""
    plan = _plan(matrix, {
        "point": "worker.crash", "match": {"attempt": 0}, "times": 99,
    })
    code, out, err = _cli(
        "check", row.path, "--format", row.fmt, "--all-tools", "--json",
        "--shards", "2", "--faults", plan,
    )
    assert "degraded path taken: shard_retried" in err, err
    return _cells(row, code, out, err)


def _telemetry(matrix, row: Row):
    cells = _check(matrix, row, "--telemetry", str(matrix.root / row.name))
    assert not obs.enabled(), "the CLI left the telemetry sink on"
    return cells


#: The first line of ``repro check --all-tools`` as text.
TABLE_HEADER = f"{'tool':<12s}{'warnings':>9s}"


def _without_feasibility_warning(text: str) -> List[str]:
    return [line for line in text.splitlines()
            if not line.startswith("warning: trace is not feasible")]


def _text(matrix, row: Row, *extra: str, path=None, fmt=None):
    """``repro check --all-tools`` as text: each tool's row of the
    table, and its warnings under ``--verbose``."""
    argv = ("check", path or row.path, "--format", fmt or row.fmt,
            "--all-tools", *extra)
    code, table, _ = _cli(*argv)
    verbose_code, verbose, _ = _cli(*argv, "--verbose")
    assert verbose_code == code, (code, verbose_code)
    # The in-process check's feasibility warning leads its text output
    # (test_conformance.py pins which entry points print it).
    header, *lines = _without_feasibility_warning(table)
    assert header == TABLE_HEADER, header
    blocks: Dict[str, List[str]] = {}
    for line in _without_feasibility_warning(verbose):
        if not line.startswith("  "):
            tool = line.split(":", 1)[0]
        blocks.setdefault(tool, []).append(line)
    return {
        tool: Cell(code, {"table": table_line, "verbose": blocks.get(tool)})
        for tool, table_line in zip(TOOLS, lines)
    }


def _text_of(tool: str, document: Dict) -> Dict:
    """What ``_text`` must read for a tool's document."""
    count = document["warning_count"]
    return {
        "table": f"{tool:<12s}{count:>9d}",
        "verbose": [f"{tool}: {count} warning(s)"] + [
            f"  {warning_from_json(warning)}"
            for warning in document["warnings"]
        ],
    }


def _watch(matrix, row: Row, *extra: str):
    """Each tool's streamed ``repro.warning/1`` records.  Rejected input
    fails before any tool runs, so one run stands for all."""
    argv = ("watch", row.path, "--format", row.fmt, *extra)
    if row.error is not None:
        return _cells(row, *_cli(*argv))
    cells = {}
    for tool in TOOLS:
        code, out, _ = _cli(*argv, "--tool", tool)
        cells[tool] = Cell(code, [json.loads(r) for r in out.splitlines()])
    return cells


def _submit(matrix, row: Row, *extra: str, path=None, fmt=None):
    """``repro submit --wait`` to the in-thread daemon."""
    return _cli(
        "submit", path or row.path, "--format", fmt or row.fmt, "--wait",
        "--port", str(matrix.port()), *extra,
    )


def _job_cells(row: Row, code: int, out: str, err: str) -> Dict[str, Cell]:
    """A multi-tool job as a cell per tool.  A rejected trace is
    uploaded and its job fails: the cell is the job's error text."""
    if row.error is None:
        return _cells(row, code, out, err)
    prefix = "TraceParseError: "
    error = err[err.find(prefix) + len(prefix):] if prefix in err else err
    return dict.fromkeys(TOOLS, Cell(code, error, out))


def _served(matrix, row: Row):
    """One multi-tool job at 1 shard."""
    return _job_cells(row, *_submit(matrix, row, "--all-tools"))


def _served_2(matrix, row: Row):
    """One multi-tool job at 2 shards, uploading the JSONL copy."""
    path, fmt = row.path, row.fmt
    if row.error is None:
        path, fmt = matrix.jsonl(row), "jsonl"
    return _job_cells(row, *_submit(
        matrix, row, "--all-tools", "--shards", "2", path=path, fmt=fmt
    ))


def _served_tool(matrix, row: Row):
    """One single-tool job per tool, named in lower case (tool names
    resolve case-insensitively, as on the command line): the bytes the
    daemon serves, which ``repro submit`` would decode and encode again."""
    client = Client(port=matrix.port(), timeout=30.0)
    jobs = {
        tool: client.submit(path=row.path, tools=[tool.lower()], fmt=row.fmt)
        for tool in TOOLS
    }
    cells = {}
    for tool, job in jobs.items():
        assert job["tools"] == [tool], job
        client.wait(job["id"], timeout=120.0)
        out = client.result_bytes(job["id"]).decode("utf-8")
        cells[tool] = Cell(None, json.loads(out), out)
    return cells


RUNNERS = {
    "check": _check,
    "jsonl": lambda matrix, row: _check(
        matrix, row, path=matrix.jsonl(row), fmt="jsonl"
    ),
    "object": _object,
    "columns": _columns,
    "events": _events,
    "shards=1": lambda matrix, row: _check(matrix, row, "--shards", "1"),
    "shards=2": lambda matrix, row: _check(matrix, row, "--shards", "2"),
    "shards=4": lambda matrix, row: _check(matrix, row, "--shards", "4"),
    "kernel-fault": _kernel_fault,
    "healed-crash": _healed_crash,
    "telemetry": _telemetry,
    "text": _text,
    # At 2 shards over the JSONL copy.
    "text-2": lambda matrix, row: _text(
        matrix, row, "--shards", "2", path=matrix.jsonl(row), fmt="jsonl"
    ),
    "watch": _watch,
    "watch-compact": lambda matrix, row: _watch(
        matrix, row, "--compact-every", "7"
    ),
    "served": _served,
    "served-2": _served_2,
    "served-tool": _served_tool,
}
#: The column each column is compared with, where it is not ``check``.
BASE = dict.fromkeys(
    ("kernel-fault", "healed-crash", "text-2", "served-2"), "shards=2"
)
SHARDED = ("events", "shards=2", "shards=4")
#: Columns that run each tool on its own, so that each tool's run has
#: its own exit code and prints its bare document.
SINGLE_TOOL = ("kernel-fault", "served-tool")

#: Columns that a rejected row cannot reach, with the reason.
_NOT_FOR_REJECTED = {
    "jsonl": "rejected input has no events to write as JSONL",
    "object": "rejected input has no events to analyze",
    "columns": "read_columns, which rejects it, is the check column's reader",
    "events": "rejected input has no events to analyze",
    "kernel-fault": "rejected before any shard runs",
    "healed-crash": "rejected before any shard runs",
    "text": "the check column's reader rejects it before any output",
    "text-2": "the check column's reader rejects it before any output",
    "served-tool": "the served column's job rejects it before any tool runs",
}
#: Columns that change how a trace reaches the analysis, or how its
#: results are printed or kept, not what the analysis sees; and the
#: monitor and the kernel fallback, which every golden row runs.  The
#: generated rows, which vary the analysis input, run these only where
#: :data:`GENERATED_ALSO` says.
_NOT_FOR_GENERATED = (
    "jsonl", "kernel-fault", "healed-crash", "telemetry", "text", "text-2",
    "watch", "watch-compact", "served", "served-2", "served-tool",
)
#: Generated rows that a cross-path test ran through one of those columns.
GENERATED_ALSO = {
    "watch": ("pool-racy-1",),
    "kernel-fault": ("kernel-501", "kernel-502", "kernel-504"),
}


def skip_reason(row: Row, tool: str, column: str) -> Optional[str]:
    """Why the (row, tool, column) cell cannot apply, or ``None``."""
    if row.error is not None and column in _NOT_FOR_REJECTED:
        return _NOT_FOR_REJECTED[column]
    if (row.name in GENERATED and column in _NOT_FOR_GENERATED
            and row.name not in GENERATED_ALSO.get(column, ())):
        return "the golden rows run it; a generated row varies the analysis"
    if column.startswith("served") and row.name == "missing":
        return "no file to upload"
    if column == "kernel-fault" and not has_kernel(tool):
        return "no fused kernel"
    return None


# -- comparators --------------------------------------------------------------


def _leaves(value, where: str = "") -> Dict[str, object]:
    """A JSON value as ``{key path: leaf}``, in document order."""
    if isinstance(value, dict):
        items = [(f"{where}.{key}", item) for key, item in value.items()]
    elif isinstance(value, list):
        items = [(f"{where}[{i}]", item) for i, item in enumerate(value)]
    else:
        items = []
    leaves = {path: leaf for key, item in items
              for path, leaf in _leaves(item, key).items()}
    return leaves or {where or ".": value}


def first_difference(expected, actual) -> Optional[str]:
    """The first key path at which two JSON values differ, or ``None``."""
    if json.dumps(expected) == json.dumps(actual):
        return None  # the common case, without walking every leaf
    left, right = _leaves(expected), _leaves(actual)
    for path in {**left, **right}:
        mine, theirs = left.get(path, "(absent)"), right.get(path, "(absent)")
        if mine != theirs or type(mine) is not type(theirs):
            return f"{path}: {mine!r} != {theirs!r}"
    return None


#: Per-shard sums of sync-side work: every shard replays the broadcast
#: synchronization, so these counters grow with the shard count.
SHARD_SUMMED_STATS = ("vc_allocs", "vc_ops", "rules")
#: What WCP's sharding envelope (docs/PREDICT.md) lets differ.
WCP_ENVELOPE = ("warnings", "warning_count", "suppressed_warnings")


def sharded_difference(tool: str, unsharded: Dict,
                       sharded: Dict) -> Optional[str]:
    """The first difference between a tool's unsharded and sharded
    documents beyond what sharding is documented to change, or ``None``.

    It masks ``stats.vc_allocs``, ``stats.vc_ops`` and ``stats.rules``
    for every tool (docs/ENGINE.md, "What the merged stats mean").  For
    WCP it also applies the sharding envelope of docs/PREDICT.md: the
    unsharded run's warned variables are a subset of the sharded run's,
    and the warnings, their count and ``suppressed_warnings`` may differ.

    ROADMAP item 3 deletes this function: once the shard count is out of
    the result bytes, the ``events`` (3 shards), ``shards=2`` and
    ``shards=4`` columns compare whole documents like every other column.
    """
    def masked(document):
        hidden = WCP_ENVELOPE if tool == "WCP" else ()
        return {**{k: v for k, v in document.items() if k not in hidden},
                "stats": {k: v for k, v in document["stats"].items()
                          if k not in SHARD_SUMMED_STATS}}

    if tool == "WCP":
        def warned(document):
            return {json.dumps(w["var"]) for w in document["warnings"]}

        lost = warned(unsharded) - warned(sharded)
        if lost:
            return f".warnings: the sharded run lost {sorted(lost)}"
    return first_difference(masked(unsharded), masked(sharded))


def cell_difference(column: str, tool: str, expected: Cell,
                    actual: Cell) -> Optional[str]:
    """How ``actual`` differs from the base's cell, or ``None``."""
    document = expected.value
    if isinstance(document, dict):
        own_code = 1 if document["warning_count"] else 0
        if column.startswith("watch"):
            # What ``repro watch`` must stream for that document.
            expected = Cell(own_code, [
                {"schema": WARNING_SCHEMA, "tool": tool, "warning": warning}
                for warning in document["warnings"]
            ])
        elif column.startswith("text"):
            expected = Cell(expected.code, _text_of(tool, document))
        elif column in SINGLE_TOOL:
            expected = Cell(own_code, document, dumps_result(document))
    elif column.startswith("served"):
        # The daemon's job error is the reader's message, without the
        # ``offending line`` the command line adds under it.
        expected = expected._replace(
            value=document.split("\n", 1)[0] + "\n"
        )
    if actual.code is not None and actual.code != expected.code:
        return (f"exit {actual.code}, expected {expected.code}: "
                f"{actual.value!r:.300}")
    if column in SHARDED and isinstance(document, dict):
        return sharded_difference(tool, document, actual.value)
    found = first_difference(expected.value, actual.value)
    if found is None and None not in (expected.out, actual.out) and (
        expected.out != actual.out
    ):
        found = "stdout: the same documents, other bytes"
    return found


# -- the table ----------------------------------------------------------------


class Matrix:
    """The table's rows on disk, each (row, column) run at most once."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.traces, self.runs = {}, {}
        self.daemon = None
        self.parser = cli.build_parser()

    def row(self, name: str) -> Row:
        if name in GOLDEN:
            return Row(name, str(DATA / f"{name}.trace"), "text")
        path = self.root / f"{name}.trace"
        if name in REJECTED:
            fmt, data, error, error_end = REJECTED[name]
            if data is not None and not path.exists():
                path.write_bytes(data)
            return Row(name, str(path), fmt, error, error_end)
        if not path.exists():
            path.write_text(serialize.dumps(self.trace(name)))
        return Row(name, str(path), "text")

    def trace(self, name: str):
        """The row's events: the generated trace, or the file's parse."""
        if name not in self.traces:
            if name in GENERATED:
                self.traces[name] = GENERATED[name]()
            elif name in WORKLOAD:
                self.traces[name] = WORKLOAD[name]()
            else:
                text = INFEASIBLE if name == "infeasible" else (
                    DATA / f"{name}.trace").read_text()
                self.traces[name] = serialize.loads(text)
        return self.traces[name]

    def jsonl(self, row: Row) -> str:
        """The row's events written as JSONL."""
        path = self.root / f"{row.name}.jsonl"
        if not path.exists():
            path.write_text(serialize.dumps_jsonl(self.trace(row.name)))
        return str(path)

    def run(self, row: Row, column: str) -> Dict[str, Cell]:
        if (row.name, column) not in self.runs:
            # Kept as JSON text for the rest of the session: strings cost
            # the garbage collector nothing to scan, nested dicts do.
            self.runs[row.name, column] = {
                tool: cell._replace(value=json.dumps(cell.value))
                for tool, cell in self._run(row, column).items()
            }
        return {tool: cell._replace(value=json.loads(cell.value))
                for tool, cell in self.runs[row.name, column].items()}

    def _run(self, row: Row, column: str) -> Dict[str, Cell]:
        with pytest.MonkeyPatch.context() as patch:
            # The table makes about two thousand runs: build the parser
            # once, skip the flushes of durable writes (test_faults.py
            # and test_chaos_service.py check those), and neither sleep
            # a retry's backoff nor a poll interval; none is under test.
            patch.setattr(cli, "build_parser", lambda: self.parser)
            patch.setattr(os, "fsync", lambda fd: None)
            patch.setattr(supervise, "backoff_delay", lambda *args: 0.0)
            patch.setattr(Client, "wait", functools.partialmethod(
                Client.wait, poll=0.005
            ))
            try:
                return RUNNERS[column](self, row)
            finally:
                # Fault plans, the telemetry sink and the drain flag are
                # process-global: no column may leak one into the next.
                faults.clear()
                if obs.enabled():
                    obs.disable()
                engine.reset_drain()

    def port(self) -> int:
        if self.daemon is None:
            self.daemon = start_in_thread(ServiceConfig(
                port=0, workers=2, store_dir=str(self.root / "store")
            ))
        return self.daemon.port

    def stop_daemon(self) -> None:
        """Stop the daemon until a column needs it again."""
        if self.daemon is not None:
            self.daemon.stop(grace=5.0)
            self.daemon = None

    def close(self) -> None:
        self.stop_daemon()
        self.runs.clear()
        self.traces.clear()

    def failures(self, row: Row, column: str,
                 tools: Sequence[str]) -> List[str]:
        """Each of the tools' cells in the column that does not hold."""
        base = self.run(row, BASE.get(column, "check"))
        if column == "check":
            # The reference itself: a rejected row fails as the table says.
            code, error, _ = base[TOOLS[0]]
            if row.error is None or (
                code == 2 and error.startswith(row.error)
                and error.endswith(row.error_end)
            ):
                return []
            return [f"{row.name} / all tools / check: exit {code}: {error}"]
        cells = self.run(row, column)
        return [
            f"{row.name} / {tool} / {column}: {found}" for tool in tools
            for found in [cell_difference(column, tool, base[tool],
                                          cells[tool])]
            if found
        ]

    def check(self, rows: Sequence[str], columns: Sequence[str],
              tools: Sequence[str] = TOOLS) -> None:
        """Assert the (row, tool, column) cells, none of them a skip."""
        failures = []
        for name in rows:
            row = self.row(name)
            for column in columns:
                for tool in tools:
                    reason = skip_reason(row, tool, column)
                    assert reason is None, (
                        f"{name} / {tool} / {column} is a skip: {reason}"
                    )
                failures += self.failures(row, column, tools)
        assert not failures, "\n".join(failures)

    def document(self, row: str, column: str, tool: str) -> Dict:
        """A tool's document in a (row, column) run."""
        return self.run(self.row(row), column)[tool].value
