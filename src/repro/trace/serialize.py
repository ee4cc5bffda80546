"""Trace serialization: the paper's concrete syntax, plus JSON lines.

Text format — one operation per line in Figure 1's notation, with array
locations written with index brackets and an optional source site after
``@``::

    wr(0, x)
    fork(0, 1)
    rd(1, grid[2][7]) @ sor.rd_left
    acq(1, m)
    barrier_rel(0, 1)
    enter(0, sor.sweep)
    # comments and blank lines are ignored

Targets parse to ints when numeric, to tuples when bracketed
(``grid[2][7]`` → ``("grid", 2, 7)``), and to strings otherwise — exactly
the naming conventions the benchmark workloads use, so any captured trace
round-trips.  The JSONL format carries the same information one event per
line and is the interchange format for the CLI.

Examples
--------

    >>> from repro.trace import events as ev
    >>> line = format_event(ev.rd(1, ("grid", 2, 7), site="sor.rd"))
    >>> line
    'rd(1, grid[2][7]) @ sor.rd'
    >>> parsed = parse_event(line)
    >>> parsed.tid, parsed.target, parsed.site
    (1, ('grid', 2, 7), 'sor.rd')
    >>> parse_target("acc[w]")
    ('acc', 'w')
"""

from __future__ import annotations

import io
import json
import re
from itertools import starmap
from typing import Hashable, Iterable, Iterator, Optional, TextIO, Tuple, Union

from repro import faults
from repro.trace import events as ev
from repro.trace.trace import Trace

_NAME_BY_KIND = {
    ev.READ: "rd",
    ev.WRITE: "wr",
    ev.ACQUIRE: "acq",
    ev.RELEASE: "rel",
    ev.FORK: "fork",
    ev.JOIN: "join",
    ev.VOLATILE_READ: "vol_rd",
    ev.VOLATILE_WRITE: "vol_wr",
    ev.BARRIER_RELEASE: "barrier_rel",
    ev.ENTER: "enter",
    ev.EXIT: "exit",
    ev.TASK_SPAWN: "task_spawn",
    ev.TASK_AWAIT: "task_await",
    ev.FINISH_BEGIN: "finish_begin",
    ev.FINISH_END: "finish_end",
}
_KIND_BY_NAME = {name: kind for kind, name in _NAME_BY_KIND.items()}

#: Kinds whose target is another task/thread id (must parse to an int).
_TID_TARGET_KINDS = (ev.FORK, ev.JOIN, ev.TASK_SPAWN, ev.TASK_AWAIT)

_LINE = re.compile(
    r"^(?P<op>\w+)\s*\(\s*(?P<args>[^)]*)\s*\)\s*(?:@\s*(?P<site>\S+))?$"
)
_TARGET = re.compile(r"^(?P<base>[^\[\]]+)(?P<indices>(\[[^\[\]]+\])*)$")
_INDEX = re.compile(r"\[([^\[\]]+)\]")
_INT = re.compile(r"-?\d+")

#: How many distinct lines one :func:`iter_parse_parts` call remembers.
#: Traces repeat lines heavily (the 203k-line eclipse-import trace has
#: 48k distinct ones, so 76% of its lines are hits); the cap keeps an
#: unbounded stream (``repro watch``) from growing the memo forever.
_MEMO_LINES = 65536


class TraceParseError(ValueError):
    """A line of a serialized trace could not be parsed.

    When raised by the file-level parsers (:func:`loads`, :func:`load`,
    :func:`iter_parse`, :func:`iter_load` and their JSONL counterparts),
    ``lineno`` carries the 1-based line number and ``line`` the offending
    line text, so malformed trace files are debuggable from the CLI.
    Token-level parsers (:func:`parse_event`, :func:`parse_target`) raise
    with both set to ``None``.
    """

    def __init__(
        self,
        message: str,
        lineno: Optional[int] = None,
        line: Optional[str] = None,
    ) -> None:
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno
        self.line = line


# -- target encoding -----------------------------------------------------------


def format_target(target: Hashable) -> str:
    """Render a variable/lock name in the bracketed text syntax."""
    if isinstance(target, tuple):
        base, *indices = target
        return str(base) + "".join(f"[{index}]" for index in indices)
    return str(target)


def parse_target(text: str) -> Hashable:
    """Inverse of :func:`format_target` (ints stay ints)."""
    text = text.strip()
    match = _TARGET.match(text)
    if match is None or not match.group("base").strip():
        raise TraceParseError(f"bad target {text!r}")
    base = _coerce(match.group("base").strip())
    indices_text = match.group("indices")
    if not indices_text:
        return base
    indices = _INDEX.findall(indices_text)
    return tuple([base] + [_coerce(part.strip()) for part in indices])


def _coerce(token: str) -> Union[int, str]:
    if _INT.fullmatch(token):
        return int(token)
    return token


# -- text format ------------------------------------------------------------------


def format_event(event: ev.Event) -> str:
    """One line of the text format."""
    name = _NAME_BY_KIND[event.kind]
    if event.kind == ev.BARRIER_RELEASE:
        inner = ", ".join(str(tid) for tid in event.target)
        return f"{name}({inner})"
    if event.kind in _TID_TARGET_KINDS:
        body = f"{name}({event.tid}, {event.target})"
    else:
        body = f"{name}({event.tid}, {format_target(event.target)})"
    if event.site is not None:
        body += f" @ {event.site}"
    return body


def parse_event_parts(line: str) -> Tuple[int, int, Hashable, Optional[str]]:
    """Parse one text-format line to ``(kind, tid, target, site)``.

    This is the allocation-light core of :func:`parse_event`: the columnar
    ingest path (:meth:`repro.trace.columnar.ColumnarTrace.from_file`)
    appends these fields straight into its columns without ever building an
    :class:`~repro.trace.events.Event`.
    """
    match = _LINE.match(line.strip())
    if match is None:
        raise TraceParseError(f"unparseable line {line!r}")
    op = match.group("op")
    kind = _KIND_BY_NAME.get(op)
    if kind is None:
        raise TraceParseError(f"unknown operation {op!r} in {line!r}")
    args = [part.strip() for part in match.group("args").split(",") if part.strip()]
    site = match.group("site")
    if kind == ev.BARRIER_RELEASE:
        try:
            tids = tuple(sorted(int(part) for part in args))
        except ValueError:
            raise TraceParseError(f"barrier members must be tids: {line!r}")
        return kind, -1, tids, None
    if len(args) != 2:
        raise TraceParseError(f"expected two arguments in {line!r}")
    try:
        tid = int(args[0])
    except ValueError:
        raise TraceParseError(f"thread id must be an integer: {line!r}")
    if kind in _TID_TARGET_KINDS:
        try:
            target: Hashable = int(args[1])
        except ValueError:
            raise TraceParseError(
                f"{_NAME_BY_KIND[kind]} target must be a tid: {line!r}"
            )
    else:
        target = parse_target(args[1])
    return kind, tid, target, site


def parse_event(line: str) -> ev.Event:
    """Inverse of :func:`format_event`."""
    kind, tid, target, site = parse_event_parts(line)
    return ev.Event(kind, tid, target, site)


def _not_utf8(error: UnicodeDecodeError, lineno: int) -> TraceParseError:
    return TraceParseError(
        f"trace is not valid UTF-8 ({error.reason} at byte {error.start})",
        lineno=lineno,
    )


def utf8_error_in(path: str) -> Optional[TraceParseError]:
    """The error for ``path``'s first byte that is not UTF-8, or ``None``.

    A text-mode reader decodes a chunk ahead, so its decode error names
    a line up to a chunk early and an offset within the chunk.  This
    re-reads the bytes to name the bad byte's own line (``\\n``,
    ``\\r\\n`` or a lone ``\\r`` end one, as in text mode) and its offset
    in the file.
    """
    offset = 0
    lineno = 1
    with open(path, "rb") as stream:
        for raw in stream:
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as error:
                return TraceParseError(
                    f"trace is not valid UTF-8 ({error.reason} at byte "
                    f"{offset + error.start})",
                    lineno=lineno + raw.count(b"\r", 0, error.start),
                )
            offset += len(raw)
            lineno += 1 + raw.count(b"\r") - raw.count(b"\r\n")
    return None


def _numbered_lines(lines: Iterable[str]) -> Iterator[Tuple[int, str]]:
    """Number a line stream (1-based), surviving mid-stream byte rot.

    Reading an open file iterates it lazily, so a non-UTF-8 byte half-way
    through a multi-gigabyte trace raises ``UnicodeDecodeError`` *during*
    iteration — long after parsing started.  Every streaming parser draws
    its lines from here so that failure (and any injected ``trace.read``
    fault) surfaces as a :class:`TraceParseError` with the 1-based line
    number, never as a bare codec exception from deep inside the engine.

    The production path (no fault plan) is a plain ``enumerate``, so it
    costs nothing per line; the caller's loop catches the decode error,
    and the failing line is the one after the last line numbered
    (``_not_utf8(error, lineno + 1)``).
    """
    if not faults.active():
        return enumerate(lines, start=1)
    return _fault_polled_lines(lines)


def _fault_polled_lines(lines: Iterable[str]) -> Iterator[Tuple[int, str]]:
    """:func:`_numbered_lines` with a fault plan armed: poll
    ``trace.read`` per line, and attribute decode failures (real or
    injected) to their line here."""
    iterator = iter(lines)
    lineno = 0
    while True:
        lineno += 1
        try:
            raw_line = next(iterator)
        except StopIteration:
            return
        except UnicodeDecodeError as error:
            raise _not_utf8(error, lineno) from None
        spec = faults.fire("trace.read", lineno=lineno)
        if spec is not None and spec.action == "corrupt":
            # Keep the terminator: injected corruption must parse-fail
            # even when it lands on the file's final line (a missing
            # newline there reads as an in-flight write, which the JSONL
            # parsers deliberately tolerate).
            raw_line = "\x00<injected corrupt bytes>\x00\n"
        yield lineno, raw_line


def _flagged_lines(lines: Iterable[str]) -> Iterator[Tuple[int, str, bool]]:
    """Number a line stream and flag the unterminated tail.

    Yields ``(lineno, raw_line, is_unterminated_tail)`` where the flag is
    True only when the line lacks a newline terminator — the signature of
    a line still being written by a live producer.  In any real line
    stream only the *final* line can be unterminated, so the flag never
    needs lookahead: holding a line back to learn whether another follows
    would delay every event by one line, which for a live monitor means
    a warning whose racy access is the newest line written would not
    fire until the producer wrote something else.  Callers must keep
    terminators (all the file parsers and :class:`repro.watch` readers
    do, and so do :func:`loads` and :func:`loads_jsonl`).
    """
    lineno = 0
    try:
        for lineno, raw_line in _numbered_lines(lines):
            yield lineno, raw_line, not raw_line.endswith(("\n", "\r"))
    except UnicodeDecodeError as error:
        raise _not_utf8(error, lineno + 1) from None


def iter_parse_parts(
    lines: Iterable[str],
) -> Iterator[Tuple[int, int, Hashable, Optional[str]]]:
    """Stream-parse the text format to ``(kind, tid, target, site)`` tuples.

    Comments and blank lines are skipped, and errors carry the 1-based
    line number and offending text.  Each call remembers the lines it has
    parsed (up to :data:`_MEMO_LINES`, then it starts over), so a repeated
    line skips the regexes and yields the same tuple again; its target and
    site objects are shared, which is safe because they are immutable.
    Only successful parses are remembered, so a malformed line fails at
    its first occurrence.
    """
    memo = {}
    memo_get = memo.get
    lineno = 0
    try:
        for lineno, raw_line in _numbered_lines(lines):
            line = raw_line.strip()
            parts = memo_get(line)
            if parts is None:
                if not line or line.startswith("#"):
                    continue
                try:
                    parts = parse_event_parts(line)
                except TraceParseError as error:
                    raise TraceParseError(
                        str(error), lineno=lineno, line=line
                    ) from None
                if len(memo) >= _MEMO_LINES:
                    memo.clear()  # start over: the stream has moved on
                memo[line] = parts
            yield parts
    except UnicodeDecodeError as error:
        raise _not_utf8(error, lineno + 1) from None


def dumps(trace: Iterable[ev.Event]) -> str:
    """Serialize a trace to the text format."""
    return "\n".join(format_event(event) for event in trace) + "\n"


def iter_parse(lines: Iterable[str]) -> Iterator[ev.Event]:
    """Stream-parse the text format, one event at a time.

    Comments and blank lines are skipped.  Parse failures re-raise with the
    1-based line number and offending text attached.  (The sharded engine
    parses with :func:`iter_parse_parts` straight into columns instead.)
    """
    return starmap(ev.Event, iter_parse_parts(lines))


def iter_load(stream: Iterable[str]) -> Iterator[ev.Event]:
    """Stream-parse an open text-format file (or any iterable of lines)."""
    return iter_parse(stream)


def loads(text: str) -> Trace:
    """Parse the text format back into a :class:`Trace`.  Lines split
    where reading a file splits them, at ``\\n``, ``\\r\\n`` and ``\\r``
    only (``str.splitlines`` also splits at form feeds and ``\\u2028``)."""
    return Trace(iter_parse(io.StringIO(text, newline=None)))


def dump(trace: Iterable[ev.Event], stream: TextIO) -> None:
    stream.write(dumps(trace))


def load(stream: TextIO) -> Trace:
    return Trace(iter_load(stream))


# -- JSON lines -------------------------------------------------------------------


def _target_to_json(target: Hashable):
    if isinstance(target, tuple):
        return list(target)
    return target


def _target_from_json(value) -> Hashable:
    if isinstance(value, list):
        return tuple(value)
    return value


def event_to_json(event: ev.Event) -> dict:
    record = {
        "op": _NAME_BY_KIND[event.kind],
        "tid": event.tid,
        "target": _target_to_json(event.target),
    }
    if event.site is not None:
        record["site"] = event.site
    return record


def event_parts_from_json(
    record: dict,
) -> Tuple[int, int, Hashable, Optional[Hashable]]:
    """Decode one JSONL record to ``(kind, tid, target, site)`` (the
    allocation-light core of :func:`event_from_json`).  A ``tid`` that
    is not an integer, a site that is a list or an object, or a target
    that is an object or holds a list or an object — none of which can
    be interned — is a :class:`TraceParseError`."""
    if not isinstance(record, dict):
        raise TraceParseError(
            f"event record must be a JSON object, got {record!r}"
        )
    try:
        kind = _KIND_BY_NAME[record["op"]]
    except (KeyError, TypeError):
        raise TraceParseError(f"unknown operation in record {record!r}")
    try:
        target = _target_from_json(record["target"])
        if kind == ev.BARRIER_RELEASE:
            tid, target, site = -1, tuple(sorted(target)), None
        else:
            tid, site = record["tid"], record.get("site")
            if not isinstance(tid, int):
                raise TypeError(f"tid must be an integer, got {tid!r}")
        hash((target, site))  # interning needs both hashable
        return kind, tid, target, site
    except (KeyError, TypeError) as error:
        raise TraceParseError(
            f"bad event record {record!r}: {error}"
        ) from None


def event_from_json(record: dict) -> ev.Event:
    kind, tid, target, site = event_parts_from_json(record)
    return ev.Event(kind, tid, target, site)


def iter_parse_parts_jsonl(
    lines: Iterable[str],
) -> Iterator[Tuple[int, int, Hashable, Optional[Hashable]]]:
    """Stream-parse JSON lines to ``(kind, tid, target, site)`` tuples."""
    for lineno, raw_line, unterminated in _flagged_lines(lines):
        line = raw_line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            if unterminated:
                # The live-tail case: the final line has no newline yet,
                # so a producer is (or was) mid-write.  Stop cleanly; a
                # resumed read re-delivers the completed line.
                return
            raise TraceParseError(
                f"invalid JSON ({error.msg})", lineno=lineno, line=line
            ) from None
        try:
            yield event_parts_from_json(record)
        except TraceParseError as error:
            raise TraceParseError(str(error), lineno=lineno, line=line) from None


def dumps_jsonl(trace: Iterable[ev.Event]) -> str:
    return (
        "\n".join(json.dumps(event_to_json(event)) for event in trace) + "\n"
    )


def iter_parse_jsonl(lines: Iterable[str]) -> Iterator[ev.Event]:
    """Stream-parse JSON lines; errors carry the line number and text.

    A final line that fails to parse as JSON *and* lacks a newline
    terminator is treated as a partially-written tail (the live-tail
    case: ``repro watch`` follows files while a producer appends) and is
    silently buffered out — iteration ends cleanly instead of raising.
    Newline-terminated garbage still raises wherever it appears.
    """
    return starmap(ev.Event, iter_parse_parts_jsonl(lines))


def iter_load_jsonl(stream: Iterable[str]) -> Iterator[ev.Event]:
    """Stream-parse an open JSONL file (or any iterable of lines)."""
    return iter_parse_jsonl(stream)


def loads_jsonl(text: str) -> Trace:
    # Split as loads does; line ends are kept, so the tail-tolerance rule
    # of iter_parse_jsonl sees real terminators.
    return Trace(iter_parse_jsonl(io.StringIO(text, newline=None)))


def load_jsonl(stream: TextIO) -> Trace:
    return Trace(iter_load_jsonl(stream))
