"""Command-line interface.

::

    repro tools                         list the seven detectors
    repro workloads                     list the benchmark workloads
    repro record tsp -o tsp.trace       generate a workload's event stream
    repro check tsp.trace               run FastTrack over a trace file
    repro check tsp.trace --tool Eraser --all-tools --oracle
    repro check tsp.trace --json        machine-readable result document
    repro check big.trace --jobs 4 --shards 16 --resume work/
                                        sharded parallel engine (streaming;
                                        re-running resumes finished shards)
    repro serve --port 8077 --store work/service
                                        long-running race-checking daemon
    repro submit tsp.trace --wait       send a trace to a running daemon
    repro status JOB / repro result JOB poll a daemon job / fetch its result
    repro annotate small.trace          print per-event vector clocks
    repro predict small.trace           WCP predictive races + vindication
    repro bench table1                  regenerate the paper's tables

Trace files use the text format of :mod:`repro.trace.serialize` (the
paper's concrete syntax; ``--format jsonl`` for JSON lines).  ``check``
exits with status 1 when the selected tool reports warnings, so it can
gate a CI job; 2 on input/usage errors; a run drained by SIGTERM exits
with 3 after checkpointing (re-run with ``--resume`` to finish); and a
run that completed *degraded* — poison shards quarantined after their
retries were exhausted — exits with 4 and stamps a ``degraded`` block
into the ``--json`` document (see docs/ROBUSTNESS.md).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.detectors import DETECTORS, default_tool_kwargs, resolve_tool_name
from repro.trace import serialize
from repro.trace.clocks import annotate as annotate_clocks
from repro.trace.feasibility import check_feasible
from repro.trace.happens_before import racy_variables
from repro.trace.trace import Trace


class _UnreadableTrace(Exception):
    """``(path, error)``: a trace file that could not be read or parsed.
    :func:`main` reports it and exits 2, whichever verb was reading."""


def _read_columns(path: str, fmt: str):
    """Parse a trace file into columns, exactly as the engine and the
    daemon read one, so every verb accepts and rejects the same files."""
    from repro import engine

    try:
        return engine.read_columns(path, fmt)
    except (serialize.TraceParseError, OSError) as error:
        raise _UnreadableTrace(path, error) from None


def _read_trace(path: str, fmt: str) -> Trace:
    return Trace(_read_columns(path, fmt).iter_events())


def _print_read_error(path: str, error: Exception) -> None:
    if isinstance(error, serialize.TraceParseError):
        print(f"error: {path}: {error}", file=sys.stderr)
        if error.line is not None:
            print(f"  offending line: {error.line}", file=sys.stderr)
    else:
        print(f"error: {path}: {error.strerror or error}", file=sys.stderr)


def _write_trace(trace: Trace, path: Optional[str], fmt: str) -> None:
    text = (
        serialize.dumps_jsonl(trace) if fmt == "jsonl" else serialize.dumps(trace)
    )
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(text)


def cmd_tools(_args) -> int:
    print(f"{'tool':<12s}{'precise':>9s}  description")
    descriptions = {
        "Empty": "no analysis; measures event-delivery overhead",
        "Eraser": "LockSet discipline checker [33] (+barrier extension)",
        "MultiRace": "hybrid LockSet/DJIT+ [30]",
        "Goldilocks": "synchronization-device locksets [14]",
        "BasicVC": "read+write vector clock per location",
        "DJIT+": "epoch-fast-pathed vector clocks [30]",
        "FastTrack": "adaptive epochs (this paper)",
        "WCP": "weak-causally-precedes, predictive (repro predict)",
        "AsyncFinish": "FastTrack + async-finish task scopes (alias: async)",
    }
    for name, cls in DETECTORS.items():
        flag = "yes" if cls.precise else "no"
        print(f"{name:<12s}{flag:>9s}  {descriptions[name]}")
    return 0


def cmd_workloads(_args) -> int:
    from repro.bench.workload import WORKLOADS

    print(f"{'workload':<12s}{'threads':>8s}{'scale':>8s}  description")
    for name, workload in WORKLOADS.items():
        print(
            f"{name:<12s}{workload.paper.threads:>8d}"
            f"{workload.default_scale:>8d}  {workload.description}"
        )
    return 0


def cmd_record(args) -> int:
    from repro.bench.workload import WORKLOADS

    try:
        workload = WORKLOADS[args.workload]
    except KeyError:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    trace = workload.trace(scale=args.scale, seed=args.seed)
    _write_trace(trace, args.output, args.format)
    if args.output not in (None, "-"):
        print(
            f"wrote {len(trace)} events ({len(trace.threads())} threads) "
            f"to {args.output}",
            file=sys.stderr,
        )
    return 0


def _parse_jobs(value: str):
    """``--jobs`` argument: a positive integer or ``auto`` (= CPU count)."""
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        )


def _resolve_jobs(args) -> int:
    """Resolve ``--jobs auto`` and warn when workers outnumber CPUs.

    The diagnostic goes through the structured logger: a ``{"type":
    "log"}`` record in ``spans.jsonl`` when ``--telemetry`` is on, the
    familiar stderr line otherwise.
    """
    from repro import obs

    cpus = os.cpu_count() or 1
    jobs = cpus if args.jobs == "auto" else args.jobs
    if jobs > cpus:
        obs.log.warning(
            "engine.jobs.oversubscribed",
            f"--jobs {jobs} exceeds the {cpus} available CPU(s); "
            "workers will contend for cores",
            jobs=jobs,
            cpus=cpus,
        )
    return jobs


def _install_faults(args) -> Optional[int]:
    """Install the ``--faults`` plan (or adopt ``REPRO_FAULTS``).

    Returns an exit status on a bad plan, ``None`` on success.  The plan
    is mirrored into the environment so engine pool workers — including
    ones re-spawned mid-run — inherit it.
    """
    from repro import faults

    try:
        if getattr(args, "faults", None):
            faults.install(faults.load(args.faults))
        else:
            faults.load_from_env_once()
    except faults.FaultPlanError as error:
        print(f"error: fault plan: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(
            f"error: fault plan: {error.strerror or error}", file=sys.stderr
        )
        return 2
    return None


def _enable_telemetry(args) -> bool:
    """Turn on the obs sink when ``--telemetry DIR`` was given."""
    directory = getattr(args, "telemetry", None)
    if not directory:
        return False
    from repro import obs

    obs.enable(directory)
    return True


def _print_json_results(json_results, args) -> None:
    """Emit the canonical result document(s) for ``check --json``."""
    from repro.report import dumps_result, result_set

    if args.all_tools:
        sys.stdout.write(dumps_result(result_set(json_results)))
    else:
        sys.stdout.write(dumps_result(json_results[args.tool]))


def _cmd_check_sharded(args) -> int:
    """The ``--jobs N`` / ``--shards M`` / ``--resume DIR`` engine path."""
    import tempfile

    from repro import engine

    if args.shards is not None and args.shards < 1:
        print(f"error: --shards must be >= 1, got {args.shards}",
              file=sys.stderr)
        return 2
    tool_names = list(DETECTORS) if args.all_tools else [args.tool]
    workdir = args.resume
    owns_workdir = False
    if workdir is None and len(tool_names) > 1:
        # Partition once, analyze with every tool against the same shards.
        workdir = tempfile.mkdtemp(prefix="repro-engine-")
        owns_workdir = True
    if args.all_tools and not args.verbose and not args.json:
        print(f"{'tool':<12s}{'warnings':>9s}")
    policy = engine.RetryPolicy(
        shard_timeout_s=getattr(args, "shard_timeout", None)
    )
    worst = 0
    degraded = False
    selected = None
    json_results = {}
    try:
        for position, name in enumerate(tool_names):
            kwargs = default_tool_kwargs(name)
            # Reuse the partition for every tool after the first pass.
            resume = args.resume is not None or position > 0
            report = engine.check_trace_file(
                args.trace,
                tool=name,
                fmt=args.format,
                nshards=args.shards,
                jobs=args.jobs,
                workdir=workdir,
                resume=resume,
                classify=args.json,
                tool_kwargs=kwargs,
                policy=policy,
            )
            if name == args.tool:
                worst = report.warning_count
                selected = report
            if report.is_degraded:
                degraded = True
                quarantined = report.degraded["quarantined_shards"]
                print(
                    f"degraded: {name}: {len(quarantined)} of "
                    f"{report.degraded['shards_total']} shard(s) "
                    f"quarantined ({quarantined}); their variables were "
                    "not analyzed",
                    file=sys.stderr,
                )
            if args.json:
                json_results[name] = report.to_json()
            elif args.all_tools and not args.verbose:
                print(f"{name:<12s}{report.warning_count:>9d}")
            else:
                print(f"{name}: {report.warning_count} warning(s)")
                for warning in report.warnings:
                    print(f"  {warning}")
    except (serialize.TraceParseError, OSError) as error:
        _print_read_error(args.trace, error)
        return 2
    except engine.DrainRequested as error:
        print(f"drained: {error}", file=sys.stderr)
        return 3
    except engine.QuarantineExhausted as error:
        print(f"error: {error}", file=sys.stderr)
        return 4
    except engine.CheckpointError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if owns_workdir:
            import shutil

            shutil.rmtree(workdir, ignore_errors=True)
    if args.json:
        _print_json_results(json_results, args)
    if args.report is not None and selected is not None:
        text = engine.render_markdown(selected)
        if args.report.endswith(".html"):
            from repro.report import _markdown_to_html

            text = _markdown_to_html(text)
        with open(args.report, "w", encoding="utf-8") as stream:
            stream.write(text)
        print(
            f"report written to {args.report}",
            file=sys.stderr if args.json else sys.stdout,
        )
    if degraded:
        return 4
    return 1 if worst else 0


def cmd_check(args) -> int:
    failed = _install_faults(args)
    if failed is not None:
        return failed
    telemetry = _enable_telemetry(args)
    try:
        args.jobs = _resolve_jobs(args)
        sharded = (
            args.jobs > 1 or args.shards is not None or args.resume is not None
        )
        if sharded and args.oracle:
            print(
                "error: --oracle needs the full trace in memory; "
                "use --jobs 1 for the oracle",
                file=sys.stderr,
            )
            return 2
        if sharded:
            return _cmd_check_sharded(args)
        return _cmd_check_single(args)
    finally:
        if telemetry:
            from repro import obs

            obs.disable()  # flushes DIR/metrics.json, closes spans.jsonl


def _cmd_check_single(args) -> int:
    """The in-process path: the trace's columns, analyzed per tool by the
    shard worker's own :func:`~repro.engine.worker.analyze_columns`."""
    from repro import obs
    from repro.engine.worker import analyze_columns
    from repro.report import result_to_json

    columns = _read_columns(args.trace, args.format)
    violations = check_feasible(columns.iter_events())
    if violations:
        print(
            f"warning: trace is not feasible ({violations[0]})",
            file=sys.stderr if args.json else sys.stdout,
        )
    tool_names = list(DETECTORS) if args.all_tools else [args.tool]
    classifier = None
    if args.json:
        from repro.detectors.classifier import SharingClassifier

        # One profiling pass per run; each tool's analysis adopts it.
        classifier = SharingClassifier().process(columns)
    if args.all_tools and not args.verbose and not args.json:
        print(f"{'tool':<12s}{'warnings':>9s}")
    json_results = {}
    for name in tool_names:
        detector, _, counts = analyze_columns(
            name, columns,
            tool_kwargs=default_tool_kwargs(name),
            classifier=classifier,
        )
        obs.record_rules(name, detector.stats)
        if name == args.tool:
            selected = detector
        if args.json:
            json_results[name] = result_to_json(
                detector.name, detector.stats, detector.warnings,
                detector.suppressed_warnings, classifier=counts,
            )
        elif args.all_tools and not args.verbose:
            print(f"{name:<12s}{detector.warning_count:>9d}")
        else:
            print(f"{name}: {detector.warning_count} warning(s)")
            for warning in detector.warnings:
                print(f"  {warning}")
    if args.json:
        _print_json_results(json_results, args)
    if args.oracle or args.report is not None:
        trace = Trace(columns.iter_events())
    oracle_set = None
    if args.oracle:
        oracle_set = racy_variables(trace)
        rendered = ", ".join(sorted(map(str, oracle_set))) or "none"
        print(
            f"happens-before oracle: racy variables: {rendered}",
            file=sys.stderr if args.json else sys.stdout,
        )
    if args.report is not None:
        from repro.report import build_report

        fmt = "html" if args.report.endswith(".html") else "markdown"
        text = build_report(trace, selected, fmt=fmt, oracle_racy=oracle_set)
        with open(args.report, "w", encoding="utf-8") as stream:
            stream.write(text)
        print(
            f"report written to {args.report}",
            file=sys.stderr if args.json else sys.stdout,
        )
    return 1 if selected.warning_count else 0


def cmd_profile(args) -> int:
    """Run a telemetry-enabled check and print the hot-path report.

    The analysis always goes through the engine (so the report has
    partition/analyze/merge stage timings); with the default ``--jobs 1``
    it runs single-shard, which keeps every rule count bit-identical to a
    plain single-threaded ``repro check`` — the Figure 2 numbers for this
    trace, live.  ``--telemetry DIR`` keeps the raw span files and
    ``metrics.json`` next to the report; otherwise they are discarded.

    ``--from-telemetry DIR`` skips the run entirely: it stitches the
    span files an earlier run (or a daemon) wrote — ``spans.jsonl`` plus
    every worker's ``spans-<pid>.jsonl`` — into one tree per trace id
    and prints them with the critical path starred.
    """
    import shutil
    import tempfile

    from repro import engine, obs

    if args.from_telemetry is not None:
        records = obs.read_all_spans(args.from_telemetry, validate=False)
        sys.stdout.write(
            obs.render_trace_report(records, directory=args.from_telemetry)
        )
        return 0
    if args.trace is None:
        print(
            "error: a trace argument is required unless --from-telemetry "
            "is given",
            file=sys.stderr,
        )
        return 2
    keep = args.telemetry is not None
    directory = args.telemetry or tempfile.mkdtemp(prefix="repro-obs-")
    obs.enable(directory)
    args.jobs = _resolve_jobs(args)
    nshards = args.shards
    if nshards is None and args.jobs == 1:
        nshards = 1  # exact single-threaded counters (see docstring)
    tool_names = list(DETECTORS) if args.all_tools else [args.tool]
    workdir = None
    if len(tool_names) > 1:
        workdir = tempfile.mkdtemp(prefix="repro-engine-")
    reports = {}
    try:
        with obs.span("check", trace=args.trace, jobs=args.jobs):
            for position, name in enumerate(tool_names):
                reports[name] = engine.check_trace_file(
                    args.trace,
                    tool=name,
                    fmt=args.format,
                    nshards=nshards,
                    jobs=args.jobs,
                    workdir=workdir,
                    resume=position > 0,
                    tool_kwargs=default_tool_kwargs(name),
                )
    except (serialize.TraceParseError, OSError) as error:
        _print_read_error(args.trace, error)
        return 2
    except engine.DrainRequested as error:
        print(f"drained: {error}", file=sys.stderr)
        return 3
    finally:
        obs.disable()
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
    # Stitch every span file in the dir — a --jobs N run's workers wrote
    # their own spans-<pid>.jsonl files next to the main spans.jsonl.
    spans = obs.read_all_spans(directory, validate=False)
    sys.stdout.write(obs.render_profile(args.trace, reports, spans))
    if keep:
        print(f"telemetry written to {directory}", file=sys.stderr)
    else:
        shutil.rmtree(directory, ignore_errors=True)
    return 0


def cmd_watch(args) -> int:
    """Run a detector incrementally over a live stream (docs/WATCH.md).

    Emits one ``repro.warning/1`` JSON line per warning to stdout, the
    moment the completing access is analyzed.  Exit codes match ``repro
    check``: 0 clean, 1 warnings streamed, 2 input/parse errors.
    """
    from repro import obs
    from repro.watch import TailReader, WatchMonitor, stdin_lines

    telemetry = _enable_telemetry(args)
    reader = None
    try:
        if args.trace == "-":
            lines = stdin_lines()
        else:
            if not os.path.exists(args.trace):
                print(
                    f"error: {args.trace}: no such file", file=sys.stderr
                )
                return 2
            # Without --follow the whole point is draining the file, so
            # --from-start is implied; with --follow the default is to
            # start at the current end (new events only).
            reader = TailReader(
                args.trace,
                from_start=args.from_start or not args.follow,
                follow=args.follow,
                poll_interval=args.poll_interval,
                idle_timeout=args.idle_timeout,
            )
            lines = reader.lines()
        parse = (
            serialize.iter_parse_jsonl
            if args.format == "jsonl"
            else serialize.iter_parse
        )
        monitor = WatchMonitor(
            args.tool,
            compact_every=args.compact_every,
            # Traced runs stamp each warning record; without --telemetry
            # the key is absent and the stream stays byte-identical.
            trace_id=obs.current_trace_id() if telemetry else None,
        )
        arrival = (
            (lambda: reader.last_read_at) if reader is not None else None
        )
        try:
            with obs.span(
                "watch.run", tool=monitor.tool, trace=args.trace
            ) as span:
                for record in monitor.drain(parse(lines), arrival=arrival):
                    print(record, flush=True)
                summary = monitor.finish()
                span.set(
                    events=summary["events"], warnings=summary["warnings"]
                )
        except (serialize.TraceParseError, OSError) as error:
            monitor.finish()
            _print_read_error(args.trace, error)
            return 2
        print(
            f"watched {summary['events']} event(s): "
            f"{summary['warnings']} warning(s)"
            + (
                f", {summary['compactions']} compaction(s)"
                if summary["compactions"]
                else ""
            ),
            file=sys.stderr,
        )
        return 1 if summary["warnings"] else 0
    finally:
        if telemetry:
            obs.disable()


def cmd_classify(args) -> int:
    from repro.detectors.classifier import CLASSES, SharingClassifier

    tool = SharingClassifier().process(_read_columns(args.trace, args.format))
    fractions = tool.fractions()
    print("sharing classification (fraction of accesses):")
    for cls in CLASSES:
        print(f"  {cls:<16s}{fractions[cls]:>8.1%}")
    if args.verbose:
        print("\nper-variable classes:")
        for var, cls in sorted(
            tool.classify().items(), key=lambda item: str(item[0])
        ):
            print(f"  {str(var):<32s}{cls}")
    return 0


def cmd_annotate(args) -> int:
    trace = _read_trace(args.trace, args.format)
    clocks = annotate_clocks(trace)
    width = max((len(serialize.format_event(e)) for e in trace), default=10)
    for index, event in enumerate(trace):
        line = serialize.format_event(event)
        print(f"{index:>5d}  {line:<{width}s}  C={clocks.post[index]!r}")
    return 0


def cmd_predict(args) -> int:
    """Windowed predictive race detection: WCP candidates + vindication."""
    import json as _json

    from repro.predict import predict_races

    trace = _read_trace(args.trace, args.format)
    report = predict_races(trace, window=args.window)
    if args.json:
        print(_json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        events = list(trace)
        for race in report.races:
            c = race.candidate
            print(
                f"{race.status:<13s} {c.kind} on {c.var!r}: "
                f"thread {c.earlier_tid} (event #{c.earlier_index}) vs "
                f"thread {c.later_tid} (event #{c.later_index})"
            )
            if race.witness is not None and args.verbose:
                for pos in race.witness.order:
                    print(
                        f"    #{pos:<5d} "
                        f"{serialize.format_event(events[pos])}"
                    )
        real = len(report.observed) + len(report.vindicated)
        print(
            f"{report.events} events: {real} race(s) "
            f"({len(report.observed)} observed, "
            f"{len(report.vindicated)} predicted+vindicated), "
            f"{len(report.unvindicated)} unvindicated candidate(s), "
            f"{len(report.by_status('out-of-window'))} out of window"
        )
    return 1 if (report.observed or report.vindicated) else 0


def cmd_compose(args) -> int:
    """RoadRunner's ``-tool FastTrack:Velodrome`` chaining, verbatim."""
    from repro.checkers import Atomizer, SingleTrack, Velodrome
    from repro.runtime.filters import (
        DJITFilter,
        EraserFilter,
        FastTrackFilter,
        ThreadLocalFilter,
        compose_chain,
    )

    filter_classes = {
        "FastTrack": FastTrackFilter,
        "DJIT+": DJITFilter,
        "Eraser": EraserFilter,
        "TL": ThreadLocalFilter,
    }
    checker_classes = {
        "Atomizer": Atomizer,
        "Velodrome": Velodrome,
        "SingleTrack": SingleTrack,
    }
    stages = args.chain.split(":")
    if len(stages) < 2:
        print("error: the chain needs at least Filter:Checker", file=sys.stderr)
        return 2
    *filter_names, checker_name = stages
    try:
        prefilters = [filter_classes[name]() for name in filter_names]
        checker = checker_classes[checker_name]()
    except KeyError as missing:
        known = ", ".join([*filter_classes, "->", *checker_classes])
        print(
            f"error: unknown stage {missing}; known stages: {known}",
            file=sys.stderr,
        )
        return 2
    trace = _read_trace(args.trace, args.format)
    result = compose_chain(prefilters, checker, trace.events)
    print(
        f"{args.chain}: {result.events_passed}/{result.events_in} events "
        f"reached {checker_name} ({result.pass_fraction:.1%})"
    )
    print(f"{checker_name}: {checker.violation_count} violation(s)")
    for label, reason in checker.violations:
        print(f"  {label}: {reason}")
    return 1 if checker.violation_count else 0


def cmd_minimize(args) -> int:
    from repro.trace.minimize import minimize_trace
    from repro.trace.serialize import parse_target

    trace = _read_trace(args.trace, args.format)
    try:
        # A bad --var (a TraceParseError, so a ValueError) is a usage error.
        var = parse_target(args.var) if args.var is not None else None
        witness = minimize_trace(trace, var=var)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(
        f"minimized {len(trace)} events to a {len(witness)}-event witness",
        file=sys.stderr,
    )
    _write_trace(witness, args.output, args.format)
    return 0


def cmd_bench(args) -> int:
    from repro.bench.__main__ import main as bench_main

    argv = list(args.experiments)
    if args.scale is not None:
        argv += ["--scale", str(args.scale)]
    return bench_main(argv)


def _add_service_endpoint_args(parser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8077)
    parser.add_argument(
        "--timeout", type=float, default=60.0,
        help="per-request timeout in seconds",
    )
    parser.add_argument(
        "--retries", type=int, default=3, metavar="N",
        help="retry transient failures (connection resets, 429/5xx) up "
        "to N times with capped exponential backoff (default 3; 0 "
        "disables)",
    )


def _service_client(args):
    from repro.service.client import Client

    return Client(
        host=args.host,
        port=args.port,
        timeout=args.timeout,
        retries=getattr(args, "retries", 0),
    )


def cmd_serve(args) -> int:
    from repro.service.server import ServiceConfig, serve

    failed = _install_faults(args)
    if failed is not None:
        return failed
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        engine_jobs=args.engine_jobs,
        queue_size=args.queue_size,
        ttl_seconds=args.ttl,
        store_dir=args.store,
        telemetry=args.telemetry,
        job_timeout=args.job_timeout,
    )
    return serve(config)


def cmd_submit(args) -> int:
    from repro.report import dumps_result
    from repro.service.client import JobFailed, ServiceError

    client = _service_client(args)
    tools = list(DETECTORS) if args.all_tools else [args.tool]
    try:
        job = client.submit(
            path=args.trace,
            tools=tools,
            shards=args.shards,
            fmt=args.format,
            trace_id=args.trace_id,
        )
        if not args.wait:
            print(job["id"])
            return 0
        document = client.wait(job["id"])
    except JobFailed as error:
        print(f"error: job failed: {error}", file=sys.stderr)
        return 2
    except (ServiceError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    sys.stdout.write(dumps_result(document))
    if document.get("schema") == "repro.result-set/1":
        selected = document["results"].get(args.tool, {})
    else:
        selected = document
    return 1 if selected.get("warning_count") else 0


def cmd_status(args) -> int:
    import json as _json

    from repro.service.client import ServiceError

    try:
        job = _service_client(args).status(args.job)
    except (ServiceError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(_json.dumps(job, indent=2, sort_keys=True))
    return 0


def cmd_result(args) -> int:
    from repro.report import dumps_result
    from repro.service.client import JobFailed, ServiceError

    try:
        document = _service_client(args).result(args.job)
    except (JobFailed, ServiceError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    sys.stdout.write(dumps_result(document))
    return 0


def cmd_top(args) -> int:
    """The terminal ops view (docs/OBSERVABILITY.md): poll a daemon's
    ``/debug`` snapshot, or summarize a local run's telemetry dir.
    Plain-text frames — ``--once`` for one frame, else a loop."""
    import time as _time

    from repro.obs import top as obs_top
    from repro.service.client import ServiceError

    if args.telemetry is not None:
        def frame() -> str:
            return obs_top.render_telemetry_top(
                obs_top.snapshot_from_telemetry(args.telemetry)
            )
    else:
        client = _service_client(args)

        def frame() -> str:
            return obs_top.render_top(client.debug())

    first = True
    try:
        while True:
            try:
                text = frame()
            except (ServiceError, OSError) as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
            if not first:
                sys.stdout.write("\n")
            sys.stdout.write(text)
            sys.stdout.flush()
            first = False
            if args.once:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FastTrack (PLDI 2009) reproduction — race detection tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tools", help="list the detectors").set_defaults(
        func=cmd_tools
    )
    sub.add_parser("workloads", help="list the workloads").set_defaults(
        func=cmd_workloads
    )

    record = sub.add_parser("record", help="generate a workload trace")
    record.add_argument("workload")
    record.add_argument("--scale", type=int, default=None)
    record.add_argument("--seed", type=int, default=0)
    record.add_argument("-o", "--output", default=None, help="- for stdout")
    record.add_argument("--format", choices=("text", "jsonl"), default="text")
    record.set_defaults(func=cmd_record)

    check = sub.add_parser("check", help="run a detector over a trace file")
    check.add_argument("trace")
    check.add_argument(
        "--tool",
        default="FastTrack",
        type=resolve_tool_name,
        choices=list(DETECTORS),
    )
    check.add_argument(
        "--all-tools", action="store_true", help="run every detector"
    )
    check.add_argument(
        "--oracle",
        action="store_true",
        help="also compute ground truth from the happens-before definition",
    )
    check.add_argument("--format", choices=("text", "jsonl"), default="text")
    check.add_argument(
        "--jobs",
        type=_parse_jobs,
        default=1,
        metavar="N",
        help="worker processes for the sharded engine (1 = in-process; "
        "'auto' = one per CPU)",
    )
    check.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="M",
        help="shard count for --jobs (default: 2 per worker)",
    )
    check.add_argument(
        "--resume",
        metavar="DIR",
        default=None,
        help="engine working directory; reuses finished shards on re-run",
    )
    check.add_argument(
        "--report",
        metavar="FILE",
        default=None,
        help="write a markdown (.md) or HTML (.html) race report",
    )
    check.add_argument(
        "--json",
        action="store_true",
        help="emit the canonical repro.result/1 JSON document instead of "
        "text (the same schema the repro serve daemon returns)",
    )
    check.add_argument(
        "--telemetry",
        metavar="DIR",
        default=None,
        help="write structured telemetry (spans.jsonl + metrics.json) to "
        "DIR; analysis output is unaffected",
    )
    check.add_argument(
        "--faults",
        metavar="PLAN.json",
        default=None,
        help="inject the deterministic fault plan (repro.faults/1) into "
        "this run — chaos testing; see docs/ROBUSTNESS.md",
    )
    check.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-shard watchdog deadline for the engine's workers; an "
        "overdue shard is killed and counted as a failed attempt",
    )
    check.add_argument("-v", "--verbose", action="store_true")
    check.set_defaults(func=cmd_check)

    predict = sub.add_parser(
        "predict",
        help="predictive race detection: WCP candidates vindicated "
        "against feasible reorderings (docs/PREDICT.md)",
    )
    predict.add_argument("trace")
    predict.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="N",
        help="max reordering distance (trace positions) a candidate may "
        "span; farther pairs are reported out-of-window unvindicated "
        "(default: unbounded)",
    )
    predict.add_argument("--format", choices=("text", "jsonl"), default="text")
    predict.add_argument(
        "--json",
        action="store_true",
        help="emit the repro.predict/1 JSON document",
    )
    predict.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="print each vindicated witness reordering",
    )
    predict.set_defaults(func=cmd_predict)

    profile = sub.add_parser(
        "profile",
        help="profile a trace: rule frequencies, stage timings, shard "
        "balance (a telemetry-enabled check)",
    )
    profile.add_argument(
        "trace", nargs="?", default=None,
        help="trace file to profile (omit with --from-telemetry)",
    )
    profile.add_argument(
        "--tool",
        default="FastTrack",
        type=resolve_tool_name,
        choices=list(DETECTORS),
    )
    profile.add_argument(
        "--from-telemetry",
        metavar="DIR",
        default=None,
        help="skip the run: stitch DIR's span files (spans.jsonl + every "
        "worker's spans-<pid>.jsonl) into per-trace trees with the "
        "critical path starred",
    )
    profile.add_argument(
        "--all-tools", action="store_true", help="profile every detector"
    )
    profile.add_argument(
        "--format", choices=("text", "jsonl"), default="text"
    )
    profile.add_argument(
        "--jobs",
        type=_parse_jobs,
        default=1,
        metavar="N",
        help="worker processes (1 = single-shard, counts bit-identical to "
        "a plain check; 'auto' = one per CPU)",
    )
    profile.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="M",
        help="shard count (default: 1 when --jobs 1, else 2 per worker)",
    )
    profile.add_argument(
        "--telemetry",
        metavar="DIR",
        default=None,
        help="keep the raw spans.jsonl + metrics.json in DIR instead of "
        "discarding them after the report",
    )
    profile.set_defaults(func=cmd_profile)

    watch = sub.add_parser(
        "watch",
        help="incrementally monitor a live trace stream, emitting "
        "repro.warning/1 JSON lines as races fire (docs/WATCH.md)",
    )
    watch.add_argument("trace", help="trace file to tail, or - for stdin")
    watch.add_argument(
        "--tool",
        default="FastTrack",
        type=resolve_tool_name,
        choices=list(DETECTORS),
    )
    watch.add_argument(
        "--format", choices=("text", "jsonl"), default="jsonl"
    )
    watch.add_argument(
        "--from-start",
        action="store_true",
        help="with --follow, analyze the file's existing contents before "
        "tailing (implied when --follow is absent)",
    )
    watch.add_argument(
        "--follow",
        action="store_true",
        help="keep tailing for new events after reaching end of file",
    )
    watch.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --follow, stop after this long with no new bytes "
        "(default: follow forever)",
    )
    watch.add_argument(
        "--poll-interval",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="how often --follow polls the file for growth",
    )
    watch.add_argument(
        "--compact-every",
        type=int,
        default=0,
        metavar="N",
        help="run warning-preserving shadow-state compaction every N "
        "events (0 = never); bounds memory on unbounded streams",
    )
    watch.add_argument(
        "--telemetry",
        metavar="DIR",
        default=None,
        help="write structured telemetry (spans.jsonl + metrics.json, "
        "including repro_watch_* metrics) to DIR",
    )
    watch.set_defaults(func=cmd_watch)

    serve = sub.add_parser(
        "serve", help="run the long-lived race-checking daemon"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8077)
    serve.add_argument(
        "--workers", type=int, default=2,
        help="concurrent job-runner threads (default 2)",
    )
    serve.add_argument(
        "--engine-jobs", type=int, default=1, metavar="N",
        help="size of the persistent shard-worker process pool shared by "
        "all jobs (1 = analyze in the runner thread)",
    )
    serve.add_argument(
        "--store", metavar="DIR", required=True,
        help="job/result store directory (jobs survive daemon restarts)",
    )
    serve.add_argument(
        "--queue-size", type=int, default=64,
        help="bounded job queue; submissions beyond it get HTTP 429",
    )
    serve.add_argument(
        "--ttl", type=float, default=3600.0, metavar="SECONDS",
        help="evict finished jobs from the store after this long",
    )
    serve.add_argument(
        "--telemetry",
        metavar="DIR",
        default=None,
        help="write structured telemetry (spans.jsonl + metrics.json) to "
        "DIR; job lifecycle spans are joined by job id",
    )
    serve.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per job attempt; a stuck job is killed "
        "(finished shards stay checkpointed) and requeued at most twice",
    )
    serve.add_argument(
        "--faults",
        metavar="PLAN.json",
        default=None,
        help="inject the deterministic fault plan (repro.faults/1) into "
        "the daemon — chaos testing; see docs/ROBUSTNESS.md",
    )
    serve.set_defaults(func=cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a trace file to a running daemon"
    )
    submit.add_argument("trace")
    submit.add_argument(
        "--tool",
        default="FastTrack",
        type=resolve_tool_name,
        choices=list(DETECTORS),
    )
    submit.add_argument(
        "--all-tools", action="store_true", help="run every detector"
    )
    submit.add_argument("--format", choices=("text", "jsonl"), default="text")
    submit.add_argument("--shards", type=int, default=None, metavar="M")
    submit.add_argument(
        "--wait", action="store_true",
        help="poll until the job finishes and print its result document "
        "(exit 1 when the selected tool warns, as repro check does)",
    )
    submit.add_argument(
        "--trace-id",
        default=None,
        metavar="ID",
        help="propagate this trace id (sent as X-Repro-Trace-Id) so the "
        "daemon's telemetry spans for the job join the caller's trace",
    )
    _add_service_endpoint_args(submit)
    submit.set_defaults(func=cmd_submit)

    status = sub.add_parser("status", help="show a daemon job's status")
    status.add_argument("job")
    _add_service_endpoint_args(status)
    status.set_defaults(func=cmd_status)

    top = sub.add_parser(
        "top",
        help="live ops view: poll a daemon's /debug snapshot, or "
        "summarize a local run's --telemetry dir",
    )
    top.add_argument(
        "--telemetry",
        metavar="DIR",
        default=None,
        help="local mode: stitch DIR's span files instead of polling a "
        "daemon",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print one frame and exit (the CI/scripting mode)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="seconds between frames when looping (default 2)",
    )
    _add_service_endpoint_args(top)
    top.set_defaults(func=cmd_top)

    result = sub.add_parser(
        "result", help="fetch a daemon job's result document"
    )
    result.add_argument("job")
    _add_service_endpoint_args(result)
    result.set_defaults(func=cmd_result)

    annotate = sub.add_parser(
        "annotate", help="print per-event vector clocks for a trace"
    )
    annotate.add_argument("trace")
    annotate.add_argument("--format", choices=("text", "jsonl"), default="text")
    annotate.set_defaults(func=cmd_annotate)

    classify = sub.add_parser(
        "classify", help="classify each variable's sharing pattern"
    )
    classify.add_argument("trace")
    classify.add_argument("--format", choices=("text", "jsonl"), default="text")
    classify.add_argument("-v", "--verbose", action="store_true")
    classify.set_defaults(func=cmd_classify)

    compose = sub.add_parser(
        "compose",
        help="run a RoadRunner-style tool chain, e.g. FastTrack:Velodrome",
    )
    compose.add_argument(
        "chain", help="colon-separated stages, filters then a checker"
    )
    compose.add_argument("trace")
    compose.add_argument("--format", choices=("text", "jsonl"), default="text")
    compose.set_defaults(func=cmd_compose)

    minimize = sub.add_parser(
        "minimize", help="shrink a racy trace to a small witness"
    )
    minimize.add_argument("trace")
    minimize.add_argument(
        "--var", default=None, help="minimize for this variable's race"
    )
    minimize.add_argument("-o", "--output", default=None, help="- for stdout")
    minimize.add_argument(
        "--format", choices=("text", "jsonl"), default="text"
    )
    minimize.set_defaults(func=cmd_minimize)

    bench = sub.add_parser("bench", help="regenerate the paper's tables")
    bench.add_argument(
        "experiments",
        nargs="*",
        help="table1 table2 table3 figure2 composition eclipse",
    )
    bench.add_argument("--scale", type=int, default=None)
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UnreadableTrace as unreadable:
        _print_read_error(*unreadable.args)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
