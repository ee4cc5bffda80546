"""The two workloads: set-up, the measured runs, and their metrics.

Every workload returns an :class:`Outcome`: how many runs or jobs were
attempted, how many failed a correctness gate, whether every set-up gate
held, and a metric dict holding the end-to-end metrics (``--trace 0``)
or the per-layer ones (``--trace 1``).  Layers a workload bypasses
report 0.

In a traced run the in-process replays take turns with the cold runs
(or with stretches of the daemon's load), so both see the same state of
the machine, and the run fails its ``layers_add_up_to_wall`` gate when
the layer rows miss the cold wall time by more than the cold runs' own
interquartile range.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import pickle
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import cold
import inputs
import replay
import service_load
from spans import NullTracer, Tracer, counts, layer_seconds

#: Layer span names, in the order a trace passes through them.
LAYERS = (
    "trace.serialize",
    "trace.feasibility",
    "trace.columnar",
    "detectors.classifier",
    "engine.partition",
    "engine.transport",
    "engine.worker",
    "kernels",
    "engine.merge",
    "report",
)

#: The tool of the CLI workload (``repro check``'s default).
TOOL = "FastTrack"

#: Cold ``repro tools`` runs whose median is the CLI workload's
#: ``setup_s``.
SETUP_REPEATS = 11

#: Cold checks a run makes at least, however long they take.
MIN_COLD_RUNS = 3

#: Rounds of (load, untraced replay, traced replay) in a traced service
#: run; the per-layer figures are their medians.
REPLAYS = 3

#: Daemon spawns whose median is the service workload's ``setup_s``.
DAEMON_SETUPS = 11

#: Base traces of the service workload (each submitted many times under
#: fresh bytes), and the jobs a run goes on for past its measuring time
#: (within ``service_load.OVERRUN``) so that ten lie beyond p90.
SERVICE_BASES = 6
SERVICE_MIN_JOBS = 111


@dataclass
class Context:
    root: str
    workdir: str
    seed: int
    seconds: float
    trace: bool

    @property
    def env(self) -> Dict[str, str]:
        return cold.repro_env(self.root, self.workdir)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    gates: Dict[str, bool] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.gates.values())


def p90(values: List[float]) -> float:
    """The 90th percentile, by the Harrell-Davis estimator: every order
    statistic weighted by the Beta((n+1)0.9, (n+1)0.1) mass over its
    rank interval.  A CLI run holds only about a dozen cold checks, and
    there the usual estimator, which rests on the two slowest of them,
    spreads more from run to run."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = 0.9 * (n + 1), 0.1 * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = [0.0] * n
    steps = 4000  # midpoint rule; ample for a few hundred values
    for step in range(steps):
        u = (step + 0.5) / steps
        weights[int(u * n)] += math.exp(
            log_norm + (a - 1) * math.log(u) + (b - 1) * math.log1p(-u)
        )
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def iqr(values: List[float]) -> float:
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] - quartiles[0]


def _medians(samples: List[Dict[str, float]]) -> Dict[str, float]:
    return {
        key: statistics.median(sample[key] for sample in samples)
        for key in samples[0]
    }


def _counter_metrics(documents: List[Dict]) -> Dict[str, float]:
    """FastTrack's paper counters, summed over ``documents``."""
    counters = inputs.paper_counters(documents)
    metrics = {
        "kernels.vc_ops": counters["vc_ops"],
        "kernels.vc_allocs": counters["vc_allocs"],
        "kernels.fast_path_frac": counters["fast_path_frac"],
    }
    for name, value in counters.items():
        if name.startswith("rules."):
            metrics[name] = value
    return metrics


def _layer_key(name: str) -> str:
    """The seconds metric of layer ``name``."""
    if name == "engine.transport":
        return "engine.transport.attach_s"
    return name + ".s"


def _layer_metrics(spans: List[Dict], per: float = 1.0) -> Dict[str, float]:
    """Per-layer self seconds (divided by ``per``), every other per-layer
    metric at 0, and the throughputs of the parse and kernel spans."""
    metrics = {
        name: 0.0 for name in (
            "trace.serialize.events_per_s", "kernels.events_per_s",
            "engine.partition.shard_bytes",
            "service.submit_s", "service.queue_wait_s", "service.result_s",
            "service.run_fresh_s", "service.run_reused_s",
            "service.partition_reuse_frac",
        )
    }
    seconds = layer_seconds(spans)
    for name in LAYERS:
        metrics[_layer_key(name)] = seconds.get(name, 0.0) / per
    for name in ("trace.serialize", "kernels"):
        if seconds.get(name):
            metrics[name + ".events_per_s"] = (
                counts(spans, name) / seconds[name]
            )
    return metrics


def _reconcile(metrics: Dict[str, float], wall: float, tolerance: float,
               startup: float, charged: Tuple[str, ...]) -> bool:
    """Record ``wall`` and the residual that makes the layer rows plus
    the ``charged`` rows add up to it; True when the residual is within
    ``tolerance`` (the spread of the cold runs themselves)."""
    metrics["cold_wall_s"] = wall
    metrics["startup_s"] = startup
    layered = sum(metrics[_layer_key(name)] for name in LAYERS)
    metrics["unattributed_s"] = wall - layered - sum(
        metrics[name] for name in charged
    )
    return abs(metrics["unattributed_s"]) <= tolerance


def _timed(function: Callable[[], object]) -> float:
    started = time.perf_counter()
    function()
    return time.perf_counter() - started


# -- the CLI workload ---------------------------------------------------------


def _prepare_cli(scale: int, oracle_scale: int, seed: int,
                 workdir: str) -> Dict:
    """Write the input trace and compute its reference and set-up gate.

    Runs in a child process, so the benchmark process stays small: a
    forked child's peak RSS starts at its parent's.
    """
    trace = inputs.eclipse_trace(scale, seed)
    # Theorem 1: FastTrack warns on exactly the variables the
    # happens-before oracle finds racy.  The oracle runs on a smaller
    # trace of the same program and seed: its memory grows faster than
    # linearly (3.9 GB at 204k events).
    small = inputs.eclipse_trace(oracle_scale, seed)
    warned = inputs.warned_variables(
        json.loads(inputs.single_reference(small, TOOL))
    )
    return {
        "path": inputs.write_trace(
            trace, os.path.join(workdir, "input.trace")
        ),
        "events": len(trace),
        "reference": inputs.single_reference(trace, TOOL),
        "gates": {
            "fasttrack_equals_oracle": (
                warned == inputs.oracle_variables(small)
            ),
        },
    }


#: The child of :func:`in_child`: argv is this directory, the pickled
#: ``(module, function, args)`` and the path its pickled result goes to.
_CHILD = (
    "import pickle, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "with open(sys.argv[2], 'rb') as stream:\n"
    "    module, name, args = pickle.load(stream)\n"
    "result = getattr(__import__(module), name)(*args)\n"
    "with open(sys.argv[3], 'wb') as stream:\n"
    "    pickle.dump(result, stream)\n"
)


def in_child(ctx: Context, function: Callable, *args):
    """Run ``function(*args)`` in a fresh interpreter and return its
    result.  A plain subprocess, waited for: a ``multiprocessing`` pool
    would leave its resource tracker process running after this one
    ends."""
    request = os.path.join(ctx.workdir, "child.request")
    response = os.path.join(ctx.workdir, "child.response")
    with open(request, "wb") as stream:
        pickle.dump((function.__module__, function.__name__, args), stream)
    subprocess.run(
        [sys.executable, "-c", _CHILD, os.path.dirname(__file__), request,
         response],
        env=ctx.env, check=True,
    )
    with open(response, "rb") as stream:
        return pickle.load(stream)


def _cold_runs(ctx: Context, args: List[str], reference: bytes,
               expected_rc: int, out: Outcome,
               after: Optional[Callable[[], None]]) -> List[cold.ColdRun]:
    """Cold checks until ``ctx.seconds`` have passed and at least
    :data:`MIN_COLD_RUNS` were made, calling ``after()`` after each.
    One discarded check first writes the bytecode caches of the modules
    ``repro tools`` does not import."""
    cold.run_repro(args, ctx.env, ctx.workdir)
    runs = []
    started = time.perf_counter()
    while (len(runs) < MIN_COLD_RUNS
           or time.perf_counter() - started < ctx.seconds):
        run = cold.run_repro(args, ctx.env, ctx.workdir)
        runs.append(run)
        out.attempted += 1
        if run.returncode != expected_rc or run.stdout != reference:
            out.failed += 1
        if after is not None:
            after()
    return runs


def run_cli(ctx: Context, scale: int, oracle_scale: int) -> Outcome:
    """``repro check TRACE --json`` on the eclipse-import trace."""
    out = Outcome()
    prepared = in_child(ctx, _prepare_cli, scale, oracle_scale, ctx.seed,
                        ctx.workdir)
    out.gates.update(prepared["gates"])
    path, events = prepared["path"], prepared["events"]
    reference = prepared["reference"]
    document = json.loads(reference)
    setup = cold.import_tax(ctx.env, ctx.workdir, SETUP_REPEATS)
    untraced, traced, samples, outputs = [], [], [], set()

    def replay_pair() -> None:
        untraced.append(_timed(
            lambda: replay.replay_single(NullTracer(), path, TOOL)
        ))
        tracer = Tracer()
        started = time.perf_counter()
        outputs.add(replay.replay_single(tracer, path, TOOL))
        traced.append(time.perf_counter() - started)
        samples.append(_layer_metrics(tracer.spans))

    runs = _cold_runs(
        ctx, ["check", path, "--json"], reference,
        1 if document["warning_count"] else 0, out,
        replay_pair if ctx.trace else None,
    )
    out.notes.append(
        "paper counters: " + json.dumps(inputs.paper_counters([document]))
    )
    walls = [run.wall_s for run in runs]
    out.notes.append("cold runs (wall s, cpu s): " + json.dumps(
        [[round(run.wall_s, 4), round(run.cpu_s, 4)] for run in runs]
    ))
    if not ctx.trace:
        out.metrics = {
            "events_per_s": events / statistics.median(walls),
            "cpu_s": statistics.median(run.cpu_s for run in runs),
            "peak_rss_mb": max(run.peak_rss_mb for run in runs),
            "job_p50_s": statistics.median(walls),
            "job_p90_s": p90(walls),
            "jobs_per_s": len(runs) / sum(walls),
            "setup_s": setup,
        }
        return out
    out.gates["traced_replay_equals_cold"] = outputs == {
        run.stdout for run in runs
    }
    metrics = _medians(samples)
    metrics.update(_counter_metrics([document]))
    out.gates["layers_add_up_to_wall"] = _reconcile(
        metrics, statistics.median(walls), iqr(walls), setup, ("startup_s",)
    )
    out.notes.append(
        f"unattributed_s {metrics['unattributed_s']:.4f} against the cold "
        f"walls' IQR {iqr(walls):.4f}"
    )
    metrics["tracing_overhead_s"] = statistics.median(
        after - before for after, before in zip(traced, untraced)
    )
    out.metrics = metrics
    return out


# -- the service workload -----------------------------------------------------


def _service_base(ctx: Context, scale: int, index: int, out: Outcome) -> Dict:
    """One base trace: its file, text, size, references and gates."""
    trace = inputs.eclipse_trace(scale, ctx.seed * 1000 + index)
    path = inputs.write_trace(
        trace, os.path.join(ctx.workdir, f"base-{index}.trace")
    )
    references = inputs.engine_reference(
        trace, list(service_load.TOOLS),
        os.path.join(ctx.workdir, f"reference-{index}"),
    )
    fasttrack = json.loads(references["FastTrack"])
    unsharded = json.loads(inputs.single_reference(trace, "FastTrack"))
    out.gates[f"served_equals_unsharded_warnings[{index}]"] = (
        fasttrack["warnings"] == unsharded["warnings"]
    )
    out.gates[f"fasttrack_equals_oracle[{index}]"] = (
        inputs.warned_variables(fasttrack) == inputs.oracle_variables(trace)
    )
    with open(path, "r", encoding="utf-8") as stream:
        text = stream.read()
    return {
        "text": text, "path": path, "events": len(trace),
        "references": references,
    }


def _replay_round(ctx: Context, bases: List[Dict]) -> Dict:
    """An untraced and a traced replay of every base's job sequence."""
    scratch = replay.scratch_dir(ctx.workdir, "replay")
    paths = [base["path"] for base in bases]
    tools = list(service_load.TOOLS)

    def replay_all(tracer: Tracer):
        return replay.replay_service(
            tracer, paths, tools, scratch, service_load.WORKERS
        )

    untraced = _timed(lambda: replay_all(NullTracer()))
    tracer = Tracer()
    started = time.perf_counter()
    replayed = replay_all(tracer)
    return {
        "untraced": untraced,
        "traced": time.perf_counter() - started,
        "replayed": replayed,
        "spans": tracer.spans,
    }


def run_service(ctx: Context, scale: int) -> Outcome:
    out = Outcome()
    bases = [
        _service_base(ctx, scale, index, out)
        for index in range(SERVICE_BASES)
    ]

    def make_trace(number: int):
        # Fresh bytes for the daemon (a new content digest, so a new
        # partition), the same events as base ``number % SERVICE_BASES``.
        index = number % SERVICE_BASES
        path = os.path.join(ctx.workdir, f"fresh-{number}.trace")
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(f"# fresh trace {number} of base {index}\n")
            stream.write(bases[index]["text"])
        return index, path

    numbers = itertools.count()
    setups, loads, rounds = [], [], []
    daemon = None
    try:
        for attempt in range(DAEMON_SETUPS):
            if daemon is not None:
                daemon.stop()
            daemon = service_load.Daemon(
                ctx.env, ctx.workdir, f"store-{attempt}"
            )
            setups.append(daemon.start())
        cpu_before = daemon.cpu_seconds()
        if ctx.trace:
            for _ in range(REPLAYS):
                loads.append(service_load.closed_loop(
                    daemon.client, make_trace, numbers,
                    ctx.seconds / REPLAYS, 0,
                ))
                rounds.append(_replay_round(ctx, bases))
        else:
            loads.append(service_load.closed_loop(
                daemon.client, make_trace, numbers, ctx.seconds,
                SERVICE_MIN_JOBS,
            ))
        cpu = daemon.cpu_seconds() - cpu_before
        peak_rss = daemon.peak_rss_mb()
        partitions = service_load.partition_counts(daemon.client.metrics())
    finally:
        if daemon is not None:
            daemon.stop()
    errors = [error for load in loads for error in load.errors]
    jobs = [job for load in loads for job in load.jobs]
    wall = sum(load.wall_s for load in loads)
    out.notes.extend("load error: " + error for error in errors)
    out.gates["load_errors"] = not errors
    for job in jobs:
        out.attempted += 1
        if not job.ok or job.body != bases[job.base]["references"][job.tool]:
            out.failed += 1
    fresh = sum(job.fresh for job in jobs)
    out.gates["partitions_created_1_to_2_reused"] = (
        partitions.get("created") == fresh
        and partitions.get("reused") == 2 * fresh
    )
    out.notes.append(
        f"repro_partitions_total: {partitions}; fresh jobs {fresh}"
    )
    for tool in service_load.TOOLS:
        counters = inputs.paper_counters(
            [json.loads(base["references"][tool]) for base in bases]
        )
        out.notes.append(f"paper counters {tool}: " + json.dumps(counters))
    latencies = [job.latency_s for job in jobs]
    out.notes.append(
        f"load: {len(jobs)} jobs in {wall:.3f} s, daemon cpu {cpu:.3f} s; "
        "latencies (s): " + json.dumps([round(x, 4) for x in latencies])
    )
    if not ctx.trace:
        out.gates["min_jobs_reached"] = len(jobs) >= SERVICE_MIN_JOBS
        out.metrics = {
            "events_per_s": sum(
                bases[job.base]["events"] for job in jobs
            ) / wall,
            "cpu_s": cpu / len(jobs),
            "peak_rss_mb": peak_rss,
            "job_p50_s": statistics.median(latencies),
            "job_p90_s": p90(latencies),
            "jobs_per_s": len(jobs) / wall,
            "setup_s": statistics.median(setups),
        }
        return out
    out.metrics = _service_layers(bases, jobs, partitions, setups, rounds,
                                  out)
    return out


def _service_layers(bases, jobs, partitions, setups, rounds, out):
    """Per-layer metrics of the service workload, as means per job.

    The daemon's layers come from replaying every base trace's job
    sequence in-process, two sequences at a time as the daemon runs two
    jobs; the client-side ones from the load's jobs.  A job's latency is
    submit + queue wait + the daemon's layers + fetching the result; the
    residual is mostly polling granularity.  The daemon's start-up is
    paid once, not per job, so it is reported but not charged."""
    tools = service_load.TOOLS
    replayed_jobs = len(bases) * len(tools)
    out.gates["traced_replay_equals_served"] = all(
        body == bases[index]["references"][tool]
        for one in rounds
        for index, (results, _) in enumerate(one["replayed"])
        for tool, body in results.items()
    )
    samples = []
    for one in rounds:
        sample = _layer_metrics(one["spans"], per=replayed_jobs)
        sample["engine.partition.shard_bytes"] = statistics.mean(
            sum(meta["shard_bytes"]) for _, meta in one["replayed"]
        )
        samples.append(sample)
    metrics = _medians(samples)

    def mean(values):
        return statistics.mean(values) if values else 0.0

    created = partitions.get("created", 0.0)
    reused = partitions.get("reused", 0.0)
    metrics.update({
        "service.submit_s": mean([job.submit_s for job in jobs]),
        "service.queue_wait_s": mean([job.queue_wait_s for job in jobs]),
        "service.result_s": mean([job.result_s for job in jobs]),
        "service.run_fresh_s": mean([job.run_s for job in jobs if job.fresh]),
        "service.run_reused_s": mean(
            [job.run_s for job in jobs if not job.fresh]
        ),
        "service.partition_reuse_frac": reused / max(1.0, reused + created),
    })
    metrics.update(_counter_metrics(
        [json.loads(base["references"]["FastTrack"]) for base in bases]
    ))
    latencies = [job.latency_s for job in jobs]
    out.gates["layers_add_up_to_wall"] = _reconcile(
        metrics, mean(latencies), iqr(latencies), statistics.median(setups),
        ("service.submit_s", "service.queue_wait_s", "service.result_s"),
    )
    out.notes.append(
        f"unattributed_s {metrics['unattributed_s']:.4f} against the job "
        f"latencies' IQR {iqr(latencies):.4f}"
    )
    metrics["tracing_overhead_s"] = statistics.median(
        one["traced"] - one["untraced"] for one in rounds
    ) / replayed_jobs
    return metrics
