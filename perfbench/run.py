"""Cold-run benchmark of ``repro``: two workloads, timed from outside.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload eclipse-cold --seed 1 \
        --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics on untraced cold runs
(``python -m repro check`` processes, or a ``python -m repro serve``
daemon under a closed-loop load).  ``--trace 1`` adds a traced
in-process replay of the same work and reports per-layer metrics.
Human-readable gate and counter lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Metric names and units come from the
``BENCHMARK.json`` next to ``perfbench/``.

The benchmark writes only under ``.perfbench_work/`` in the checkout
and removes its run directory when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Trace sizes: the paper's heaviest workload (204,101 events at seed
#: 0), and the ~20k-event eclipse traces one service job analyzes.
ECLIPSE_SCALE = 8500
SERVICE_SCALE = 850

#: The eclipse-import trace the happens-before oracle checks: ~48k
#: events (0.3 s, 0.3 GB); at full scale the oracle needs 3.9 GB.
ORACLE_SCALE = 2000


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("eclipse-cold", "service-reuse"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _spec_metrics(trace: bool):
    """``{name: unit}`` of the metrics this mode must report."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, "r", encoding="utf-8") as stream:
        spec = json.load(stream)
    return {
        metric["name"]: metric["unit"]
        for metric in spec["per_layer" if trace else "end_to_end"]
    }


def _run(args, workdir: str):
    import workloads

    ctx = workloads.Context(
        root=ROOT, workdir=workdir, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace),
    )
    if args.workload == "service-reuse":
        return workloads.run_service(ctx, SERVICE_SCALE)
    return workloads.run_cli(ctx, ECLIPSE_SCALE, ORACLE_SCALE)


def main(argv=None) -> int:
    args = _parse_args(argv)
    source = os.path.join(ROOT, "src", "repro", "__init__.py")
    if not os.path.isfile(source):
        print(f"error: no repro sources at {os.path.dirname(source)}; run "
              "from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    units = _spec_metrics(bool(args.trace))
    workdir = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        outcome = _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, passed in sorted(outcome.gates.items()):
        print(f"gate {name}: {'ok' if passed else 'FAILED'}")
    for note in outcome.notes:
        print(note)
    print(f"failed_frac: {outcome.failed / max(1, outcome.attempted)} "
          f"({outcome.failed} of {outcome.attempted})")
    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
