"""The Section 1/3 insight, measured: how data is shared.

"The vast majority of data in multithreaded programs is either thread
local, lock protected, or read shared" — the empirical premise behind
FastTrack's adaptive representation (epochs suffice exactly when accesses
are totally ordered).  This benchmark classifies every variable of every
workload and asserts the premise, and times the classifier itself (one
bookkeeping pass plus the fused FastTrack kernel for the ``racy`` class).
"""

import pytest

from repro.bench.harness import TABLE1_ORDER
from repro.bench.workload import WORKLOADS
from repro.detectors.classifier import (
    LOCK_PROTECTED,
    RACY,
    READ_SHARED,
    THREAD_LOCAL,
    SharingClassifier,
)

BENCH_SCALE = 400


@pytest.mark.parametrize("workload_name", TABLE1_ORDER)
def test_classification_cell(benchmark, workload_name):
    trace = WORKLOADS[workload_name].trace(scale=BENCH_SCALE)

    def run():
        tool = SharingClassifier().process(trace)
        tool.racy_keys()  # the FastTrack verdict is part of the cost
        return tool

    tool = benchmark.pedantic(run, rounds=1, iterations=1)
    fractions = tool.fractions()
    for cls, fraction in fractions.items():
        benchmark.extra_info[cls] = round(fraction, 4)
    # Racy accesses are a small minority everywhere; tsp's per-step bound
    # read is the worst case (~7%), exactly the benign idiom the paper
    # describes.
    assert fractions[RACY] < 0.12, workload_name


def test_insight_report(benchmark):
    def run():
        rows = {}
        for name in TABLE1_ORDER:
            trace = WORKLOADS[name].trace(scale=BENCH_SCALE)
            rows[name] = SharingClassifier().process(trace).fractions()
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("sharing classification (fraction of accesses)")
    header = (
        f"{'workload':<12s}{'thread-local':>14s}{'lock-prot.':>12s}"
        f"{'read-shared':>13s}{'synchronized':>14s}{'racy':>8s}"
    )
    print(header)
    print("-" * len(header))
    total_common = 0.0
    for name, fractions in rows.items():
        print(
            f"{name:<12s}{fractions[THREAD_LOCAL]:>14.1%}"
            f"{fractions[LOCK_PROTECTED]:>12.1%}"
            f"{fractions[READ_SHARED]:>13.1%}"
            f"{fractions['synchronized']:>14.1%}{fractions[RACY]:>8.1%}"
        )
        total_common += (
            fractions[THREAD_LOCAL]
            + fractions[LOCK_PROTECTED]
            + fractions[READ_SHARED]
        )
    average_common = total_common / len(rows)
    print(f"\naverage thread-local + lock-protected + read-shared: "
          f"{average_common:.1%}")
    # The paper's premise: the three epoch-friendly classes dominate.
    assert average_common > 0.85