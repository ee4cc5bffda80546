"""Fused per-detector analysis kernels over columnar traces.

The generic analysis path pays Python interpreter overhead on every
event: a slotted :class:`~repro.trace.events.Event` allocation, a
``Detector.handle`` call, a dict dispatch, and ``self.vars`` /
``self.threads`` lookups behind two method calls.  The paper's whole
point is that >96% of operations must stay O(1) (Section 3) — these
kernels make the *constant* of that O(1) as small as the host allows:

* one monomorphic loop per detector, branching on the int kind column of
  a :class:`~repro.trace.columnar.ColumnarTrace` instead of dict
  dispatch;
* every attribute the hot path touches hoisted into locals;
* dense shadow-slot lists indexed by interned target id instead of
  ``self.vars`` dict probes;
* the `[FT * SAME EPOCH]` / `[DJIT+ * SAME EPOCH]` fast paths inlined to
  a few array indexings and an int compare;
* event-kind tallies folded into the same scan, so the trace is walked
  exactly once (no trailing ``absorb_kind_counts`` pass).

Each kernel drives an ordinary detector instance and must produce
**bit-identical** warnings, :class:`~repro.core.detector.CostStats`, rule
counters, and shadow state to ``detector.process(trace)`` — the
differential suites (``tests/test_kernels.py``,
``tests/test_differential_fuzz.py``) enforce it, and docs/KERNELS.md
spells out the argument.  The tool decides the loop: the engine's
:func:`~repro.engine.worker.analyze_columns` runs a tool's kernel when
:func:`has_kernel` says it has one, and the object path otherwise (Empty,
Eraser, MultiRace, Goldilocks, BasicVC, WCP, AsyncFinish) or after a
kernel fault.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro import faults
from repro.core.detector import Detector
from repro.detectors.registry import make_detector
from repro.kernels import djit, fasttrack

#: Tool name → fused kernel entry point ``run(detector, col, indices)``.
#: A tool gets a kernel only where one pays end to end: FastTrack (the
#: paper's detector) and DJIT+, which the cold-run benchmark's service
#: workload runs on every trace.
KERNELS = {
    "FastTrack": fasttrack.run,
    "DJIT+": djit.run,
}

#: The kernel-equipped tools, in registry order.
KERNEL_TOOLS = tuple(KERNELS)

__all__ = ["KERNELS", "KERNEL_TOOLS", "has_kernel", "run_kernel"]


def has_kernel(tool: str) -> bool:
    """True when ``tool`` has a fused columnar kernel."""
    return tool in KERNELS


def run_kernel(
    tool: str,
    col,
    tool_kwargs: Optional[Dict] = None,
    indices: Optional[Sequence[int]] = None,
    detector: Optional[Detector] = None,
) -> Detector:
    """Analyze columnar trace ``col`` with ``tool``'s fused kernel.

    Returns the driven detector — warnings, stats, and shadow state are
    exactly what ``make_detector(tool, **tool_kwargs).process(...)`` over
    the same events would produce.  ``indices`` maps loop positions to
    original trace indices for shard replays.  A pre-built ``detector``
    may be supplied instead of ``tool_kwargs`` (it must be the exact
    class the kernel was written against, or the kernel raises
    ``TypeError``).
    """
    try:
        kernel = KERNELS[tool]
    except KeyError:
        known = ", ".join(KERNELS)
        raise ValueError(
            f"no fused kernel for {tool!r}; kernel-equipped tools: {known}"
        )
    if faults.active():
        faults.fire("kernel.run", tool=tool)
    if detector is None:
        detector = make_detector(tool, **(tool_kwargs or {}))
    return kernel(detector, col, indices)
