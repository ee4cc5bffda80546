"""Fused WCP kernel: weak-causally-precedes over columnar shards.

The structure follows :mod:`repro.kernels.djit`: one monomorphic loop
over the int kind column, dense tid-indexed thread tables, dense shadow
slots, no per-event ``Event`` allocation outside of race reports.  WCP's
twist is that the *lock* rules are the interesting ones — acquire pushes
a critical-section record, release flushes per-variable history clocks —
and they are rare, so the kernel dispatches every sync kind (including
acquire/release) to the object-path handlers and fuses only the access
path: the per-critical-section access recording, the conflict joins
against the lock histories, and the BasicVC-style clock checks.  The
detector's ``held``/``write_hist``/``read_hist`` structures are shared
between both paths, which makes bit-identity of the shadow state the
default rather than something to re-derive.

Unlike the happens-before kernels, WCP's access path must also maintain
``read_at``/``write_at`` trace positions (the vindicator's candidate
pairs), so the original event index is computed for every access, not
just for warnings.

``vc_ops`` bulk charge: one per read and two per write (the object
path's flat access charges); conflict joins and release flushes are
charged where they happen — inline in the loop and inside the dispatched
release handler respectively.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.detector import fine_grain
from repro.kernels._slots import publish_vars, seed_shadows, slot_map
from repro.predict.wcp import WCPDetector, _WCPVarState
from repro.trace import events as ev

DETECTOR_CLS = WCPDetector


def run(
    detector: WCPDetector,
    col,
    indices: Optional[Sequence[int]] = None,
) -> WCPDetector:
    """Run WCP over columnar ``col`` (see :func:`repro.kernels.run_kernel`)."""
    if type(detector) is not WCPDetector:
        raise TypeError(
            f"fused WCP kernel requires a WCPDetector instance, "
            f"got {type(detector).__name__}"
        )
    tids = col.tids
    target_ids = col.target_ids
    site_ids = col.site_ids
    targets = col.targets
    sites = col.sites
    n = len(col.kinds)
    stats = detector.stats
    rules = stats.rules
    report = detector.report
    record_candidate = detector._record_candidate
    threads = detector.threads
    make_thread = detector.thread
    dispatch = detector._dispatch
    held_get = detector.held.get
    write_hist_get = detector.write_hist.get
    read_hist_get = detector.read_hist.get
    ident = detector.shadow_key is fine_grain
    if ident:
        slot_keys = targets
        acc_col = target_ids
    else:
        slots, slot_keys = slot_map(targets, detector.shadow_key)
        slot_list = list(slots)
        acc_col = [slot_list[t] for t in target_ids]
    shadows = seed_shadows(detector, slot_keys)
    created = []  # slot creation order, for publish_vars
    size = col.max_tid + 1
    if threads:
        size = max(size, max(threads) + 1)
    tlist = [None] * size
    for tid, t in threads.items():
        tlist[tid] = t
    VarState = _WCPVarState
    Event = ev.Event
    READ = ev.READ
    WRITE = ev.WRITE
    ENTER = ev.ENTER
    EXIT = ev.EXIT
    kb = col.kinds.tobytes()

    for i, kind, tid, acc in zip(range(n), kb, tids, acc_col):
        if kind == READ:
            t = tlist[tid]
            if t is None:
                t = make_thread(tid)
                tlist[tid] = t
            x = shadows[acc]
            if x is None:
                x = VarState()
                stats.vc_allocs += 2
                shadows[acc] = x
                created.append(acc)
            key = slot_keys[acc]
            stack = held_get(tid)
            if stack:
                vc = t.vc
                for cs in stack:
                    cs.reads[key] = None
                    hist = write_hist_get(cs.lock)
                    if hist is not None:
                        clock = hist.get(key)
                        if clock is not None:
                            vc.join(clock)
                            stats.vc_ops += 1
                            rules["WCP CONFLICT JOIN"] += 1
            idx = i if indices is None else indices[i]
            if not x.write_vc.leq(t.vc):
                site_id = site_ids[i]
                event = Event(
                    kind,
                    tid,
                    targets[acc if ident else target_ids[i]],
                    sites[site_id] if site_id >= 0 else None,
                )
                detector._index = idx
                record_candidate(event, key, "write-read", x, t)
                report(event, "write-read", f"write history {x.write_vc!r}")
            x.read_vc.set(tid, t.vc.clocks[tid])
            x.read_at[tid] = idx
        elif kind == WRITE:
            t = tlist[tid]
            if t is None:
                t = make_thread(tid)
                tlist[tid] = t
            x = shadows[acc]
            if x is None:
                x = VarState()
                stats.vc_allocs += 2
                shadows[acc] = x
                created.append(acc)
            key = slot_keys[acc]
            stack = held_get(tid)
            if stack:
                vc = t.vc
                for cs in stack:
                    cs.writes[key] = None
                    hist = write_hist_get(cs.lock)
                    if hist is not None:
                        clock = hist.get(key)
                        if clock is not None:
                            vc.join(clock)
                            stats.vc_ops += 1
                            rules["WCP CONFLICT JOIN"] += 1
                    hist = read_hist_get(cs.lock)
                    if hist is not None:
                        clock = hist.get(key)
                        if clock is not None:
                            vc.join(clock)
                            stats.vc_ops += 1
                            rules["WCP CONFLICT JOIN"] += 1
            idx = i if indices is None else indices[i]
            if not x.write_vc.leq(t.vc):
                site_id = site_ids[i]
                event = Event(
                    kind,
                    tid,
                    targets[acc if ident else target_ids[i]],
                    sites[site_id] if site_id >= 0 else None,
                )
                detector._index = idx
                record_candidate(event, key, "write-write", x, t)
                report(event, "write-write", f"write history {x.write_vc!r}")
            if not x.read_vc.leq(t.vc):
                site_id = site_ids[i]
                event = Event(
                    kind,
                    tid,
                    targets[acc if ident else target_ids[i]],
                    sites[site_id] if site_id >= 0 else None,
                )
                detector._index = idx
                record_candidate(event, key, "read-write", x, t)
                report(event, "read-write", f"read history {x.read_vc!r}")
            x.write_vc.set(tid, t.vc.clocks[tid])
            x.write_at[tid] = idx
        elif kind == ENTER or kind == EXIT:
            pass  # boundaries: no analysis, counted in bulk below
        else:
            # All sync kinds — including acquire/release, whose critical-
            # section bookkeeping lives on the detector — take the object
            # path; ``held``/``write_hist``/``read_hist`` stay shared.
            site_id = site_ids[i]
            tgt = acc if ident else target_ids[i]
            event = Event(
                kind,
                tid,
                targets[tgt],
                sites[site_id] if site_id >= 0 else None,
            )
            detector._index = i if indices is None else indices[i]
            dispatch[kind](event)
            for tid2, t2 in threads.items():
                if tid2 >= len(tlist):
                    tlist.extend([None] * (tid2 + 1 - len(tlist)))
                tlist[tid2] = t2

    if n:
        detector._index = (n - 1) if indices is None else indices[n - 1]
    reads = kb.count(READ)
    writes = kb.count(WRITE)
    boundaries = kb.count(ENTER) + kb.count(EXIT)
    stats.events += n
    stats.reads += reads
    stats.writes += writes
    stats.syncs += n - reads - writes - boundaries
    stats.boundaries += boundaries
    # One flat vc_op per read, two per write; conflict joins charged
    # inline above, release flushes inside the dispatched handler.
    stats.vc_ops += reads + 2 * writes
    publish_vars(detector, slot_keys, shadows, created)
    return detector
