"""Interpreter-GC orchestration for the event loop.

The wire path's per-event garbage — frames, packets, segments, event
tuples — holds no reference cycles and dies by refcount alone, with the
recycle pools of :mod:`repro.net.pool` or without them (collector counts
are identical either way: docs/performance.md, "Ablation ledger: the
recycle pools"); what remains interesting for CPython's *cyclic*
collector is the testbed object graph itself — hosts, NICs, cables,
connections — which stays alive for the whole run.
Letting the generational collector fire on its own allocation thresholds
therefore buys nothing and costs unpredictable pauses in the middle of
the hot loop, each one scanning the very graph that never dies.

This module puts the collector under simulator control:

* :func:`freeze_baseline` — collect once, then ``gc.freeze()`` the
  survivors into the permanent generation.  Call it when a freshly built
  (or thawed) object graph will live for the rest of the process — the
  benchmark testbed, a campaign worker's import graph.  Frozen objects
  are exempt from every later collection, so safe-point collects stay
  cheap no matter how large the testbed is.  Do **not** freeze graphs
  that die before the process does (per-trial testbeds): permanent-
  generation cycles are never reclaimed.
* :func:`quiesce` — context manager wrapping event-loop drives
  (:meth:`repro.sim.world.World.run` uses it): cyclic collection is
  disabled for the duration, and a *bounded* young-generation collect
  runs at the exit safe point once enough allocations are pending.
  Re-entrant; the pre-existing enabled state is restored on exit.
* :func:`collect_full` — an explicit, counted full collection for
  coarse boundaries (campaign trial batches).
* :func:`stats` — collector counters plus the recycle-pool depths, for
  :mod:`repro.obs` exports and the benchmark's churn report.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

__all__ = ["freeze_baseline", "thaw_baseline", "quiesce", "collect_full",
           "stats", "YOUNG_COLLECT_THRESHOLD"]

#: Exit-safe-point cadence: when an event-loop drive hands control back
#: and at least this many container allocations are pending in the young
#: generation, a bounded gen-0/1 collect runs.  Generation 2 — and with
#: it the frozen baseline graph — is never scanned at a safe point.
YOUNG_COLLECT_THRESHOLD = 2_000

_frozen_baseline = 0
_manual_collects = 0
_safe_point_collects = 0
_depth = 0
_was_enabled = True


def freeze_baseline() -> int:
    """Collect, then move every surviving object to the permanent
    generation.  Returns the total frozen count."""
    global _frozen_baseline, _manual_collects
    gc.collect()
    _manual_collects += 1
    gc.freeze()
    _frozen_baseline = gc.get_freeze_count()
    return _frozen_baseline


def thaw_baseline() -> int:
    """Undo :func:`freeze_baseline`: move the permanent generation back
    into the oldest generation and collect.  Returns the number of
    objects reclaimed.

    For harnesses that build several "process-lifetime" graphs in one
    process — the benchmark's best-of-N repeats each freeze a fresh
    testbed — thawing between graphs keeps dead frozen testbeds from
    accumulating (a frozen cycle is otherwise never reclaimed).
    """
    global _frozen_baseline, _manual_collects
    gc.unfreeze()
    reclaimed = gc.collect()
    _manual_collects += 1
    _frozen_baseline = gc.get_freeze_count()
    return reclaimed


@contextmanager
def quiesce():
    """Suspend cyclic collection around an event-loop drive.

    Nested drives (a scenario stepping the world in a loop) share one
    suspension; the bounded safe-point collect and the state restore
    happen when the outermost drive exits.
    """
    global _depth, _was_enabled, _safe_point_collects
    _depth += 1
    if _depth == 1:
        _was_enabled = gc.isenabled()
        if _was_enabled:
            gc.disable()
    try:
        yield
    finally:
        _depth -= 1
        if _depth == 0:
            if gc.get_count()[0] >= YOUNG_COLLECT_THRESHOLD:
                gc.collect(1)
                _safe_point_collects += 1
            if _was_enabled:
                gc.enable()


def collect_full() -> int:
    """An explicit full collection, counted in :func:`stats`."""
    global _manual_collects
    _manual_collects += 1
    return gc.collect()


def stats() -> dict:
    """Collector counters + recycle-pool depths (one flat record)."""
    from repro.net import pool  # lazy: repro.net imports repro.sim

    per_gen = gc.get_stats()
    return {
        "enabled": gc.isenabled(),
        "counts": list(gc.get_count()),
        "frozen": gc.get_freeze_count(),
        "frozen_baseline": _frozen_baseline,
        "manual_collects": _manual_collects,
        "safe_point_collects": _safe_point_collects,
        "collections": [g.get("collections", 0) for g in per_gen],
        "collected": [g.get("collected", 0) for g in per_gen],
        "pools": pool.stats(),
    }
