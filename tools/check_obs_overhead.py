#!/usr/bin/env python
"""Fail when watching a run costs more than it should.

Runs the 32-client fleet shape (the repo benchmark's ``fleet_32c``: 32
streams of 500 kB on the broadcast fabric, primary crashed at 1 s) at
every rung of the observation ladder — plain, oracle only, each
``obs_level``, and ``frames`` + oracle, which is what ``--obs-out`` with
``--check`` and the ``fleet_32c_observed`` workload run — round-robin in
one process, three rounds, and keeps the minimum of each rung.

The gate is the ratio ``frames+check / plain``.  Both sides are measured
in the same process within seconds of each other, so a slow or noisy
runner moves them together and cannot trip it; only per-fire work in
``repro.obs`` / ``repro.check`` can.  The ladder is printed either way
(docs/performance.md, "The cost of watching a run", keeps the record).
After the ladder, one untimed pass of the ``frames`` and ``frames+check``
rungs under ``tracemalloc`` prints what each run still holds when it
returns, and then what ``ObsSession.write()`` peaks at while the
``frames+check`` run exports (docs/performance.md, "What a watched run
remembers").  Those readings are information, not a second gate.

Run from the repo root: ``python tools/check_obs_overhead.py``.
Exit code 0 = within the ceiling, 1 = over it.
"""

from __future__ import annotations

import gc
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.net import pool  # noqa: E402
from repro.scenarios import RunOptions  # noqa: E402
from repro.workloads import WorkloadSpec, run_workload_failover  # noqa: E402

#: ``frames+check / plain`` must stay at or under this.  2.6 before the
#: compiled dispatch and capture-now/decode-at-export rows, about 1.7
#: after, and 2.2 was set as that plus 0.5 for interpreter versions.  By
#: the time the four per-packet counter probes went and the segment probe
#: handed over its connection, the same 2-vCPU box read 1.82-1.85 before
#: that change and 1.69-1.75 after (docs/performance.md, "A watched packet
#: is counted once"); the ceiling came down by what the change bought, so
#: the headroom is the 0.35-0.38 the gate already ran with.
CEILING = 2.1

ROUNDS = 3

#: The rungs whose retained memory is read after the ladder.
RETAINED = ("frames", "frames+check")

LADDER = (
    ("plain", {}),
    ("check", {"check": True}),
    ("counters", {"obs_level": "counters"}),
    ("timeline", {"obs_level": "timeline"}),
    ("frames", {"obs_level": "frames"}),
    ("frames+check", {"obs_level": "frames", "check": True}),
)


def fleet_run(options: dict):
    """One fleet run with ``options`` switched on; returns its result."""
    spec = WorkloadSpec(kind="stream", connections=32,
                        bytes_per_conn=500_000, mean_interarrival_s=0.02)
    result = run_workload_failover(
        spec, num_clients=32, fault_at_s=1.0, egress_filtering=False,
        options=RunOptions(seed=1, run_until_s=45.0, **options))
    if not result.all_intact:
        raise RuntimeError(f"fleet run with {options} lost a stream")
    return result


def run_once(options: dict) -> float:
    """Host seconds of one fleet run with ``options`` switched on."""
    pool.clear()
    gc.collect()
    start = time.perf_counter()
    result = fleet_run(options)  # noqa: F841 - freed after the clock stops
    return time.perf_counter() - start


def retained_mb(options: dict) -> tuple:
    """(MB ``tracemalloc`` still traces when a fleet run returns, with its
    result (testbed, observation session, oracle) alive; the result)."""
    pool.clear()
    gc.collect()
    tracemalloc.start()
    try:
        result = fleet_run(options)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] / 1e6, result
    finally:
        tracemalloc.stop()


def write_peak_mb(result) -> float:
    """MB ``tracemalloc`` peaks at while the run's observation session
    writes its exports (to a temporary directory, removed afterwards)."""
    with tempfile.TemporaryDirectory() as out_dir:
        gc.collect()
        tracemalloc.start()
        try:
            result.obs.write(out_dir)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()


def main() -> int:
    run_once({})  # imports, caches and lazy set-up are not on the ladder
    best = {name: float("inf") for name, _options in LADDER}
    for _round in range(ROUNDS):
        for name, options in LADDER:
            best[name] = min(best[name], run_once(options))
    plain = best["plain"]
    print(f"the cost of watching a run (32-client fleet, minimum of "
          f"{ROUNDS} round-robin runs)")
    print(f"  {'rung':14s} {'wall_s':>8s} {'/ plain':>8s}")
    for name, _options in LADDER:
        print(f"  {name:14s} {best[name]:8.3f} {best[name] / plain:8.2f}")
    ratio = best["frames+check"] / plain
    verdict = "ok" if ratio <= CEILING else "OVER"
    print(f"frames+check / plain = {ratio:.2f} (ceiling {CEILING}): {verdict}")
    options = dict(LADDER)
    print("retained when the run returns (tracemalloc, one untimed pass; "
          "not gated)")
    for name in RETAINED:
        mb, result = retained_mb(options[name])
        print(f"  {name:14s} {mb:8.1f} MB")
    print(f"{RETAINED[-1]} write() peak (tracemalloc, same pass; not gated)"
          f" {write_peak_mb(result):.1f} MB")
    return 0 if ratio <= CEILING else 1


if __name__ == "__main__":
    sys.exit(main())
