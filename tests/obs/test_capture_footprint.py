"""What a watched run remembers, per row.

An observed run keeps one row per captured TCP/IP frame and per
transmitted segment, and a stream monitor one row per arrival.  These
rows are packed int64s (:class:`~repro.obs.metrics.PackedRows`): 136
bytes a frame row, 120 a transmit row, 16 an arrival; the rare row that
is neither (an ARP or UDP frame, a retransmission) is kept as its JSONL
text.  These tests measure what a run retains under ``tracemalloc`` and
hold it to a ceiling between that and the tuple-per-row capture it
replaced.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.metrics.monitor import ClientStreamMonitor
from repro.scenarios.options import RunOptions
from repro.sim.world import World
from repro.workloads import WorkloadSpec, run_workload_failover

#: Ceilings, in bytes retained per row.  Packed, the two tests read ~143
#: and ~17; with one tuple per row they read ~313 and ~128.
MAX_BYTES_PER_CAPTURED_ROW = 160
MAX_BYTES_PER_ARRIVAL = 24


def _retained(build):
    """(bytes traced after ``build()`` returns, what it returned)."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = build()
        gc.collect()
        return tracemalloc.get_traced_memory()[0], kept
    finally:
        tracemalloc.stop()


def _golden_workload(obs_level: str):
    """The shape of the 6-connection golden scenario
    (tests/obs/test_golden_traces.py), without the oracle."""
    spec = WorkloadSpec(kind="stream", connections=6, bytes_per_conn=20_000,
                        mean_interarrival_s=0.01)
    return run_workload_failover(
        spec, num_clients=4, fault_at_s=0.5,
        options=RunOptions(seed=3, run_until_s=6, obs_level=obs_level))


def test_a_captured_row_costs_at_most_160_bytes():
    _golden_workload("frames")     # warm imports, caches and pools
    unwatched, _plain = _retained(lambda: _golden_workload("counters"))
    watched, result = _retained(lambda: _golden_workload("frames"))
    rows = len(result.obs.frames) + len(result.obs.tcp_rows)
    assert rows > 500
    per_row = (watched - unwatched) / rows
    assert per_row <= MAX_BYTES_PER_CAPTURED_ROW, (
        f"{per_row:.0f} B retained per captured row")


def test_an_arrival_costs_at_most_24_bytes():
    arrivals = 10_000

    def feed():
        world = World()
        monitor = ClientStreamMonitor(world)
        for i in range(arrivals):   # one MSS every 12 us, as on the wire
            world.sim.schedule_at(12_345 * (i + 1), monitor.on_bytes, 1460)
        world.run()
        return monitor

    empty, _monitor = _retained(lambda: ClientStreamMonitor(World()))
    fed, monitor = _retained(feed)
    assert monitor.last_byte_at == 12_345 * arrivals
    assert monitor.total_bytes == 1460 * arrivals
    per_arrival = (fed - empty) / arrivals
    assert per_arrival <= MAX_BYTES_PER_ARRIVAL, (
        f"{per_arrival:.1f} B retained per arrival")
