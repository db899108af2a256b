"""What a watched run remembers, per row.

An observed run keeps one row per captured TCP/IP frame and per
transmitted segment, and a stream monitor one row per arrival.  These
rows are packed int64s (:class:`~repro.obs.metrics.PackedRows`): 136
bytes a frame row, 120 a transmit row, 16 an arrival; the rare row that
is neither (an ARP or UDP frame, a retransmission) is kept as its JSONL
text.  Each full chunk of 2,048 rows is sealed zlib-compressed, so a
history that spans many chunks keeps most of its rows in ~11-16 bytes.
These tests measure what a run retains under ``tracemalloc`` and hold
it to a ceiling between that and the capture it replaced.
"""

from __future__ import annotations

import gc
import os
import tracemalloc

import pytest

from repro.metrics.monitor import ClientStreamMonitor
from repro.obs.metrics import PackedRows
from repro.scenarios.options import RunOptions
from repro.sim.world import World
from repro.workloads import WorkloadSpec, run_workload_failover

#: Ceilings, in bytes retained per row.  Packed, the two tests read ~143
#: and ~17; with one tuple per row they read ~313 and ~128.  The golden
#: shape never fills a chunk, so these hold whether chunks are sealed
#: raw or compressed.
MAX_BYTES_PER_CAPTURED_ROW = 160
MAX_BYTES_PER_ARRIVAL = 24

#: Ceiling for a history of many sealed chunks, in bytes retained per
#: captured row.  Sealed compressed, the test reads ~26 (the open chunks
#: are still raw); with every chunk kept raw it reads ~132.
MAX_BYTES_PER_SEALED_ROW = 40


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
    _golden_workload("frames")     # warm imports and caches
    unwatched, _plain = _retained(lambda: _golden_workload("counters"))
    watched, result = _retained(lambda: _golden_workload("frames"))
    rows = len(result.obs.frames) + len(result.obs.tcp_rows)
    assert rows > 500
    per_row = (watched - unwatched) / rows
    assert per_row <= MAX_BYTES_PER_CAPTURED_ROW, (
        f"{per_row:.0f} B retained per captured row")


def _long_workload(obs_level: str):
    """16 streams of 400 kB: over 9k frame rows and 13k transmit rows,
    so each history spans at least four sealed chunks."""
    spec = WorkloadSpec(kind="stream", connections=16,
                        bytes_per_conn=400_000, mean_interarrival_s=0.01)
    return run_workload_failover(
        spec, num_clients=8, fault_at_s=0.5,
        options=RunOptions(seed=3, run_until_s=20, obs_level=obs_level))


@pytest.fixture(scope="module")
def long_run():
    """(bytes retained unwatched, watched, the watched run's result)."""
    _golden_workload("frames")     # warm imports and caches
    unwatched, _plain = _retained(lambda: _long_workload("counters"))
    watched, result = _retained(lambda: _long_workload("frames"))
    return unwatched, watched, result


def test_a_long_history_keeps_its_sealed_rows_compressed(long_run):
    unwatched, watched, result = long_run
    obs = result.obs
    for history in (obs._frames, obs._tcp_rows):    # four chunks sealed
        assert len(history.column(0)) >= 4 * PackedRows.CHUNK_ROWS
    rows = len(obs.frames) + len(obs.tcp_rows)
    per_row = (watched - unwatched) / rows
    assert per_row <= MAX_BYTES_PER_SEALED_ROW, (
        f"{per_row:.0f} B retained per captured row")


def test_write_streams_the_jsonl_exports(long_run, tmp_path):
    """``write()`` never holds a JSONL file whole: its traced peak is a
    small fraction of what it writes (building each file as one string
    read ~1.28x)."""
    obs = long_run[2].obs
    gc.collect()
    tracemalloc.start()
    try:
        paths = obs.write(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = sum(os.path.getsize(paths[name])
                  for name in ("frames.jsonl", "tcp_timeline.jsonl"))
    assert written >= 4_000_000
    assert peak <= written / 4, (
        f"write() peaked at {peak / 1e6:.1f} MB for {written / 1e6:.1f} MB")


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
