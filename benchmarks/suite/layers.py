"""Isolated layer drivers: host microseconds per unit of work, per layer.

Each driver builds the real classes, drives them through public calls
only, and reports host time per unit (or a ratio).  The sizes are fixed,
so the same work is measured on every commit.  :func:`run_all` makes
``passes`` passes over every driver and keeps the minimum of each time
per unit and the median of each ratio; ``run.py --layers`` uses 5 passes,
a ``--trace 1`` run one.

The traffic drivers are closed loops — the receiving handler sends the
next frame, packet or request — so the scheduler sees no timer events
that are not part of the layer under test.
"""

from __future__ import annotations

import gc
import os
import statistics
import sys
import time
from typing import Callable

from repro.apps.base import pattern_bytes, verify_pattern
from repro.apps.streaming import StreamClient, StreamServer
from repro.campaign import CampaignSpec, execute_trial, expand, run_campaign
from repro.host.host import Host
from repro.net import pool
from repro.net.addresses import IPAddress, MacAddress
from repro.net.cable import Cable
from repro.net.frame import EtherType, EthernetFrame
from repro.net.nic import Nic
from repro.net.switch import Switch
from repro.scenarios import RunOptions, build_testbed
from repro.scenarios.builder import Testbed
from repro.sim import gcctl
from repro.sim.core import Simulator, millis, seconds
from repro.sim.timers import PeriodicTimer, Timer
from repro.sim.world import World
from repro.tcp.buffers import ReceiveBuffer, RetainBuffer, SendBuffer
from repro.workloads import WorkloadSpec, run_workload_failover

__all__ = ["DRIVERS", "run_all"]

MB = 1_000_000
_NETWORK = IPAddress("10.9.0.0")
_GROUP = MacAddress("03:00:5e:00:00:01")


def _null(*_args) -> None:
    pass


def _timed(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# ---------------------------------------------------------------------- sim

def sim_events() -> dict:
    """200k null callbacks over near (level 0), mid (level 1), far
    (overflow heap) and same-tick horizons, half through ``post`` and half
    through ``schedule``."""
    sim = Simulator()
    quarter = 50_000

    def chain() -> None:
        sim.post(0, _null)      # same tick: lands in the active bucket

    def load() -> None:
        for i in range(quarter):
            sim.post((i * 977) % 4_000_000, _null)
            sim.schedule(5_000_000 + (i * 7919) % 4_000_000_000, _null)
            sim.post(5_000_000_000 + (i * 104_729) % 5_000_000_000, _null)
        for i in range(quarter // 2):
            sim.schedule((i * 1013) % 4_000_000, chain)
        sim.run()

    wall = _timed(load)
    return {"sim.us_per_event": wall * 1e6 / sim.events_processed}


def sim_timers() -> dict:
    """Re-arm churn (64 one-shot timers restarted every 10 us, never
    firing — the RTO / delayed-ACK pattern) and periodic ticks."""
    sim = Simulator()
    timers = [Timer(sim, _null) for _ in range(64)]
    rounds = 1_500
    left = [rounds]

    def churn() -> None:
        for timer in timers:
            timer.start(1_000_000)
        left[0] -= 1
        if left[0]:
            sim.post(10_000, churn)
        else:
            for timer in timers:
                timer.stop()

    sim.post(0, churn)
    arm_wall = _timed(sim.run)

    sim = Simulator()
    tickers = [PeriodicTimer(sim, _null, millis(2)) for _ in range(50)]
    for ticker in tickers:
        ticker.start()
    tick_wall = _timed(lambda: sim.run(until=seconds(4)))
    ticks = 50 * 2_000
    return {"sim.us_per_arm_cancel": arm_wall * 1e6 / (rounds * 64),
            "sim.us_per_periodic_tick": tick_wall * 1e6 / ticks}


# ---------------------------------------------------------------------- net

def _fabric(ports: int, egress_filtering: bool = False):
    world = World(seed=1, trace_categories=frozenset())
    switch = Switch(world, egress_filtering=egress_filtering)
    nics = []
    for i in range(ports):
        nic = Nic(world, f"n{i}", MacAddress(0x0200_0000_0000 + i + 1))
        port = switch.new_port()
        cable = Cable(world, nic, port)
        nic.attach_cable(cable)
        port.cable = cable
        nics.append(nic)
    return world, switch, nics


def _frame_loop(world: World, sender: Nic, receiver: Nic, dst: MacAddress,
                frames: int) -> float:
    """Send ``frames`` frames from ``sender`` to ``dst``, each sent when
    the previous one reaches ``receiver``'s upper handler."""
    payload = b"\0" * 1000
    left = [frames]

    def on_frame(_frame) -> None:
        left[0] -= 1
        if left[0]:
            sender.send(EthernetFrame(dst, sender.mac, EtherType.IPV4,
                                      payload))

    receiver.set_upper(on_frame)
    sender.send(EthernetFrame(dst, sender.mac, EtherType.IPV4, payload))
    wall = _timed(world.sim.run)
    if left[0]:
        raise RuntimeError(f"{left[0]} of {frames} frames never arrived")
    return wall


def net_unicast() -> dict:
    """Two NICs on a switch, MACs learned, ``Nic.send`` to a null upper
    handler: cable, switch unicast forward, cable, NIC accept."""
    world, _switch, (a, b) = _fabric(2)
    a.set_upper(_null)
    b.send(EthernetFrame(a.mac, b.mac, EtherType.IPV4, b"\0" * 64))
    world.sim.run()             # the switch learns b's port
    frames = 20_000
    wall = _frame_loop(world, a, b, b.mac, frames)
    return {"net.us_per_unicast_frame": wall * 1e6 / frames}


def net_flood() -> dict:
    """34-port broadcast switch (32 clients + 2 servers), multicast
    destination joined by two NICs: per credited delivery."""
    world, _switch, nics = _fabric(34)
    for nic in nics:
        nic.set_upper(_null)
    nics[-1].join_multicast(_GROUP)
    nics[-2].join_multicast(_GROUP)
    frames = 4_000
    wall = _frame_loop(world, nics[0], nics[-1], _GROUP, frames)
    return {"net.us_per_flood_delivery": wall * 1e6 / (frames * 33)}


def net_filtered_flood() -> dict:
    """258 ports with egress filtering, two joined NICs: per frame."""
    world, switch, nics = _fabric(258, egress_filtering=True)
    for nic in nics:
        nic.set_upper(_null)
    nics[-1].join_multicast(_GROUP)
    nics[-2].join_multicast(_GROUP)
    frames = 10_000
    wall = _frame_loop(world, nics[0], nics[-1], _GROUP, frames)
    if not switch.frames_egress_filtered:
        raise RuntimeError("egress filtering filtered nothing")
    return {"net.us_per_filtered_flood": wall * 1e6 / frames}


def _host_pair(loss_rate: float = 0.0):
    """Two hosts joined by one cable (no switch): the smallest LAN."""
    world = World(seed=1, trace_categories=frozenset())
    a, b = Host(world, "a"), Host(world, "b")
    nic_a = a.add_nic("02:00:00:00:01:01", ["10.9.0.1"], _NETWORK)
    nic_b = b.add_nic("02:00:00:00:01:02", ["10.9.0.2"], _NETWORK)
    cable = Cable(world, nic_a, nic_b, loss_rate=loss_rate)
    nic_a.attach_cable(cable)
    nic_b.attach_cable(cable)
    return world, a, b


def net_ip() -> dict:
    """``IpStack.send`` host to host with a null protocol handler (the
    first packet also pays the ARP exchange)."""
    world, a, b = _host_pair()
    dst = IPAddress("10.9.0.2")
    payload = b"\0" * 1000
    packets = 20_000
    left = [packets]

    def on_packet(_packet) -> None:
        left[0] -= 1
        if left[0]:
            a.ip.send(dst, "bench", payload)

    b.ip.register_protocol("bench", on_packet)
    a.ip.send(dst, "bench", payload)
    wall = _timed(world.sim.run)
    if left[0]:
        raise RuntimeError(f"{left[0]} of {packets} packets never arrived")
    return {"net.ip.us_per_packet": wall * 1e6 / packets}


# ---------------------------------------------------------------------- tcp

def _bulk_transfer(loss_rate: float, total: int) -> float:
    """One-way transfer b -> a over a two-host LAN; host us per segment
    demultiplexed at either end (data one way, ACKs the other)."""
    world, a, b = _host_pair(loss_rate)
    chunk = b"\0" * 8192
    sent = [0]
    got = [0]

    def pump(sock) -> None:
        while sent[0] < total:
            room = min(len(chunk), total - sent[0], sock.writable_bytes)
            if room <= 0:
                return
            sent[0] += sock.send(chunk[:room])

    def on_accept(sock) -> None:
        sock.on_writable = pump
        sock.on_connected = pump

    def on_data(sock) -> None:
        got[0] += len(sock.read())

    b.tcp.listen(80, on_accept)
    client = a.tcp.connect(IPAddress("10.9.0.2"), 80)
    client.on_data = on_data
    wall = _timed(lambda: world.run(until=seconds(120)))
    if got[0] != total:
        raise RuntimeError(f"bulk transfer moved {got[0]} of {total} bytes")
    return wall * 1e6 / (a.tcp.segments_demuxed + b.tcp.segments_demuxed)


def tcp_bulk() -> dict:
    return {"tcp.us_per_data_segment": _bulk_transfer(0.0, 10 * MB),
            "tcp.us_per_data_segment_lossy": _bulk_transfer(0.01, 10 * MB)}


def tcp_small() -> dict:
    """32-byte request/reply turns on one connection, then
    connect -> 1 byte -> close cycles."""
    world, a, b = _host_pair()
    server_ip = IPAddress("10.9.0.2")
    message = b"\0" * 32
    turns = 5_000
    left = [turns]

    def serve(sock) -> None:
        if sock.read():
            sock.send(message)

    def on_accept(sock) -> None:
        sock.on_data = serve

    def on_reply(sock) -> None:
        if sock.read():
            left[0] -= 1
            if left[0]:
                sock.send(message)

    b.tcp.listen(80, on_accept)
    client = a.tcp.connect(server_ip, 80)
    client.on_connected = lambda sock: sock.send(message)
    client.on_data = on_reply
    exchange_wall = _timed(lambda: world.run(until=seconds(600)))
    if left[0]:
        raise RuntimeError(f"{left[0]} of {turns} exchanges unfinished")

    cycles = 500
    remaining = [cycles]

    def serve_once(sock) -> None:
        if sock.read():
            sock.close()

    def open_next() -> None:
        sock = a.tcp.connect(server_ip, 81)
        sock.on_connected = lambda s: s.send(b"\0")
        sock.on_peer_closed = lambda s: s.close()
        sock.on_closed = closed

    def closed(_sock) -> None:
        remaining[0] -= 1
        if remaining[0]:
            open_next()

    b.tcp.listen(81, lambda sock: setattr(sock, "on_data", serve_once))
    open_next()
    conn_wall = _timed(lambda: world.run(until=seconds(6_000)))
    if remaining[0]:
        raise RuntimeError(f"{remaining[0]} of {cycles} connections "
                           f"never closed")
    return {"tcp.us_per_small_exchange": exchange_wall * 1e6 / turns,
            "tcp.us_per_conn": conn_wall * 1e6 / cycles}


def tcp_buffers() -> dict:
    """16 MB through each of the three ring buffers, MSS at a time."""
    total = 16 * MB
    mss = 1460
    data = b"\0" * mss

    def move() -> None:
        send = SendBuffer()
        retain = RetainBuffer()
        receive = ReceiveBuffer()
        offset = 0
        while offset < total:
            send.write(data)
            bytes(send.get_range(offset, mss))
            retain.append(offset, data)
            receive.receive(offset, data)
            offset += mss
            send.ack_to(offset)
            retain.release_to(offset)
            receive.read()

    return {"tcp.buffers.us_per_mb": _timed(move) * 1e6 / (3 * total / MB)}


# -------------------------------------------------------------------- sttcp

def _fault_free_transfer(mode: str, total: int):
    tb = build_testbed(seed=1, mode=mode)
    StreamServer(tb.primary, "server-primary", port=80).start()
    target = tb.addresses.primary_ip
    if mode == "sttcp":
        StreamServer(tb.backup, "server-backup", port=80).start()
        tb.pair.start()
        target = tb.service_ip
    # The connection stays open so the backup keeps its replica (and the
    # replica's suppressed-segment count) to the end of the run.
    client = StreamClient(tb.client, "client", target, port=80,
                          total_bytes=total, close_when_complete=False)
    client.start()
    wall = _timed(lambda: tb.run_until(10.0))
    if client.received != total or client.corrupt_at is not None:
        raise RuntimeError(f"{mode} transfer moved {client.received} "
                           f"of {total} bytes")
    return wall, tb


def sttcp_overhead() -> dict:
    """The same fault-free 5 MB transfer with and without ST-TCP — the
    host-time analogue of the paper's Demo 3."""
    total = 5 * MB
    base_wall, _tb = _fault_free_transfer("baseline", total)
    wall, tb = _fault_free_transfer("sttcp", total)
    tapped = tb.backup.tcp.segments_demuxed
    suppressed = sum(mc.suppressed_segments
                     for mc in tb.pair.backup.conns.values())
    return {"sttcp.overhead_ratio": wall / base_wall,
            "sttcp.us_per_tapped_segment":
                (wall - base_wall) * 1e6 / (tapped + suppressed)}


def sttcp_heartbeat() -> dict:
    """An idle pair for 600 virtual seconds, per heartbeat sent."""
    tb = build_testbed(seed=1)
    tb.pair.start()
    wall = _timed(lambda: tb.run_until(600.0))
    beats = tb.pair.primary.hb.sent + tb.pair.backup.hb.sent
    return {"sttcp.hb.us_per_beat": wall * 1e6 / beats}


# --------------------------------------------------------------------- apps

def apps_pattern() -> dict:
    total = 50 * MB

    def generate_and_verify() -> None:
        for offset in range(0, total, 8192):
            if verify_pattern(offset, pattern_bytes(offset, 8192)) != -1:
                raise RuntimeError("pattern does not verify")

    return {"apps.pattern.us_per_mb":
            _timed(generate_and_verify) * 1e6 / (total / MB)}


# -------------------------------------------------------------- obs / check

def _small_fleet(bytes_per_conn: int, **options):
    """fleet_32c's shape (32 clients, 32 streams, broadcast fabric, crash
    mid-run) with fewer bytes per stream."""
    spec = WorkloadSpec(kind="stream", connections=32,
                        bytes_per_conn=bytes_per_conn,
                        mean_interarrival_s=0.02)
    pool.clear()
    gc.collect()
    start = time.perf_counter()
    result = run_workload_failover(
        spec, num_clients=32, fault_at_s=0.3,
        options=RunOptions(seed=1, run_until_s=20.0, **options))
    wall = time.perf_counter() - start
    if not result.all_intact:
        raise RuntimeError("small fleet run lost a stream")
    return wall, result


def _quarter_fleet(**options) -> float:
    return _small_fleet(125_000, **options)[0]


def obs_overhead() -> dict:
    plain = _quarter_fleet()
    return {
        "obs.counters_overhead_ratio":
            _quarter_fleet(obs_level="counters") / plain,
        "obs.timeline_overhead_ratio":
            _quarter_fleet(obs_level="timeline") / plain,
        "obs.frames_overhead_ratio":
            _quarter_fleet(obs_level="frames") / plain,
        "check.oracle_overhead_ratio": _quarter_fleet(check=True) / plain,
    }


# ---------------------------------------------------------------- scenarios

def scenarios_build() -> dict:
    return {f"scenarios.build_ms_{n}c":
            min(_timed(lambda: build_testbed(seed=1, num_clients=n))
                for _ in range(3)) * 1e3
            for n in (1, 32, 256)}


# ----------------------------------------------------------------- campaign

def _small_campaign() -> CampaignSpec:
    return CampaignSpec(
        scenario="failover",
        base={"total_bytes": 2_000_000, "fault_at_s": 0.1},
        grid={"fault": ["hw_crash_primary", "hw_crash_backup",
                        "app_hang_primary", "nic_failure_primary"]},
        trials=2, seed=1, options=RunOptions(run_until_s=6.0))


def campaign_costs() -> dict:
    tb = build_testbed(seed=1, num_clients=32)
    start = time.perf_counter()
    blob = tb.snapshot()
    snapshot_s = time.perf_counter() - start
    restore_s = _timed(lambda: Testbed.restore(blob, seed=2))

    # The first fan-out in a process also pays multiprocessing's imports.
    run_campaign(CampaignSpec(base={"total_bytes": 200_000,
                                    "fault_at_s": 0.01}, trials=2, seed=1,
                              options=RunOptions(run_until_s=3.0)), jobs=2)
    spec = _small_campaign()
    n = len(expand(spec))
    warm = run_campaign(spec, jobs=1, warm=True)
    cold = run_campaign(spec, jobs=1, warm=False)
    # The bare trials under the engine's GC regime (collector paused, one
    # full collection every 4 trials), so that what is left over is the
    # engine's own work: expansion, warm cache, records, aggregation.
    gc.disable()
    try:
        direct_s = 0.0
        for index, trial in enumerate(expand(spec)):
            direct_s += _timed(lambda: execute_trial(trial))
            if index % 4 == 3:
                gcctl.collect_full()
    finally:
        gc.enable()
    fanned = run_campaign(spec, jobs=2)
    if fanned.to_json() != warm.to_json() or warm.failed:
        raise RuntimeError("small campaign differs between jobs=1 and 2")
    return {
        "campaign.snapshot_ms_32c": snapshot_s * 1e3,
        "campaign.restore_ms_32c": restore_s * 1e3,
        "campaign.warm_ratio": cold.wall_s / warm.wall_s,
        "campaign.overhead_ms_per_trial": (warm.wall_s - direct_s) * 1e3 / n,
        "campaign.fanout_ratio": warm.wall_s / fanned.wall_s,
    }


# --------------------------------------------------------------- allocation

def alloc_churn() -> dict:
    """The tracemalloc churn probe of bench_core_throughput (untimed), on
    a sixteenth of the fleet's bytes (tracemalloc slows this code about
    fifteen times): allocator blocks kept per event, traced peak, and
    generation-0 collections during the run."""
    import tracemalloc

    pool.clear()
    gc.collect()
    gen0_before = gcctl.stats()["collections"][0]
    blocks_before = sys.getallocatedblocks()
    tracemalloc.start()
    try:
        _wall, result = _small_fleet(30_000)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    blocks = sys.getallocatedblocks() - blocks_before
    events = result.testbed.world.sim.events_processed
    return {
        "alloc.net_blocks_per_event": blocks / events,
        "alloc.traced_peak_mb": peak / (1024 * 1024),
        "gc.gen0_collections": gcctl.stats()["collections"][0] - gen0_before,
    }


DRIVERS = (sim_events, sim_timers, net_unicast, net_flood,
           net_filtered_flood, net_ip, tcp_bulk, tcp_small, tcp_buffers,
           sttcp_overhead, sttcp_heartbeat, apps_pattern, obs_overhead,
           scenarios_build, campaign_costs, alloc_churn)

def _is_time_per_unit(name: str) -> bool:
    """Noise only adds to a time per unit, so its best estimate over the
    passes is the minimum.  Ratios, differences and counts are noisy in
    both directions: they take the median."""
    return (".us_per_" in name or "_ms_" in name) and name not in (
        "sttcp.us_per_tapped_segment", "campaign.overhead_ms_per_trial")


def run_all(passes: int = 1) -> dict:
    """Every driver ``passes`` times; per metric the minimum (times per
    unit) or the median (ratios, differences, counts) of the passes, plus
    the CPU count the fan-out ratio was measured on."""
    seen: dict = {}
    for _ in range(passes):
        for driver in DRIVERS:
            pool.clear()
            gc.collect()
            for name, value in driver().items():
                seen.setdefault(name, []).append(value)
    out = {name: min(values) if _is_time_per_unit(name)
           else statistics.median(values) for name, values in seen.items()}
    out["campaign.cpus"] = os.cpu_count() or 1
    return out
