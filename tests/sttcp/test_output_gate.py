"""The backup's output gate (the ``gated`` hook of ``TcpConnection.ext``).

A replica behind a shut gate must be indistinguishable, in every piece of
sender state, from one that built each segment and threw it away — that
is what keeps takeover byte-exact — while building nothing on the data
and pure-ack paths.  The per-replica pins in ``gate_pins.json`` were
recorded at the commit *before* the gate existed (suppression by swapping
``conn.transmit``); regenerate only for an intended behaviour change::

    PYTHONPATH=src python tests/sttcp/test_output_gate.py > tests/sttcp/gate_pins.json
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.faults.faults import HwCrash
from repro.net.addresses import IPAddress
from repro.scenarios.builder import build_testbed
from repro.scenarios.options import RunOptions
from repro.scenarios.runner import (run_baseline_failover,
                                    run_failover_experiment)
from repro.sim.core import millis, seconds
from repro.sttcp.control import ConnClosed
from repro.sttcp.events import EventKind
from repro.tcp.extension import TcpExtension
from repro.tcp.segment import TcpFlags, TcpSegment
from repro.tcp.stack import TcpStack
from repro.tcp.states import TcpState
from repro.workloads import WorkloadSpec, run_workload_failover

PINS = pathlib.Path(__file__).with_name("gate_pins.json")


# ------------------------------------------------------------ pinned state

def _watch_replicas(tb) -> dict:
    """Record every replica's sender state at the last instant it is still
    behind the gate: when the engine disposes it, or at takeover (the
    STONITH event fires before any gate opens)."""
    engine = tb.pair.backup
    seen: dict[str, dict] = {}

    def snapshot(mc, how):
        conn = mc.conn
        seen[f"{mc.key[0]}:{mc.key[1]}"] = {
            "left_gate": how,
            "segments_sent": conn.segments_sent,
            "bytes_sent": conn.bytes_sent,
            "acks_sent": conn.acks_sent,
            "suppressed_segments": mc.suppressed_segments,
            "snd_nxt_off": conn.snd_nxt_off,
            "last_sent_window": conn._last_sent_window,
            "fin_suppressed": mc.suppressed_fin,
        }

    dispose = engine._dispose

    def watched_dispose(key):
        mc = engine.conns.get(key)
        if mc is not None:
            live = mc.conn.state is not TcpState.CLOSED
            snapshot(mc, "disposed-live" if live else "disposed-closed")
        dispose(key)

    def at_takeover(_event):
        for mc in engine.conns.values():
            snapshot(mc, "takeover")
        seen["fin_suppressed_events_at_takeover"] = len(
            engine.events.of_kind(EventKind.FIN_SUPPRESSED))

    engine._dispose = watched_dispose
    tb.world.probes.subscribe("sttcp.stonith", at_takeover)
    return seen


def _golden_failover():
    opts = RunOptions(seed=7, run_until_s=3, obs_level="frames")
    tb = build_testbed(seed=opts.seed)
    seen = _watch_replicas(tb)
    run_failover_experiment(lambda tb, sp, sb: HwCrash(tb.primary),
                            total_bytes=60_000, fault_at_s=0.5,
                            options=opts, testbed=tb)
    return seen


def _golden_workload():
    opts = RunOptions(seed=3, run_until_s=6, obs_level="frames")
    tb = build_testbed(seed=opts.seed, num_clients=4)
    seen = _watch_replicas(tb)
    run_workload_failover(
        WorkloadSpec(kind="stream", connections=6, bytes_per_conn=20_000,
                     mean_interarrival_s=0.01),
        fault_at_s=0.5, options=opts, testbed=tb)
    return seen


def _golden_baseline():
    """Hot standby without ST-TCP: no engine, so no replica and no gate."""
    result = run_baseline_failover(
        total_bytes=60_000, fault_at_s=0.5,
        options=RunOptions(seed=5, run_until_s=4, obs_level="frames"))
    assert result.testbed.pair is None
    return {}


def _midstream_failover():
    """The crash lands mid-stream, unobserved: a replica with data in
    flight is live at takeover."""
    opts = RunOptions(seed=11, run_until_s=4)
    tb = build_testbed(seed=opts.seed)
    seen = _watch_replicas(tb)
    result = run_failover_experiment(lambda tb, sp, sb: HwCrash(tb.primary),
                                     total_bytes=4_000_000, fault_at_s=0.1,
                                     options=opts, testbed=tb)
    assert result.stream_intact
    return seen


def _kv_smoke():
    opts = RunOptions(seed=3, run_until_s=4)
    tb = build_testbed(seed=opts.seed, num_clients=8, egress_filtering=True)
    seen = _watch_replicas(tb)
    result = run_workload_failover(
        WorkloadSpec(kind="kv", connections=16, kv_ops=10,
                     mean_interarrival_s=0.02),
        fault_at_s=0.2, options=opts, testbed=tb)
    assert result.all_intact
    return seen


SCENARIOS = {
    "failover-hwcrash-seed7": _golden_failover,
    "workload-6conn-seed3": _golden_workload,
    "baseline-hotstandby-seed5": _golden_baseline,
    "midstream-failover-seed11": _midstream_failover,
    "kv-smoke-16conn-seed3": _kv_smoke,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_replica_state_matches_pre_gate_pins(name):
    pinned = json.loads(PINS.read_text())[name]
    assert SCENARIOS[name]() == pinned


def test_pins_cover_a_live_takeover_and_a_suppressed_fin():
    """The pins are only worth something if they saw the interesting cases."""
    pins = json.loads(PINS.read_text())
    replicas = [r for scenario in pins.values() for r in scenario.values()
                if isinstance(r, dict)]
    assert any(r["left_gate"] == "takeover" and r["snd_nxt_off"] > 0
               for r in replicas)
    assert any(r["fin_suppressed"] for r in replicas)
    assert all(r["suppressed_segments"] == r["segments_sent"]
               for r in replicas)


# ---------------------------------------------------------- gate mechanics

MSS = 1460
CLIENT_ISN = 5000


class _Gate(TcpExtension):
    """A shut gate whose holder records what would have left."""

    def __init__(self, held):
        self.gated = True
        self.held = held

    def hold(self, length, flags):
        self.held.append((length, flags))


def _gated_connection(lan, held, wire):
    """An established tap connection on a host of its own, fed by hand:
    gate shut (``held`` sees what would have left), ``wire`` in place of
    the IP layer."""
    host = lan.hosts[0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TcpStack, "_transmitter",
                      lambda stack, local_ip, remote_ip: wire.append)
        conn, sock = host.tcp.create_tap_connection(
            IPAddress("10.0.0.1"), 80, IPAddress("10.0.0.2"), 50000,
            isn=777)
    conn.ext = _Gate(held)
    conn.segment_arrived(TcpSegment(50000, 80, seq=CLIENT_ISN, ack=0,
                                    flags=TcpFlags.SYN, window=65535))
    _from_client(conn, data_off=0, ack_off=0)
    assert conn.state is TcpState.ESTABLISHED
    assert held == [(0, TcpFlags.SYN | TcpFlags.ACK)] and not wire
    del held[:]
    return conn, sock


def _from_client(conn, data_off, ack_off, payload=b""):
    conn.segment_arrived(TcpSegment(
        50000, 80, seq=(CLIENT_ISN + 1 + data_off) & 0xFFFFFFFF,
        ack=(777 + 1 + ack_off) & 0xFFFFFFFF, flags=TcpFlags.ACK,
        window=65535, payload=payload))


def test_gated_data_and_acks_build_no_segment(lan, monkeypatch):
    """N gated data sends and N gated pure acks: no ``TcpSegment``, no
    ring read, no ``bytes`` — and every counter a send moves, moves."""
    from repro.tcp import connection as connection_module

    held, wire = [], []
    conn, sock = _gated_connection(lan, held, wire)
    built = []

    def counted_segment(*args, **kwargs):
        built.append(args)
        return TcpSegment(*args, **kwargs)

    monkeypatch.setattr(connection_module, "TcpSegment", counted_segment)
    monkeypatch.setattr(
        type(conn.send_buffer), "get_range",
        lambda *a: pytest.fail("a gated send read the send ring"))
    rounds = 40
    data = bytes(range(256)) * 6          # 1536 B: one full MSS + a tail
    sent = acks = 0
    for i in range(rounds):
        assert sock.send(data) == len(data)
        _from_client(conn, data_off=i, ack_off=(i + 1) * len(data),
                     payload=b"x")
        sent += 2
        acks += 1
    assert not wire
    assert conn.acks_sent == acks
    assert conn.segments_sent == 1 + sent + acks == 1 + len(held)
    assert conn.bytes_sent == rounds * len(data) == conn.snd_nxt_off
    assert held.count((MSS, TcpFlags.ACK)) == rounds
    assert held.count((len(data) - MSS, TcpFlags.ACK | TcpFlags.PSH)) == rounds
    assert held.count((0, TcpFlags.ACK)) == acks
    assert conn._last_sent_window == conn.recv_buffer.window
    assert conn._rtx_timer.armed is False and conn.flight_size == 0
    # A FIN riding the last data byte is held like the rest: one byte of
    # a full send buffer waits on the peer's 65535-byte window.
    assert sock.send(bytes(65536)) == 65536
    sock.close()
    assert conn.flight_size == 65535 and not conn.fin_sent
    del held[:]
    _from_client(conn, data_off=rounds, ack_off=conn.snd_nxt_off)
    assert held == [(1, TcpFlags.ACK | TcpFlags.PSH | TcpFlags.FIN)]
    assert conn.fin_sent and conn._rtx_timer.armed and not wire
    assert not built, "a gated send built a segment"


def test_gate_opened_mid_flight_resends_from_snd_una_at_the_next_rto(lan):
    """Nothing a gated connection "sent" reached the peer.  Open the gate
    with three segments in flight: nothing leaves at once, and the RTO
    puts the segment at ``snd_una`` — right seq, right bytes — on the
    wire first."""
    held, wire = [], []
    conn, sock = _gated_connection(lan, held, wire)
    data = bytes(i % 251 for i in range(3 * MSS))
    sock.send(data)
    assert [h[0] for h in held] == [MSS, MSS, MSS] and not wire
    assert conn.snd_nxt_off == 3 * MSS and conn.snd_una_off == 0
    _from_client(conn, data_off=0, ack_off=MSS)      # the client got one
    conn.ext.gated = False
    lan.world.run(until=lan.world.sim.now + millis(100))
    assert not wire, "opening the gate sends nothing by itself"
    lan.world.run(until=lan.world.sim.now + seconds(2))
    first = wire[0]
    assert first.seq == (777 + 1 + MSS) & 0xFFFFFFFF
    assert first.payload == data[MSS:2 * MSS]
    assert conn.retransmissions >= 1 and len(held) == 3


def test_disposing_a_live_replica_keeps_its_rst_off_the_wire(sttcp,
                                                             monkeypatch):
    """``_dispose`` of a replica that is not yet CLOSED aborts it; the RST
    it builds must not reach the client."""
    leaked = []
    backup_stack = sttcp.tb.backup.tcp
    transmitter = TcpStack._transmitter

    def watched(stack, local_ip, remote_ip):
        """The backup's connections get a wire that records what leaves."""
        send = transmitter(stack, local_ip, remote_ip)
        if stack is not backup_stack:
            return send

        def record_and_send(segment):
            leaked.append(segment)
            send(segment)
        return record_and_send

    monkeypatch.setattr(TcpStack, "_transmitter", watched)
    sttcp.start_client(total_bytes=5_000_000)
    sttcp.run(0.1)
    (mc,) = sttcp.backup_engine.conns.values()
    conn = mc.conn
    assert conn.ext is mc and mc.gated
    world = sttcp.tb.world
    sent, suppressed = conn.segments_sent, mc.suppressed_segments
    world_suppressed = world.segments_suppressed
    sttcp.backup_engine._on_control(ConnClosed(mc.key))
    assert conn.state is TcpState.CLOSED and conn.rst_sent
    assert conn.segments_sent == sent + 1
    # Built and dropped, but not "suppressed": that counter is about output
    # a live replica shadows (count.sttcp_suppressed_segments pins it).
    assert mc.suppressed_segments == suppressed
    assert world.segments_suppressed == world_suppressed
    assert not leaked
    sttcp.run(3)
    assert sttcp.client.reset_count == 0
    assert sttcp.client.received == 5_000_000


if __name__ == "__main__":
    print(json.dumps({name: run() for name, run in sorted(SCENARIOS.items())},
                     indent=1, sort_keys=True))
