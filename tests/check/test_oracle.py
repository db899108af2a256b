"""Unit tests for the invariant oracle: every checker must trip on a
synthetic violation and stay quiet on conforming traffic."""

from __future__ import annotations

import pytest

from repro.check import (CheckTopology, CheckedRun, InvariantOracle,
                         InvariantViolationError)
from repro.net.addresses import IPAddress, MacAddress
from repro.net.frame import EthernetFrame, EtherType
from repro.net.packet import IPPacket, IPProtocol
from repro.sim.world import World
from repro.sttcp.state import ConnProgress, Heartbeat
from repro.tcp.segment import TcpFlags, TcpSegment
from repro.tcp.seq import SEQ_MASK

from tests.conftest import stub_conn

pytestmark = pytest.mark.no_invariant_check   # we fire violations on purpose


@pytest.fixture
def oracle(world):
    return InvariantOracle(world).attach()


def _tx(world, source="c", *, off=None, flags=TcpFlags.ACK, len=0,
        **state):
    """One synthetic transmission whose sender sits at ``state`` (see
    ``stub_conn``); ``off`` is the segment's stream offset, None before
    the connection has an ISN."""
    # ISS = -1 mod 2**32 puts stream offset 0 at sequence number 0.
    iss = None if off is None else SEQ_MASK
    world.probes.fire("tcp.segment_tx", source,
                      conn=stub_conn(iss=iss, **state),
                      seq=0 if off is None else off & SEQ_MASK, ack=0,
                      flags=flags, len=len, win=65535)


def _ids(oracle):
    return [v.invariant for v in oracle.violations]


def test_clean_endpoint_traffic_passes(world, oracle):
    _tx(world, una=0, nxt=1460, off=0, flags=TcpFlags.ACK | TcpFlags.PSH,
        len=1460)
    _tx(world, una=1460, nxt=2920, off=1460, len=1460)
    world.probes.fire("tcp.deliver", "c", off=0, len=100)
    world.probes.fire("tcp.deliver", "c", off=100, len=50)
    assert oracle.violations == []
    assert oracle.checks["tcp.snd-una-le-nxt"] == 2
    assert oracle.checks["tcp.deliver-contiguous"] == 2


def test_snd_una_beyond_nxt_trips(world, oracle):
    _tx(world, una=2000, nxt=1000)
    assert "tcp.snd-una-le-nxt" in _ids(oracle)


def test_snd_una_retreat_trips(world, oracle):
    _tx(world, una=5000, nxt=5000)
    _tx(world, una=4000, nxt=5000)
    assert "tcp.snd-una-monotone" in _ids(oracle)


def test_syn_resets_endpoint_incarnation(world, oracle):
    _tx(world, una=5000, nxt=5000)
    # A new connection reusing the same source name starts over.
    _tx(world, una=0, nxt=0, flags=TcpFlags.SYN, off=-1)
    _tx(world, una=0, nxt=100, off=0, len=100)
    assert oracle.violations == []


def test_cwnd_and_ssthresh_floors_trip(world, oracle):
    _tx(world, cwnd=100)
    _tx(world, ssthresh=1460)
    ids = _ids(oracle)
    assert "tcp.cwnd-floor" in ids
    assert "tcp.ssthresh-floor" in ids


def test_seq_outside_send_window_trips(world, oracle):
    _tx(world, una=1000, nxt=2000, off=5000)
    assert "tcp.seq-in-window" in _ids(oracle)


def test_rst_exempt_from_seq_window(world, oracle):
    _tx(world, una=1000, nxt=2000, off=999_999, flags=TcpFlags.RST)
    assert oracle.violations == []


def test_rcv_nxt_retreat_trips(world, oracle):
    _tx(world, rcv_nxt=300)
    _tx(world, rcv_nxt=200)
    assert "tcp.rcv-nxt-monotone" in _ids(oracle)


def test_delivery_gap_and_redelivery_trip(world, oracle):
    world.probes.fire("tcp.deliver", "c", off=0, len=100)
    world.probes.fire("tcp.deliver", "c", off=150, len=10)   # gap
    assert _ids(oracle) == ["tcp.deliver-contiguous"]
    world.probes.fire("tcp.deliver", "d", off=0, len=100)
    world.probes.fire("tcp.deliver", "d", off=50, len=100)   # re-delivery
    assert _ids(oracle).count("tcp.deliver-contiguous") == 2


# ----------------------------------------------------------------- wire

_CLIENT_MAC = MacAddress("02:00:00:00:00:01")
_PRIMARY_MAC = MacAddress("02:00:00:00:00:02")
_BACKUP_MAC = MacAddress("02:00:00:00:00:03")
_CLIENT_IP = IPAddress("10.0.0.1")
_SERVICE_IP = IPAddress("10.0.0.100")


def _frame(world, *, src_mac=_PRIMARY_MAC, src_ip=_SERVICE_IP,
           dst_ip=_CLIENT_IP, src_port=80, dst_port=49152,
           seq=1000, ack=0, flags=TcpFlags.ACK, payload=b""):
    seg = TcpSegment(src_port, dst_port, seq=seq, ack=ack, flags=flags,
                     window=65535, payload=payload)
    packet = IPPacket(src_ip, dst_ip, IPProtocol.TCP, seg)
    frame = EthernetFrame(_CLIENT_MAC, src_mac, EtherType.IPV4, packet)
    world.probes.fire("eth.frame", "switch", frame=frame, ingress=1)


def test_wire_seq_discontinuity_trips(world, oracle):
    _frame(world, seq=1000, payload=b"x" * 100)
    _frame(world, seq=1100, payload=b"x" * 100)
    assert oracle.violations == []
    # A wrong-ISN takeover: the next "continuation" jumps half the space.
    _frame(world, seq=(1200 + (1 << 31)) % (1 << 32))
    assert "wire.seq-continuity" in _ids(oracle)


def test_wire_syn_restarts_flow(world, oracle):
    _frame(world, seq=999_999_000, payload=b"x" * 10)
    # New incarnation of the same 4-tuple: SYN legitimately moves the space.
    _frame(world, seq=5, flags=TcpFlags.SYN)
    _frame(world, seq=6, payload=b"x" * 10, ack=1)
    assert oracle.violations == []


def test_wire_ack_retreat_trips(world, oracle):
    _frame(world, ack=5000)
    _frame(world, ack=4000)
    assert "wire.ack-monotone" in _ids(oracle)


def test_wire_ack_beyond_peer_data_trips(world, oracle):
    # Client direction: 100 bytes at seq 1000 -> highest end 1100.
    _frame(world, src_mac=_CLIENT_MAC, src_ip=_CLIENT_IP, dst_ip=_SERVICE_IP,
           src_port=49152, dst_port=80, seq=1000, payload=b"x" * 100)
    # Server acks 1100: fine.  Acks 2000: bytes that were never sent.
    _frame(world, ack=1100)
    assert oracle.violations == []
    _frame(world, ack=2000)
    assert "wire.ack-beyond-data" in _ids(oracle)


@pytest.fixture
def topo_oracle(world):
    topo = CheckTopology(primary_mac=str(_PRIMARY_MAC),
                         backup_mac=str(_BACKUP_MAC), service_port=80)
    return InvariantOracle(world, topo).attach()


def test_backup_frame_before_takeover_trips(world, topo_oracle):
    _frame(world, src_mac=_BACKUP_MAC)
    assert "wire.backup-silent" in _ids(topo_oracle)


def test_backup_frame_after_takeover_ok(world, topo_oracle):
    world.probes.fire("sttcp.takeover", "backup-engine", reason="test",
                      connections=1, unrecoverable=0)
    _frame(world, src_mac=_BACKUP_MAC)
    assert topo_oracle.violations == []


def test_primary_frame_long_after_takeover_trips(world, topo_oracle):
    _frame(world, src_mac=_PRIMARY_MAC)            # fine before takeover
    world.probes.fire("sttcp.takeover", "backup-engine", reason="test",
                      connections=1, unrecoverable=0)
    _frame(world, src_mac=_PRIMARY_MAC)            # in-flight grace
    assert topo_oracle.violations == []
    world.sim.schedule(1_000_000_000, lambda: _frame(
        world, src_mac=_PRIMARY_MAC))              # 1 s later: dual active
    world.run()
    assert "wire.primary-silent" in _ids(topo_oracle)


def test_non_service_ports_ignored(world, topo_oracle):
    _frame(world, src_mac=_BACKUP_MAC, src_port=9999, dst_port=9998)
    assert topo_oracle.violations == []


# ------------------------------------------------------------ heartbeat

def _hb(world, seq, counters=(0, 0, 0, 0), source="hb-p", key=(1, 2)):
    hb = Heartbeat("primary", seq,
                   (ConnProgress(key, *counters),))
    world.probes.fire("hb.state", source, hb=hb)


def test_heartbeat_seq_must_increase(world, oracle):
    _hb(world, 1)
    _hb(world, 2)
    assert oracle.violations == []
    _hb(world, 2)
    assert "hb.seq-monotone" in _ids(oracle)


def test_heartbeat_progress_retreat_trips(world, oracle):
    _hb(world, 1, counters=(100, 50, 200, 80))
    _hb(world, 2, counters=(100, 40, 200, 80))
    assert "hb.progress-monotone" in _ids(oracle)


def test_replica_announcement_resets_progress(world, oracle):
    _hb(world, 1, counters=(100, 50, 200, 80))
    # Same key reused by a brand-new connection (client port reuse).
    world.probes.fire("sttcp.conn-replicated", "backup-engine",
                      key=(1, 2), isn=42)
    _hb(world, 2, counters=(0, 0, 0, 0))
    assert oracle.violations == []


# ----------------------------------------------------------------- sttcp

def test_double_takeover_trips(world, oracle):
    world.probes.fire("sttcp.takeover", "engine-a", reason="x",
                      connections=0, unrecoverable=0)
    world.probes.fire("sttcp.takeover", "engine-b", reason="y",
                      connections=0, unrecoverable=0)
    assert "sttcp.single-active" in _ids(oracle)


def test_takeover_plus_non_ft_trips(world, oracle):
    world.probes.fire("sttcp.takeover", "backup-engine", reason="x",
                      connections=0, unrecoverable=0)
    world.probes.fire("sttcp.non-ft-mode", "primary-engine", reason="y")
    assert "sttcp.single-active" in _ids(oracle)


def test_per_connection_takeover_event_not_double_counted(world, oracle):
    world.probes.fire("sttcp.takeover", "backup-engine", reason="x",
                      connections=2, unrecoverable=0)
    # Logger-recovery completion re-emits takeover *with a key*.
    world.probes.fire("sttcp.takeover", "backup-engine", key=(1, 2),
                      reason="logger recovery complete", connections=1,
                      unrecoverable=0)
    assert oracle.violations == []


# ------------------------------------------------------------ plumbing

def test_checked_run_raises(world):
    with pytest.raises(InvariantViolationError) as err:
        with CheckedRun(world):
            _tx(world, una=2000, nxt=1000)
    assert err.value.violations[0].invariant == "tcp.snd-una-le-nxt"
    assert err.value.violations[0].event is not None


def test_a_sender_state_violation_keeps_the_name_not_the_connection(
        world, oracle):
    _tx(world, "client.tcp", una=2000, nxt=1000)
    [violation] = oracle.violations
    assert violation.event.fields["conn"] == "client.tcp"
    assert "snd_una=2000 > snd_nxt=1000" in violation.detail


def test_checked_run_detaches(world):
    with CheckedRun(world, raise_on_violation=False) as oracle:
        pass
    _tx(world, una=2000, nxt=1000)    # after the block: not observed
    assert oracle.violations == []


def test_violation_cap_keeps_counting(world):
    oracle = InvariantOracle(world, max_recorded=3).attach()
    for _ in range(10):
        _tx(world, una=2000, nxt=1000)
        oracle._endpoints.clear()     # defeat the monotone state carry-over
    assert len(oracle.violations) == 3
    assert oracle.violation_count == 10


def test_report_mentions_every_invariant(world, oracle):
    from repro.check import INVARIANTS
    report = oracle.report()
    for inv_id in INVARIANTS:
        assert inv_id in report
