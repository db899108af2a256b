"""Loss recovery: fast retransmit, RTO, go-back-N, lossy-link integrity."""

from repro.sim.core import seconds
from repro.tcp.segment import TcpSegment

from tests.conftest import make_lan
from tests.tcp.conftest import TcpPair, pump_stream


def patterned(n: int) -> bytes:
    return bytes(i % 251 for i in range(n))


class SelectiveDropper:
    """Impairs a cable to drop chosen TCP payload segments."""

    def __init__(self, cable, should_drop):
        self.dropped = 0
        self._should_drop = should_drop
        cable.impair = self._impair

    def _impair(self, sender, frame):
        segment = getattr(frame.payload, "payload", None)
        if isinstance(segment, TcpSegment) and self._should_drop(segment,
                                                                 self.dropped):
            self.dropped += 1
            return ()
        return (0,)


def test_transfer_completes_over_lossy_link(world):
    lan = make_lan(world, loss_rate=0.03)
    pair = TcpPair(lan)
    data = patterned(1_000_000)
    pump_stream(pair.client_sock, data)
    pair.run(120)
    assert bytes(pair.server.data) == data
    assert pair.client_sock.connection.retransmissions > 0


def test_heavily_lossy_link_still_correct(world):
    lan = make_lan(world, loss_rate=0.15)
    pair = TcpPair(lan)
    data = patterned(200_000)
    pump_stream(pair.client_sock, data)
    pair.run(300)
    assert bytes(pair.server.data) == data


def test_single_drop_triggers_fast_retransmit(world):
    lan = make_lan(world)
    pair = TcpPair(lan)
    pair.run(0.1)
    # Drop the first full-size data segment once.
    dropper = SelectiveDropper(
        lan.cables[1],
        lambda seg, dropped: dropped == 0 and len(seg.payload) == 1460)
    data = patterned(300_000)
    pump_stream(pair.client_sock, data)
    pair.run(30)
    assert dropper.dropped == 1
    assert bytes(pair.server.data) == data
    assert pair.client_sock.connection.cc.fast_retransmits >= 1


def test_first_segment_of_a_fresh_connection_lost_draws_three_true_dupacks(
        world):
    """The SYN-ACK's window is a promise like any other (RFC 9293 forbids
    shrinking it): the acks for the three segments behind a lost first
    one carry the window the SYN-ACK carried, so the sender counts three
    duplicates — not a window update and two — and fast-retransmits
    instead of waiting for the RTO."""
    lan = make_lan(world)
    pair = TcpPair(lan)
    pair.run(0.1)
    dropper = SelectiveDropper(
        lan.cables[1], lambda seg, dropped: dropped == 0 and seg.payload)
    data = patterned(4 * 1460)
    assert pair.client_sock.send(data) == len(data)
    pair.run(0.15)      # well inside the 200 ms minimum RTO
    conn = pair.client_sock.connection
    assert dropper.dropped == 1
    assert conn.dupacks_received == 3
    assert conn.cc.fast_retransmits == 1
    assert conn.cc.timeouts == 0
    assert bytes(pair.server.data) == data


def test_rto_fires_when_all_acks_lost(world):
    lan = make_lan(world)
    pair = TcpPair(lan)
    pair.run(0.1)
    # Cut the link entirely; client data goes nowhere; RTO must fire and
    # back off without crashing, then recovery on repair.
    lan.cables[0].cut()
    pair.client_sock.send(b"hello under darkness")
    pair.run(3)
    conn = pair.client_sock.connection
    assert conn.retransmissions >= 2
    assert conn.cc.timeouts >= 2
    rto_grew = conn.rtt.rto_ns > conn.rtt.min_rto_ns
    assert rto_grew
    lan.cables[0].repair()
    pair.run(90)
    assert bytes(pair.server.data) == b"hello under darkness"


def test_go_back_n_rewinds_snd_nxt(world):
    lan = make_lan(world)
    pair = TcpPair(lan)
    pair.run(0.1)
    lan.cables[0].cut()
    pump_stream(pair.client_sock, patterned(50_000))
    pair.run(2)
    conn = pair.client_sock.connection
    # After an RTO the connection rewound: nxt pulled back toward una.
    assert conn.snd_nxt_off - conn.snd_una_off <= conn.cc.cwnd


def test_retransmission_limit_gives_up(world):
    from repro.tcp.connection import TcpConfig
    lan = make_lan(world)
    config = TcpConfig(max_retransmits=4)
    pair = TcpPair(lan, client_config=config)
    pair.run(0.1)
    lan.cables[0].cut()
    pair.client_sock.send(b"doomed")
    pair.run(600)
    assert pair.client_sock.state.value == "CLOSED"
    assert any(e.startswith("reset") for e in pair.client.events)


def test_fast_retransmit_restarts_rto_timer(world):
    """RFC 6298 S5.3 discipline: a fast retransmit must restart the RTO
    clock.  Direct-drive a connection against synthetic acks so the
    timing is exact: with the timer left armed at the last *new* ack
    (the old bug), the RTO fires at t=250ms while the fast-retransmitted
    head is still in flight, spuriously collapsing the window."""
    from repro.net.addresses import IPAddress
    from repro.sim.core import millis
    from repro.tcp.connection import TcpConnection
    from repro.tcp.segment import TcpFlags
    from repro.tcp.seq import seq_add

    sent = []
    conn = TcpConnection(world, "c", IPAddress("10.0.0.1"), 49152,
                         IPAddress("10.0.0.2"), 80, transmit=sent.append)

    def ack_at(ms, off):
        seg = TcpSegment(80, 49152, seq=seq_add(5000, 1),
                         ack=seq_add(1000, 1 + off),
                         flags=TcpFlags.ACK, window=65535)
        world.sim.schedule(millis(ms), lambda: conn.segment_arrived(seg))

    conn.open_active(1000)
    syn_ack = TcpSegment(80, 49152, seq=5000, ack=seq_add(1000, 1),
                         flags=TcpFlags.SYN | TcpFlags.ACK, window=65535)
    world.sim.schedule(millis(1), lambda: conn.segment_arrived(syn_ack))
    # 5 segments at t=1.1ms; the 1ms handshake RTT clamps RTO to 200ms.
    world.sim.schedule(millis(1) + 100_000, lambda: conn.write(b"x" * 7300))
    ack_at(50, 1460)    # new ack: timer restarted, expiry t=250ms
    ack_at(52, 1460)    # dupack 1
    ack_at(54, 1460)    # dupack 2
    ack_at(56, 1460)    # dupack 3 -> fast retransmit (re-arm: t=256ms)
    ack_at(252, 7300)   # retransmitted head acked before the 256ms expiry
    world.run(until=millis(300))
    assert conn.cc.fast_retransmits == 1
    assert conn.retransmissions == 1   # the fast retransmit, nothing else
    assert conn.cc.timeouts == 0       # no spurious RTO at t=250ms
    assert conn.snd_una_off == 7300


def test_duplicate_segments_are_harmless(world):
    """A duplicating cable must not corrupt the stream (reassembly dedup)."""
    lan = make_lan(world)
    pair = TcpPair(lan)
    def duplicating(sender, frame):
        segment = getattr(frame.payload, "payload", None)
        if isinstance(segment, TcpSegment) and segment.payload:
            return (0, 0)   # exact duplicate
        return (0,)

    lan.cables[1].impair = duplicating
    data = patterned(100_000)
    pump_stream(pair.client_sock, data)
    pair.run(30)
    assert bytes(pair.server.data) == data


def test_reordering_is_tolerated(world):
    """Delaying every 10th data segment forces out-of-order arrival."""
    lan = make_lan(world)
    pair = TcpPair(lan)
    count = {"n": 0}

    def reordering(sender, frame):
        segment = getattr(frame.payload, "payload", None)
        if isinstance(segment, TcpSegment) and segment.payload:
            count["n"] += 1
            if count["n"] % 10 == 0:
                return (2_000_000,)   # 2 ms late
        return (0,)

    lan.cables[1].impair = reordering
    data = patterned(200_000)
    pump_stream(pair.client_sock, data)
    pair.run(60)
    assert bytes(pair.server.data) == data
