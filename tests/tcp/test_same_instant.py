"""Segments that reach one connection in the same nanosecond.

The demux hands every segment to its connection as it arrives, so two
segments delivered at one instant are two deliveries: each out-of-order
segment draws its own duplicate ack (RFC 5681 Sec. 4.2 — the sender
counts them, and three start fast retransmit), each in-order segment is
acked and announced to the application, and a host that crashes between
two of them has processed the first and never sees the second.

The segments are real ones: a filter on the server's stack holds back a
flight the client sent, and one event then feeds the chosen segments to
``TcpStack._on_packet`` back to back.
"""

import pytest

from repro.net.packet import IPPacket, IPProtocol
from repro.sim.core import millis, seconds
from repro.tcp.extension import TcpExtension
from repro.tcp.segment import TcpSegment

from tests.tcp.conftest import TcpPair

MSS = 1460


class HeldFlight:
    """Establish a connection, then hold back the client's next flight of
    MSS-sized segments at the server's demux."""

    def __init__(self, lan, segments: int):
        self.pair = pair = TcpPair(lan)
        pair.run(0.5)
        self.stack = pair.server_host.tcp
        self.conn = pair.server_sock.connection
        self.base = self.conn.recv_buffer.rcv_next
        self.reads = []
        pair.server_sock.on_data = lambda s: self.reads.append(s.read())
        self.payload = (bytes(range(256)) * 6 * segments)[:MSS * segments]
        self.held = []

        held = self.held

        class Hold(TcpExtension):
            filters = True

            def filter_segment(self, segment, src, dst):
                if not segment.payload:
                    return False
                # A copy: the delivering frame's segment is recycled
                # after this call.
                held.append(IPPacket(src, dst, IPProtocol.TCP, TcpSegment(
                    segment.src_port, segment.dst_port, segment.seq,
                    segment.ack, segment.flags, segment.window,
                    segment.payload)))
                return True

        self.stack.ext = Hold()
        assert pair.client_sock.send(self.payload) == len(self.payload)
        pair.run(0.51)  # the flight is on the wire for ~1 ms; the RTO is 200
        self.stack.ext = None
        assert len(self.held) == segments
        assert self.reads == [] and self.received == 0

    @property
    def received(self) -> int:
        """In-order bytes of the held flight the server has taken."""
        return self.conn.recv_buffer.rcv_next - self.base

    def deliver_in_one_event(self, *steps):
        """Run ``steps`` — held packets to demux, or callables — inside a
        single event; return how many acks the server sent at that
        instant."""
        sim = self.pair.world.sim

        def event():
            for step in steps:
                if callable(step):
                    step()
                else:
                    self.stack._on_packet(step)

        before = self.conn.acks_sent
        sim.post(0, event)
        sim.run(until=sim.now)
        return self.conn.acks_sent - before


@pytest.mark.parametrize("out_of_order", [2, 3])
def test_each_same_instant_out_of_order_segment_draws_a_duplicate_ack(
        lan, out_of_order):
    flight = HeldFlight(lan, out_of_order + 1)
    client = flight.pair.client_sock.connection
    # The head of the flight stays lost; everything behind it arrives at
    # one instant.
    assert flight.deliver_in_one_event(*flight.held[1:]) == out_of_order
    assert flight.received == 0 and flight.reads == []
    flight.pair.world.run_for(millis(5))
    assert client.dupacks_received == out_of_order
    # Three duplicates are what fast retransmit needs; two leave the hole
    # to the retransmission timer.
    assert client.cc.fast_retransmits == (1 if out_of_order == 3 else 0)
    assert client.cc.timeouts == 0
    flight.pair.run(3.0)
    assert b"".join(flight.reads) == flight.payload
    assert client.cc.timeouts == (0 if out_of_order == 3 else 1)


def test_same_instant_in_order_segments_are_delivered_one_by_one(lan):
    flight = HeldFlight(lan, 2)
    assert flight.deliver_in_one_event(*flight.held) == 2
    assert flight.reads == [flight.payload[:MSS], flight.payload[MSS:]]
    flight.pair.run(1.0)
    client = flight.pair.client_sock.connection
    assert client.flight_size == 0 and client.retransmissions == 0


def test_freeze_between_same_instant_deliveries_drops_only_the_second(lan):
    flight = HeldFlight(lan, 2)
    first, second = flight.held
    assert flight.deliver_in_one_event(first, flight.stack.freeze,
                                       second) == 1
    assert flight.reads == [flight.payload[:MSS]]
    assert flight.received == MSS
    flight.pair.world.run_for(seconds(1))
    assert flight.received == MSS, "a frozen stack is deaf"
