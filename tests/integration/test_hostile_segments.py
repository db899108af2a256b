"""A stray segment from the client's host must not break a taken-over
stream (RFC 9293 §3.10.7.4: an unacceptable segment is acked and dropped,
and nothing about it is recorded)."""

from repro.apps.streaming import StreamClient, StreamServer
from repro.faults.faults import HwCrash
from repro.net.packet import IPProtocol
from repro.scenarios.builder import build_testbed
from repro.sim.core import millis, seconds
from repro.sttcp.config import SttcpConfig
from repro.sttcp.events import EventKind
from repro.tcp.segment import TcpFlags, TcpSegment
from repro.tcp.seq import seq_add

TOTAL = 30_000_000


def test_stray_text_past_the_window_after_takeover_leaves_the_stream_intact():
    """Ten bytes 1,000 past the backup's right edge, sent over the wire
    after the takeover: the backup must not read them as a hole the
    client will never fill (which would abort the connection)."""
    tb = build_testbed(seed=3, config=SttcpConfig(
        unrecoverable_gap_ns=seconds(1)))
    StreamServer(tb.primary, "srv-p", port=80).start()
    StreamServer(tb.backup, "srv-b", port=80).start()
    tb.pair.start()
    client = StreamClient(tb.client, "client", tb.service_ip, port=80,
                          total_bytes=TOTAL)
    client.start()
    tb.inject.at(seconds(1), HwCrash(tb.primary))
    sent = []

    def send_stray():
        mc = next(iter(tb.pair.backup.conns.values()))
        replica, own = mc.conn, client.sock.connection
        edge = replica.recv_buffer.bytes_read + replica.recv_buffer.capacity
        stray = TcpSegment(
            own.local_port, 80, seq=seq_add(replica.irs, 1 + edge + 1000),
            ack=seq_add(own.irs, 1 + own.recv_buffer.rcv_next),
            flags=TcpFlags.ACK, window=65535, payload=b"0123456789")
        tb.client.ip.send(tb.service_ip, IPProtocol.TCP, stray)
        sent.append(mc)

    tb.world.sim.schedule_at(millis(1600), send_stray)
    tb.run_until(10)
    assert tb.pair.backup.events.has(EventKind.TAKEOVER) and sent
    assert not tb.pair.backup.events.has(EventKind.UNRECOVERABLE)
    assert client.reset_count == 0
    assert client.corrupt_at is None
    assert client.received == TOTAL
    replica = sent[0].conn
    assert replica.peer_data_high <= replica.recv_buffer.highest_received
