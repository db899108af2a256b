"""Segment arrival in RFC 9293 §3.10.7.4 order (see
docs/rfc9293-conformance.md): one acceptability test runs first, and a
segment it rejects is acked and dropped with nothing recorded.

Two deliberate exceptions are pinned: a zero-length segment exactly at
the right edge is acceptable (here), and a backup replica takes an ACK
of bytes its application has not written yet, text and all
(tests/sttcp/test_backup.py).
"""

from __future__ import annotations

import pytest

from repro.tcp.connection import TcpConnection
from repro.tcp.segment import TcpFlags, TcpSegment
from repro.tcp.seq import seq_add
from repro.tcp.states import TcpState
from tests.tcp.test_buffer_conformance import (IRS, ISS, from_peer,
                                               make_established, patterned)


def rst_from_peer(off: int) -> TcpSegment:
    return TcpSegment(2, 1, seq=seq_add(IRS, 1 + off), ack=0,
                      flags=TcpFlags.RST, window=0)


def only_pure_ack(sent: list[TcpSegment], rcv_off: int) -> bool:
    """Exactly one segment went out: a pure ACK of ``rcv_off``."""
    return (len(sent) == 1 and sent[0].flags == TcpFlags.ACK
            and not sent[0].payload
            and sent[0].ack == seq_add(IRS, 1 + rcv_off))


@pytest.mark.no_invariant_check
def test_in_window_rst_draws_a_challenge_ack_and_one_at_rcv_nxt_resets(world):
    """RFC 5961 §3.2: only an RST exactly at RCV.NXT resets."""
    conn, sent = make_established(world)
    conn.segment_arrived(from_peer(off=0, payload=patterned(100)))
    sent.clear()
    conn.segment_arrived(rst_from_peer(off=1100))
    assert conn.state is TcpState.ESTABLISHED
    assert only_pure_ack(sent, 100)
    sent.clear()
    conn.segment_arrived(rst_from_peer(off=100))
    assert conn.state is TcpState.CLOSED
    assert sent == []


@pytest.mark.no_invariant_check
def test_text_on_an_ack_of_unsent_data_is_acked_and_dropped(world):
    conn, sent = make_established(world)
    conn.write(patterned(100))
    window = conn.peer_window
    sent.clear()
    conn.segment_arrived(from_peer(off=0, payload=b"hello", ack_off=5000,
                                   window=1234))
    assert conn.recv_buffer.rcv_next == 0
    assert conn.peer_window == window
    assert conn.snd_una_off == 0
    assert only_pure_ack(sent, 0)


@pytest.mark.no_invariant_check
def test_a_stray_fin_past_the_window_does_not_hide_the_real_one(world):
    conn, sent = make_established(world)
    conn.segment_arrived(from_peer(off=1_000_000, fin=True))
    assert conn.peer_fin_off is None
    conn.segment_arrived(from_peer(off=0, payload=patterned(10), fin=True))
    assert conn.state is TcpState.CLOSE_WAIT


@pytest.mark.no_invariant_check
def test_nothing_is_recorded_from_text_past_the_window(world):
    """Before the first step accepts a segment, only the arrival counters
    move: not ``peer_data_high``, the peer window or an RTT sample."""
    conn, sent = make_established(world)
    conn.write(patterned(100))
    samples, window = conn.rtt.samples, conn.peer_window
    sent.clear()
    edge = conn.recv_buffer.bytes_read + conn.recv_buffer.capacity
    conn.segment_arrived(from_peer(off=edge + 1000, payload=patterned(10),
                                   ack_off=100, window=1234))
    assert conn.peer_data_high == 0
    assert (conn.peer_window, conn.rtt.samples) == (window, samples)
    assert conn.snd_una_off == 0 and conn.segments_received == 2
    assert only_pure_ack(sent, 0)


@pytest.mark.no_invariant_check
def test_a_zero_length_segment_exactly_at_the_right_edge_is_acceptable(world):
    """Linux's ``tcp_sequence`` takes it, and so do we: its ack counts.
    One byte further it is acked and dropped."""
    conn, sent = make_established(world)
    conn.write(patterned(100))
    sent.clear()
    edge = conn.recv_buffer.bytes_read + conn.recv_buffer.capacity
    conn.segment_arrived(from_peer(off=edge + 1, ack_off=40))
    assert conn.snd_una_off == 0
    assert only_pure_ack(sent, 0)
    sent.clear()
    conn.segment_arrived(from_peer(off=edge, ack_off=40))
    assert conn.snd_una_off == 40
    assert sent == []


@pytest.mark.no_invariant_check
def test_an_rst_outside_the_window_is_dropped_without_an_ack(world):
    conn, sent = make_established(world)
    edge = conn.recv_buffer.bytes_read + conn.recv_buffer.capacity
    conn.segment_arrived(rst_from_peer(off=edge + 1))
    conn.segment_arrived(rst_from_peer(off=-1))
    assert conn.state is TcpState.ESTABLISHED
    assert sent == []


@pytest.mark.no_invariant_check
@pytest.mark.parametrize("fin_numbered", [False, True])
def test_past_a_consumed_fin_an_rst_at_either_number_resets(world,
                                                           fin_numbered):
    """This stack's SND.NXT does not count its own FIN, so its abort
    after a FIN carries the FIN's number; a peer that lost the connection
    answers with RFC's RCV.NXT, one more.  Both reset."""
    conn, sent = make_established(world)
    conn.segment_arrived(from_peer(off=0, payload=patterned(10), fin=True))
    assert conn.state is TcpState.CLOSE_WAIT
    sent.clear()
    conn.segment_arrived(rst_from_peer(off=11 if fin_numbered else 10))
    assert conn.state is TcpState.CLOSED
    assert sent == []


@pytest.mark.no_invariant_check
def test_a_syn_in_a_synchronized_state_draws_a_challenge_ack(world):
    """RFC 5961 §4, in the window or not."""
    conn, sent = make_established(world)
    for off in (5, -1):
        sent.clear()
        conn.segment_arrived(TcpSegment(2, 1, seq=seq_add(IRS, 1 + off),
                                        ack=0, flags=TcpFlags.SYN,
                                        window=65535))
        assert conn.state is TcpState.ESTABLISHED
        assert only_pure_ack(sent, 0)


def passive(world):
    """A server-side connection in SYN_RCVD and what it sent."""
    sent: list[TcpSegment] = []
    conn = TcpConnection(world, "s", "10.0.0.2", 2, "10.0.0.1", 1,
                         transmit=sent.append)
    conn.open_passive(ISS)
    syn = TcpSegment(1, 2, seq=IRS, ack=0, flags=TcpFlags.SYN, window=65535)
    conn.segment_arrived(syn)
    assert conn.state is TcpState.SYN_RCVD
    return conn, sent, syn


@pytest.mark.no_invariant_check
def test_a_retransmitted_syn_in_syn_rcvd_draws_the_syn_ack_again(world):
    conn, sent, syn = passive(world)
    sent.clear()
    conn.segment_arrived(syn)
    assert conn.state is TcpState.SYN_RCVD
    assert [s.flags for s in sent] == [TcpFlags.SYN | TcpFlags.ACK]


@pytest.mark.no_invariant_check
def test_an_rst_in_listen_is_ignored(world):
    """RFC 9293 §3.10.7.2: nothing this incarnation sent can be reset."""
    conn = TcpConnection(world, "s", "10.0.0.2", 2, "10.0.0.1", 1)
    conn.open_passive(ISS)
    conn.segment_arrived(TcpSegment(1, 2, seq=IRS, ack=0, flags=TcpFlags.RST,
                                    window=0))
    assert conn.state is TcpState.LISTEN
