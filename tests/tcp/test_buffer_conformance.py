"""Conformance sweep over the TCP buffer/segment path (ISSUE 7).

Every "red on pre-fix code" test here pins a real RFC-conformance bug
found while auditing the buffer layer ahead of the zero-copy rewrite:

* RFC 5681: a pure ACK whose advertised *window changed* is a window
  update, not a duplicate ack — the old dupack test ignored the window
  field, so three window updates triggered a spurious fast retransmit
  and collapsed cwnd on a perfectly healthy connection.
* RFC 793 ("don't shrink the window"): buffering out-of-order data
  shrank the advertised window with ``rcv_next`` unchanged, retracting
  the previously advertised right edge.  The fix ratchets the advertised
  edge (``ReceiveBuffer.advertise_window``) — physically safe because the
  acceptance edge ``bytes_read + capacity`` is monotonic and always at
  or beyond any prior advertisement.
* RFC 1122 4.2.2.21 (ack duplicate segments): a retransmitted *bare* FIN
  arriving while the data gap before it was still open elicited no ack
  at all, stalling the peer's gap recovery by a full RTO.
* RFC 9293 3.10.7.4 ("Process the segment text"): text at or past a
  received FIN must be ignored; a CLOSE_WAIT connection handed it to the
  application as more stream, and once the drained receive ring is
  handed back it would have written into freed storage.

The remaining tests pin behaviour the ring-buffer rewrite must preserve:
a partial cumulative ACK followed by a fast retransmit re-sends the
*original* remaining bytes, and an OOO-filled buffer still accepts the
advertised gap segment.
"""

from __future__ import annotations

import pytest

from repro.tcp.connection import TcpConfig, TcpConnection
from repro.tcp.segment import TcpFlags, TcpSegment
from repro.tcp.seq import seq_add, seq_sub

ISS = 1000     # our initial sequence number
IRS = 995000   # peer's initial sequence number


def patterned(n: int, stride: int = 1) -> bytes:
    return bytes((i * stride) % 251 for i in range(n))


def make_established(world, **config_kwargs):
    """A client-side connection driven by hand-crafted peer segments.

    Returns ``(conn, sent)`` where ``sent`` captures every segment the
    connection transmits (cleared of the handshake).
    """
    config = TcpConfig(**config_kwargs) if config_kwargs else None
    sent: list[TcpSegment] = []
    conn = TcpConnection(world, "t", "10.0.0.1", 1, "10.0.0.2", 2,
                         config=config, transmit=sent.append)
    conn.open_active(ISS)
    conn.segment_arrived(TcpSegment(2, 1, seq=IRS, ack=seq_add(ISS, 1),
                                    flags=TcpFlags.SYN | TcpFlags.ACK,
                                    window=65536))
    assert conn.state.value == "ESTABLISHED"
    sent.clear()
    return conn, sent


def from_peer(off: int = 0, payload: bytes = b"", ack_off: int = 0,
              window: int = 65536, fin: bool = False) -> TcpSegment:
    """A peer segment addressed in stream offsets (byte 0 = first byte)."""
    flags = TcpFlags.ACK | (TcpFlags.FIN if fin else 0)
    return TcpSegment(2, 1, seq=seq_add(IRS, 1 + off),
                      ack=seq_add(ISS, 1 + ack_off),
                      flags=flags, window=window, payload=payload)


def advertised_edges(sent: list[TcpSegment]) -> list[int]:
    """Advertised right edge (stream offset) of every ack we emitted."""
    return [seq_sub(seg.ack, seq_add(IRS, 1)) + seg.window
            for seg in sent if seg.ack_flag]


# --------------------------------------------------------------- RFC 5681


@pytest.mark.no_invariant_check
def test_window_update_is_not_a_duplicate_ack(world):
    """Three pure window updates must not fake a fast retransmit."""
    conn, sent = make_established(world)
    conn.write(patterned(4000))
    assert conn.flight_size == 4000
    for win in (20000, 30000, 40000):
        conn.segment_arrived(from_peer(ack_off=0, window=win))
    assert conn.dupacks_received == 0
    assert conn.retransmissions == 0
    assert conn.peer_window == 40000  # the updates themselves applied


@pytest.mark.no_invariant_check
def test_true_duplicate_acks_still_trigger_fast_retransmit(world):
    """Guard against overcorrection: unchanged-window dupacks count."""
    conn, sent = make_established(world)
    conn.write(patterned(4000))
    for _ in range(3):
        conn.segment_arrived(from_peer(ack_off=0, window=65536))
    assert conn.dupacks_received == 3
    assert conn.retransmissions == 1


@pytest.mark.no_invariant_check
def test_fast_retransmit_after_partial_ack_carries_original_bytes(world):
    """A cumulative ACK landing mid-segment must not shift the bytes the
    following fast retransmit carries (pins the ring-buffer rewrite)."""
    data = patterned(3000, stride=7)
    conn, sent = make_established(world, mss=1000)
    conn.write(data)
    sent.clear()
    conn.segment_arrived(from_peer(ack_off=1500))    # partial, mid-segment
    for _ in range(3):                               # then three dupacks
        conn.segment_arrived(from_peer(ack_off=1500))
    rtx = [s for s in sent if s.payload]
    assert rtx, "expected a fast retransmit"
    head = rtx[-1]
    off = seq_sub(head.seq, seq_add(ISS, 1))
    assert off == 1500
    assert bytes(head.payload) == data[1500:1500 + len(head.payload)]


# ---------------------------------------------------------------- RFC 793


@pytest.mark.no_invariant_check
def test_advertised_edge_never_retracts_when_ooo_buffered(world):
    """Buffered OOO data must not pull the advertised right edge back."""
    conn, sent = make_established(world)
    conn.segment_arrived(from_peer(off=0, payload=patterned(1000)))
    conn.segment_arrived(from_peer(off=3000, payload=patterned(1000)))
    edges = advertised_edges(sent)
    assert len(edges) >= 2
    assert all(b >= a for a, b in zip(edges, edges[1:])), edges


@pytest.mark.no_invariant_check
def test_ooo_filled_buffer_still_accepts_the_advertised_gap(world):
    """Fill the OOO store, then deliver the gap segment: it was inside
    the advertised window, so it must be accepted and drain everything."""
    conn, sent = make_established(world, mss=1024, recv_buffer_bytes=8192,
                                  send_buffer_bytes=8192)
    conn.segment_arrived(from_peer(off=0, payload=patterned(1024)))
    for off in range(2048, 8192, 1024):     # everything except [1024, 2048)
        conn.segment_arrived(from_peer(off=off, payload=patterned(1024, 3)))
    assert conn.recv_buffer.has_gap
    edges = advertised_edges(sent)
    assert all(b >= a for a, b in zip(edges, edges[1:])), edges
    # The gap fill arrives: every buffered byte must become readable.
    conn.segment_arrived(from_peer(off=1024, payload=patterned(1024, 5)))
    assert conn.recv_buffer.rcv_next == 8192
    assert not conn.recv_buffer.has_gap
    assert len(conn.read()) == 8192
    # After draining, the window reopens to full capacity — the ratchet
    # never advertises beyond what the buffer can physically accept.
    assert conn.recv_buffer.window == 8192


# --------------------------------------------------------------- RFC 1122


@pytest.mark.no_invariant_check
def test_retransmitted_bare_fin_with_open_gap_is_reacked(world):
    """A retransmitted bare FIN above a still-missing range must be
    re-acked so the peer's gap retransmission machinery keeps moving."""
    conn, sent = make_established(world)
    conn.segment_arrived(from_peer(off=0, payload=patterned(1000)))
    fin = from_peer(off=2000, fin=True)     # data [1000, 2000) was lost
    conn.segment_arrived(fin)
    n_after_first = len(sent)
    assert n_after_first >= 2               # data ack + gap-ack for the FIN
    conn.segment_arrived(fin)               # retransmitted, gap still open
    assert len(sent) > n_after_first, \
        "retransmitted bare FIN above a gap elicited no ack"
    assert conn.peer_fin_consumed is False


# --------------------------------------------------------------- RFC 9293


@pytest.mark.no_invariant_check
def test_text_at_or_past_a_received_fin_is_ignored(world):
    """After ``hello`` + FIN the stream is five bytes long: later text at
    offset 5, or straddling it, is not stream data — it is acked (the FIN
    included) and never reaches the application."""
    conn, sent = make_established(world)
    conn.segment_arrived(from_peer(off=0, payload=b"hello", fin=True))
    assert conn.state.value == "CLOSE_WAIT"
    conn.segment_arrived(from_peer(off=5, payload=b"AFTER-FIN"))
    assert conn.recv_buffer.rcv_next == 5
    assert conn.read() == b"hello"
    sent.clear()
    conn.segment_arrived(from_peer(off=3, payload=b"lo-AFTER"))
    conn.segment_arrived(from_peer(off=5, payload=b"AFTER-FIN"))
    assert conn.recv_buffer.rcv_next == 5
    assert conn.read() == b""
    assert sent and all(seg.ack == seq_add(IRS, 1 + 5 + 1) for seg in sent)
