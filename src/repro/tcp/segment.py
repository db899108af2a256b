"""TCP segments, plus their recycle pool (see repro.net.pool for the
ownership protocol — the pool lives here rather than in repro.net.pool
because that module must not import repro.tcp)."""

from __future__ import annotations

__all__ = ["TcpFlags", "TcpSegment", "TCP_HEADER_BYTES",
           "SEGMENT_POOL", "SEGMENT_POOL_MAX",
           "acquire_segment", "release_segment"]

TCP_HEADER_BYTES = 20


class TcpFlags:
    """Flag bit masks (subset of the real header we model)."""

    SYN = 0x01
    ACK = 0x02
    FIN = 0x04
    RST = 0x08
    PSH = 0x10

    @staticmethod
    def describe(flags: int) -> str:
        """Render flag bits as e.g. 'SYN|ACK'."""
        return _FLAG_NAMES[flags & 0x1F]


def _flag_names(flags: int) -> str:
    names = [name for bit, name in ((TcpFlags.SYN, "SYN"),
                                    (TcpFlags.ACK, "ACK"),
                                    (TcpFlags.FIN, "FIN"),
                                    (TcpFlags.RST, "RST"),
                                    (TcpFlags.PSH, "PSH"))
             if flags & bit]
    return "|".join(names) if names else "-"


#: Every combination of the five flag bits, rendered once.
_FLAG_NAMES = tuple(_flag_names(flags) for flags in range(32))


class TcpSegment:
    """One TCP segment.

    ``seq``/``ack`` are 32-bit wire sequence numbers.  ``payload`` is real
    bytes — the simulator transfers actual data so end-to-end integrity
    (exactly-once, in-order delivery across failover) can be asserted
    byte-for-byte in tests.

    A plain slotted class rather than a dataclass: tens of thousands of
    segments are built per benchmark run and the generated dataclass
    ``__init__``/``__post_init__`` pair costs ~3x a hand-written one.
    ``size_bytes`` (header + payload) is computed once because the link
    layer reads it several times per hop.
    """

    __slots__ = ("src_port", "dst_port", "seq", "ack", "flags", "window",
                 "payload", "size_bytes", "_claims")

    def __init__(self, src_port: int, dst_port: int, seq: int, ack: int,
                 flags: int, window: int, payload: bytes = b""):
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.window = window
        self.payload = payload
        self.size_bytes = TCP_HEADER_BYTES + len(payload)
        self._claims = 0  # 0 = GC-owned; >0 = pooled (see repro.net.pool)

    @property
    def syn(self) -> bool:
        """SYN flag set."""
        return bool(self.flags & TcpFlags.SYN)

    @property
    def ack_flag(self) -> bool:
        """ACK flag set."""
        return bool(self.flags & TcpFlags.ACK)

    @property
    def fin(self) -> bool:
        """FIN flag set."""
        return bool(self.flags & TcpFlags.FIN)

    @property
    def rst(self) -> bool:
        """RST flag set."""
        return bool(self.flags & TcpFlags.RST)

    @property
    def seq_space(self) -> int:
        """Sequence-space the segment occupies (SYN and FIN count as one)."""
        return len(self.payload) + (1 if self.syn else 0) + (1 if self.fin else 0)

    def __str__(self) -> str:
        return (f"TCP[{self.src_port}->{self.dst_port} "
                f"{TcpFlags.describe(self.flags)} seq={self.seq} ack={self.ack} "
                f"win={self.window} len={len(self.payload)}]")


# ------------------------------------------------------------ recycle pool
#
# Same ownership protocol as repro.net.pool: _claims == 0 means GC-owned
# (plain constructor — tests, handshake paths), _claims >= 1 means pooled
# with one creator claim; holders that keep a segment past the current
# event retain, and the last release scrubs + recycles.

#: Cap on the free list (see repro.net.pool for sizing rationale).
SEGMENT_POOL_MAX = 256

#: The free list itself (tests inspect its depth and contents).
SEGMENT_POOL: list[TcpSegment] = []


def acquire_segment(src_port: int, dst_port: int, seq: int, ack: int,
                    flags: int, window: int,
                    payload: bytes = b"") -> TcpSegment:
    """A managed segment (one creator claim), recycled when possible."""
    if SEGMENT_POOL:
        segment = SEGMENT_POOL.pop()
        segment.src_port = src_port
        segment.dst_port = dst_port
        segment.seq = seq
        segment.ack = ack
        segment.flags = flags
        segment.window = window
        segment.payload = payload
        segment.size_bytes = TCP_HEADER_BYTES + len(payload)
    else:
        segment = TcpSegment(src_port, dst_port, seq, ack, flags, window,
                             payload)
    segment._claims = 1
    return segment


def release_segment(segment: TcpSegment) -> None:
    """Drop one claim; at zero, scrub the payload ref and recycle."""
    claims = segment._claims
    if claims == 0:          # unmanaged: the GC owns it
        return
    if claims > 1:
        segment._claims = claims - 1
        return
    segment._claims = 0
    segment.payload = b""    # drop the (possibly large) bytes reference
    if len(SEGMENT_POOL) < SEGMENT_POOL_MAX:
        SEGMENT_POOL.append(segment)


# Register with the frame/packet pool so release_packet can cascade the
# creator claim down to the segment without importing repro.tcp there.
from repro.net.pool import _register_segment_cascade  # noqa: E402

_register_segment_cascade(TcpSegment, release_segment, SEGMENT_POOL)
