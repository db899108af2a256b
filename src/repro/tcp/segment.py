"""TCP segments."""

from __future__ import annotations

__all__ = ["TcpFlags", "TcpSegment", "TCP_HEADER_BYTES"]

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
                 "payload", "size_bytes")

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
