"""Ethernet frames.

A frame's payload is a structured Python object (an
:class:`~repro.net.packet.IPPacket`, an ARP message, ...) rather than
bytes: the simulator models sizes and timing, not bit layouts.  Every
payload type therefore exposes ``size_bytes`` so link serialization delays
are faithful.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

from repro.net.addresses import MacAddress

__all__ = ["EtherType", "EthernetFrame", "SizedPayload",
           "ETHERNET_HEADER_BYTES", "ETHERNET_MIN_FRAME_BYTES"]

# 14-byte header + 4-byte FCS; preamble/IFG are ignored (constant offsets).
ETHERNET_HEADER_BYTES = 18
ETHERNET_MIN_FRAME_BYTES = 64


@runtime_checkable
class SizedPayload(Protocol):
    """Anything that can ride inside a frame or packet."""

    @property
    def size_bytes(self) -> int:
        """On-wire size in bytes."""


class EtherType:
    """The two ethertypes the testbed uses."""

    IPV4 = "ipv4"
    ARP = "arp"


class EthernetFrame:
    """An L2 frame: dst/src MAC, ethertype tag, structured payload.

    A plain slotted class (not a dataclass) for construction speed on the
    per-segment hot path; ``size_bytes`` honours the Ethernet minimum
    frame size and is cached because cables and NICs read it several
    times per hop.
    """

    __slots__ = ("dst", "src", "ethertype", "payload", "size_bytes")

    def __init__(self, dst: MacAddress, src: MacAddress, ethertype: str,
                 payload: Any):
        self.dst = dst
        self.src = src
        self.ethertype = ethertype
        self.payload = payload
        payload_size = getattr(payload, "size_bytes", None)
        if payload_size is None:
            payload_size = len(payload)
        self.size_bytes = max(ETHERNET_MIN_FRAME_BYTES,
                              ETHERNET_HEADER_BYTES + payload_size)

    def __str__(self) -> str:
        return (f"Frame[{self.src} -> {self.dst} {self.ethertype} "
                f"{self.size_bytes}B]")
