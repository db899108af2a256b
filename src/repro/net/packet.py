"""IPv4 packets and the transport-protocol tags they carry."""

from __future__ import annotations

from typing import Any

from repro.net.addresses import IPAddress

__all__ = ["IPProtocol", "IPPacket", "IP_HEADER_BYTES"]

IP_HEADER_BYTES = 20


class IPProtocol:
    """Transport protocols the simulated stack demultiplexes."""

    TCP = "tcp"
    UDP = "udp"
    ICMP = "icmp"


class IPPacket:
    """An IPv4 packet with a structured transport payload.

    ``ttl`` exists so a routing loop in a buggy scenario terminates instead
    of looping forever; the flat Figure-2 LAN never decrements it below 63.

    A plain slotted class (not a dataclass) for construction speed on the
    per-segment hot path; ``size_bytes`` (IP header + payload) is cached
    because the link layer reads it several times per hop.
    """

    __slots__ = ("src", "dst", "protocol", "payload", "ttl", "size_bytes")

    def __init__(self, src: IPAddress, dst: IPAddress, protocol: str,
                 payload: Any, ttl: int = 64):
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.payload = payload
        self.ttl = ttl
        payload_size = getattr(payload, "size_bytes", None)
        if payload_size is None:
            payload_size = len(payload)
        self.size_bytes = IP_HEADER_BYTES + payload_size

    def decremented(self) -> "IPPacket":
        """Copy with TTL reduced by one (used when forwarding)."""
        return IPPacket(self.src, self.dst, self.protocol, self.payload,
                        self.ttl - 1)

    def __str__(self) -> str:
        return (f"IP[{self.src} -> {self.dst} {self.protocol} "
                f"{self.size_bytes}B ttl={self.ttl}]")
