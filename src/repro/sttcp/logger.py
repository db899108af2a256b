"""The logger extension (paper Sec. 4.3, referencing [2]).

The one unrecoverable single failure in base ST-TCP: the primary crashes
*while the backup is still fetching client bytes the primary had already
acknowledged* — the client will never retransmit them (they were acked)
and the only copy died with the primary.  "For critical applications, a
logger can be added to the system to address this output commit problem."

:class:`StreamLogger` is that component: a third machine on the LAN whose
NIC also subscribes to ``multiEA``, passively recording the in-order
client byte stream of every service connection.  The backup's fetch
protocol falls back to the logger when the primary cannot answer.

The logger is deliberately dumb — no ST-TCP engine, no TCP endpoint of its
own — just per-connection reassembly of the tapped segments plus a tiny
UDP query protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.net.addresses import IPAddress
from repro.net.packet import IPPacket
from repro.tcp.buffers import ReceiveBuffer
from repro.tcp.segment import TcpSegment
from repro.tcp.seq import seq_add, seq_sub
from repro.host.host import Host
from repro.sttcp.control import FetchReply, FetchRequest
from repro.sttcp.state import ConnKey

__all__ = ["StreamLogger", "LoggedConnection", "LOGGER_UDP_PORT"]

LOGGER_UDP_PORT = 7079


@dataclass
class LoggedConnection:
    """Reassembled client→server byte stream of one tapped connection."""

    key: ConnKey
    client_isn: int
    buffer: ReceiveBuffer = field(
        default_factory=lambda: ReceiveBuffer(capacity=1 << 30))
    # The logger never releases bytes (a real one would spool to disk); we
    # additionally keep the full stream for range queries after reads.
    stream: bytearray = field(default_factory=bytearray)

    def record(self, segment: TcpSegment) -> None:
        """Fold one tapped segment into the reassembled stream."""
        if not segment.payload:
            return
        offset = seq_sub(segment.seq, seq_add(self.client_isn, 1))
        if offset < 0:
            return
        newly = self.buffer.receive(offset, segment.payload)
        if newly:
            self.stream.extend(self.buffer.read(newly))

    @property
    def bytes_logged(self) -> int:
        """Contiguous client bytes recorded so far."""
        return len(self.stream)

    def get_range(self, start: int, end: int) -> Optional[bytes]:
        """Recorded bytes in [start, end) (empty past the end)."""
        if start >= len(self.stream):
            return b""
        return bytes(self.stream[start:end])


class StreamLogger:
    """A passive recorder of client→service traffic with a fetch service.

    Attach it to a host whose NIC is subscribed to the testbed's multicast
    Ethernet address (the scenario builder's ``add_logger`` helper does
    this), then point the backup engine's fallback at
    ``logger_ip``/:data:`LOGGER_UDP_PORT`.
    """

    def __init__(self, host: Host, service_ip: IPAddress, service_port: int,
                 name: str = "logger"):
        self.host = host
        self.service_ip = service_ip
        self.service_port = service_port
        self.name = name
        self.connections: dict[ConnKey, LoggedConnection] = {}
        self.fetches_served = 0
        self.fetches_unavailable = 0
        host.ip.add_promiscuous_tap(self._on_packet)
        host.udp.bind(LOGGER_UDP_PORT, self._on_fetch)

    # ------------------------------------------------------------ recording

    def _on_packet(self, packet: IPPacket) -> None:
        segment = packet.payload
        if not isinstance(segment, TcpSegment):
            return
        if packet.dst != self.service_ip:
            return
        if segment.dst_port != self.service_port:
            return
        key: ConnKey = (packet.src.value, segment.src_port)
        if segment.syn and not segment.ack_flag:
            # New connection: the client's ISN anchors the offsets.
            self.connections[key] = LoggedConnection(key, segment.seq)
            return
        logged = self.connections.get(key)
        if logged is not None:
            logged.record(segment)

    # ---------------------------------------------------------- fetch serving

    def _on_fetch(self, payload, src_ip: IPAddress, src_port: int) -> None:
        if not isinstance(payload, FetchRequest):
            return
        logged = self.connections.get(payload.key)
        for start, end in payload.ranges:
            if logged is None:
                self.fetches_unavailable += 1
                self.host.udp.send(src_ip, src_port, LOGGER_UDP_PORT,
                                   FetchReply(payload.key, start,
                                              unavailable=True))
                continue
            data = logged.get_range(start, end)
            if not data:
                self.fetches_unavailable += 1
                self.host.udp.send(src_ip, src_port, LOGGER_UDP_PORT,
                                   FetchReply(payload.key, start,
                                              unavailable=True))
                continue
            self.fetches_served += 1
            offset = start
            while offset < start + len(data):
                chunk = data[offset - start:offset - start + 4096]
                self.host.udp.send(src_ip, src_port, LOGGER_UDP_PORT,
                                   FetchReply(payload.key, offset, chunk))
                offset += len(chunk)
