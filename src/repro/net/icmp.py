"""ICMP echo (ping).

Section 4.3 of the paper: when the HB fails on the IP link but survives on
the serial link, both servers ping the gateway and exchange the outcomes
over the serial HB to decide *whose* NIC failed.  :class:`Pinger` provides
that mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.net.addresses import IPAddress
from repro.net.packet import IPPacket, IPProtocol
from repro.sim.core import millis
from repro.sim.world import World

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.ip import IpStack

__all__ = ["IcmpMessage", "IcmpLayer", "Pinger",
           "ICMP_ECHO_REQUEST", "ICMP_ECHO_REPLY"]

ICMP_ECHO_REQUEST = "echo-request"
ICMP_ECHO_REPLY = "echo-reply"
_ICMP_HEADER_BYTES = 8


@dataclass(frozen=True)
class IcmpMessage:
    """An ICMP echo request/reply."""

    kind: str
    ident: int
    seq: int
    data_bytes: int = 56

    @property
    def size_bytes(self) -> int:
        """On-wire size of the ICMP message."""
        return _ICMP_HEADER_BYTES + self.data_bytes


class IcmpLayer:
    """Per-host ICMP: answers echo requests, dispatches replies to pingers."""

    def __init__(self, world: World, ip_stack: "IpStack", name: str = "icmp"):
        self._world = world
        self._ip = ip_stack
        self.name = name
        self._reply_handlers: dict[int, Callable[[IcmpMessage, IPAddress], None]] = {}
        self._next_ident = 1
        self.echo_requests_answered = 0

    def allocate_ident(self, handler: Callable[[IcmpMessage, IPAddress], None]) -> int:
        """Reserve an echo identifier and register its reply handler."""
        ident = self._next_ident
        self._next_ident += 1
        self._reply_handlers[ident] = handler
        return ident

    def send_echo_request(self, dst: IPAddress, ident: int, seq: int,
                          src: Optional[IPAddress] = None) -> None:
        """Transmit one echo request."""
        msg = IcmpMessage(ICMP_ECHO_REQUEST, ident, seq)
        self._ip.send(dst, IPProtocol.ICMP, msg, src=src)

    def handle_packet(self, packet: IPPacket) -> None:
        """Process an inbound ICMP packet (reply or dispatch)."""
        msg = packet.payload
        if not isinstance(msg, IcmpMessage):
            return
        if msg.kind == ICMP_ECHO_REQUEST:
            self.echo_requests_answered += 1
            reply = IcmpMessage(ICMP_ECHO_REPLY, msg.ident, msg.seq,
                                msg.data_bytes)
            self._world.probes.fire("icmp.echo-reply", self.name,
                                    "echo reply", to=str(packet.src))
            self._ip.send(packet.src, IPProtocol.ICMP, reply, src=packet.dst)
        elif msg.kind == ICMP_ECHO_REPLY:
            handler = self._reply_handlers.get(msg.ident)
            if handler is not None:
                handler(msg, packet.src)


class Pinger:
    """Sends one echo request at a time and reports success/timeout.

    ``on_result(success: bool)`` fires exactly once per :meth:`ping` call —
    either when the reply arrives or when the timeout elapses.
    """

    DEFAULT_TIMEOUT_NS = millis(100)

    def __init__(self, world: World, icmp: IcmpLayer, target: IPAddress,
                 timeout_ns: int = DEFAULT_TIMEOUT_NS, name: str = "pinger"):
        self._world = world
        self._icmp = icmp
        self.target = target
        self.timeout_ns = timeout_ns
        self.name = name
        self._ident = icmp.allocate_ident(self._on_reply)
        self._seq = 0
        self._outstanding: Optional[int] = None  # seq awaiting reply
        self._on_result: Optional[Callable[[bool], None]] = None
        self._timeout_handle = None
        self.successes = 0
        self.failures = 0

    def ping(self, on_result: Callable[[bool], None]) -> None:
        """Issue one echo request; ``on_result`` gets True/False once."""
        if self._outstanding is not None:
            # A previous probe is still pending: count it as failed so the
            # caller's bookkeeping stays one-result-per-ping.
            self._finish(False)
        self._seq += 1
        self._outstanding = self._seq
        self._on_result = on_result
        self._icmp.send_echo_request(self.target, self._ident, self._seq)
        self._timeout_handle = self._world.sim.schedule(
            self.timeout_ns, self._on_timeout, self._seq,
            label=f"{self.name}.timeout")

    def _on_reply(self, msg: IcmpMessage, _src: IPAddress) -> None:
        if self._outstanding is not None and msg.seq == self._outstanding:
            if self._timeout_handle is not None:
                self._timeout_handle.cancel()
            self._finish(True)

    def _on_timeout(self, seq: int) -> None:
        if self._outstanding == seq:
            self._finish(False)

    def _finish(self, success: bool) -> None:
        self._outstanding = None
        callback, self._on_result = self._on_result, None
        if success:
            self.successes += 1
        else:
            self.failures += 1
        if callback is not None:
            callback(success)
