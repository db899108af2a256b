"""Address Resolution Protocol with static-entry support.

The testbed (paper Figure 2) relies on one *static* ARP entry on the
gateway/client mapping ``serviceIP`` to the multicast Ethernet address
``multiEA``.  Everything else resolves dynamically with ordinary
request/reply ARP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.net.addresses import BROADCAST_MAC, IPAddress, MacAddress
from repro.net.frame import EtherType, EthernetFrame
from repro.sim.world import World

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.nic import Nic

__all__ = ["ArpMessage", "ArpTable", "ARP_REQUEST", "ARP_REPLY"]

ARP_REQUEST = "request"
ARP_REPLY = "reply"
_ARP_SIZE_BYTES = 28


@dataclass(frozen=True)
class ArpMessage:
    """An ARP request or reply."""

    op: str
    sender_mac: MacAddress
    sender_ip: IPAddress
    target_mac: MacAddress
    target_ip: IPAddress

    @property
    def size_bytes(self) -> int:
        """On-wire size of the ARP message."""
        return _ARP_SIZE_BYTES


class ArpTable:
    """Per-interface ARP resolver and cache.

    ``resolve`` either invokes the continuation immediately (cache/static
    hit) or broadcasts a request and queues the continuation until the
    reply arrives.  Unresolvable addresses simply never call back — like a
    real stack, the queued packet eventually times out at a higher layer.
    """

    def __init__(self, world: World, nic: "Nic", my_ips: Callable[[], list[IPAddress]],
                 on_learn: Callable[[], None], name: str = "arp"):
        self._world = world
        self._nic = nic
        self._my_ips = my_ips
        # Called when a dynamic entry appears or changes: what this table
        # resolves differently now is its own host's business only.
        self._on_learn = on_learn
        self.name = name
        self._static: dict[IPAddress, MacAddress] = {}
        self._cache: dict[IPAddress, MacAddress] = {}
        self._pending: dict[IPAddress, list[Callable[[MacAddress], None]]] = {}
        self._last_request_at: dict[IPAddress, int] = {}
        self.request_retry_ns = 1_000_000_000  # re-ARP at most once a second
        self.requests_sent = 0
        self.replies_sent = 0

    # --------------------------------------------------------- configuration

    def add_static(self, ip: IPAddress, mac: MacAddress) -> None:
        """Install a permanent mapping (the serviceIP → multiEA trick)."""
        self._static[ip] = mac
        # Resolution changed: invalidate cached IP-layer send plans.
        self._world.route_epoch += 1
        self._world.probes.fire("arp.static", self.name, "static entry",
                                ip=str(ip), mac=str(mac))

    def lookup(self, ip: IPAddress) -> MacAddress | None:
        """Non-blocking lookup: static first, then dynamic cache."""
        return self._static.get(ip) or self._cache.get(ip)

    # ------------------------------------------------------------ resolution

    def resolve(self, ip: IPAddress, on_resolved: Callable[[MacAddress], None]) -> None:
        """Deliver the MAC for ``ip`` to ``on_resolved``, now or later."""
        mac = self.lookup(ip)
        if mac is not None:
            on_resolved(mac)
            return
        waiters = self._pending.setdefault(ip, [])
        waiters.append(on_resolved)
        # The first waiter triggers a request; later waiters re-trigger it
        # if the previous one has gone unanswered (lost request or reply).
        last = self._last_request_at.get(ip)
        now = self._world.sim.now
        if last is None or now - last >= self.request_retry_ns:
            self._last_request_at[ip] = now
            self._send_request(ip)

    def _send_request(self, ip: IPAddress) -> None:
        my_ips = self._my_ips()
        sender_ip = my_ips[0] if my_ips else IPAddress(0)
        msg = ArpMessage(ARP_REQUEST, self._nic.mac, sender_ip,
                         MacAddress(0), ip)
        self.requests_sent += 1
        self._world.probes.fire("arp.request", self.name, target=str(ip))
        self._nic.send(EthernetFrame(BROADCAST_MAC, self._nic.mac,
                                     EtherType.ARP, msg))

    # --------------------------------------------------------------- receive

    def handle_frame(self, frame: EthernetFrame) -> None:
        """Process an inbound ARP frame (called by the IP stack demux)."""
        msg = frame.payload
        if not isinstance(msg, ArpMessage):
            return
        # Opportunistically learn the sender (standard ARP behaviour), but
        # never overwrite a static entry and never learn multicast MACs.
        if (msg.sender_ip not in self._static
                and not msg.sender_mac.is_multicast
                and msg.sender_ip.value != 0):
            if self._cache.get(msg.sender_ip) != msg.sender_mac:
                self._cache[msg.sender_ip] = msg.sender_mac
                self._on_learn()
            self._flush_pending(msg.sender_ip, msg.sender_mac)
        if msg.op == ARP_REQUEST and msg.target_ip in self._my_ips():
            reply = ArpMessage(ARP_REPLY, self._nic.mac, msg.target_ip,
                               msg.sender_mac, msg.sender_ip)
            self.replies_sent += 1
            self._world.probes.fire("arp.reply", self.name,
                                    to=str(msg.sender_ip))
            self._nic.send(EthernetFrame(msg.sender_mac, self._nic.mac,
                                         EtherType.ARP, reply))

    def _flush_pending(self, ip: IPAddress, mac: MacAddress) -> None:
        waiters = self._pending.pop(ip, [])
        for on_resolved in waiters:
            on_resolved(mac)
