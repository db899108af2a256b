"""Per-host IPv4 stack: interfaces, aliasing (VNICs), routing, demux.

IP aliasing is how the testbed gives both the primary and the backup the
shared ``serviceIP`` (paper Figure 2): the address is added as an alias on
each server's interface, so client packets flooded by the switch are
accepted and delivered up both servers' stacks.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import NetworkError
from repro.net.addresses import IPAddress
from repro.net.arp import ArpTable
from repro.net.frame import EtherType, EthernetFrame
from repro.net.nic import Nic
from repro.net.packet import IPPacket
from repro.net.pool import acquire_frame, acquire_packet, demote_packet
from repro.sim.world import World

__all__ = ["Interface", "IpStack"]


class Interface:
    """A NIC plus its IP configuration (primary address + aliases)."""

    __slots__ = ("_world", "nic", "network", "prefix_len", "addresses",
                 "addr_values", "arp", "__weakref__")

    def __init__(self, world: World, nic: Nic, network: IPAddress,
                 prefix_len: int, on_arp_learn: Callable[[], None]):
        self._world = world
        self.nic = nic
        self.network = network
        self.prefix_len = prefix_len
        self.addresses: list[IPAddress] = []
        # Raw values of `addresses`, kept in lockstep — owns() checks run
        # once per delivered packet, so membership must be one int-set hit.
        self.addr_values: set[int] = set()
        # A bound method, not a lambda: ArpTable holds this accessor for
        # the interface's lifetime, and world snapshots must pickle it.
        self.arp = ArpTable(world, nic, self._address_list, on_arp_learn,
                            name=f"{nic.name}.arp")

    def _address_list(self) -> list[IPAddress]:
        """Accessor handed to the ARP table (kept a method so it pickles)."""
        return self.addresses

    @property
    def primary_address(self) -> IPAddress:
        """The interface's machine address (first configured)."""
        if not self.addresses:
            raise NetworkError(f"{self.nic.name} has no IP address")
        return self.addresses[0]

    def add_address(self, ip: IPAddress) -> None:
        """Add an address; the first one added is the machine address, the
        rest are aliases (the paper's VNICs created via IP aliasing)."""
        if ip not in self.addresses:
            self.addresses.append(ip)
            self.addr_values.add(ip.value)
            self._world.route_epoch += 1

    def on_link(self, ip: IPAddress) -> bool:
        """True if ``ip`` falls inside this interface's subnet."""
        return ip.in_subnet(self.network, self.prefix_len)


class IpStack:
    """Routing and protocol demultiplexing for one host.

    Hosts are end systems, not routers: packets addressed to someone else
    are dropped (counted in :attr:`packets_not_for_us`).
    """

    __slots__ = ("_world", "name", "interfaces", "_default_gateway",
                 "_protocols", "_send_cache", "_cache_route_epoch",
                 "_loopback_label", "_packet_taps", "_promiscuous_taps",
                 "packets_sent", "packets_received", "packets_not_for_us",
                 "packets_unroutable", "__weakref__")

    def __init__(self, world: World, name: str):
        self._world = world
        self.name = name
        self.interfaces: list[Interface] = []
        self._default_gateway: Optional[IPAddress] = None
        self._protocols: dict[str, Callable[[IPPacket], None]] = {}
        # Send-plan cache: (dst_value, src_value|None) -> either the
        # local-delivery marker or (nic, resolved next-hop MAC, src ip).
        # Keyed off World.route_epoch, which every routing-relevant
        # configuration change bumps: interface addresses, the default
        # gateway, NIC fail/repair, static ARP entries.  A dynamic ARP
        # learn changes only the learning host's resolution, so it clears
        # only that host's plans (see add_interface).  Saves the owns()/
        # _route()/ARP walk on every packet of an established flow.
        self._send_cache: dict = {}
        self._cache_route_epoch = -1
        self._loopback_label = f"{name}.loopback"
        # Optional observer of every accepted inbound packet (metrics hooks).
        self._packet_taps: list[Callable[[IPPacket], None]] = []
        # Promiscuous observers: see every IPv4 packet the NIC accepted,
        # including packets addressed to IPs we do not own (e.g. multicast
        # -tapped service traffic recorded by the Sec. 4.3 stream logger).
        self._promiscuous_taps: list[Callable[[IPPacket], None]] = []
        self.packets_sent = 0
        self.packets_received = 0
        self.packets_not_for_us = 0
        self.packets_unroutable = 0

    # ------------------------------------------------------------- plumbing

    def add_interface(self, nic: Nic, addresses: list[IPAddress],
                      network: IPAddress, prefix_len: int = 24) -> Interface:
        """Register a NIC with its address list (first = machine address)."""
        iface = Interface(self._world, nic, network, prefix_len,
                          on_arp_learn=self._send_cache.clear)
        for ip in addresses:
            iface.add_address(ip)
        self.interfaces.append(iface)
        self._world.route_epoch += 1
        return iface

    def register_protocol(self, protocol: str,
                          handler: Callable[[IPPacket], None]) -> None:
        """Install the handler for a transport protocol."""
        self._protocols[protocol] = handler

    def add_packet_tap(self, tap: Callable[[IPPacket], None]) -> None:
        """Observe every packet accepted by this stack (read-only)."""
        self._packet_taps.append(tap)

    def add_promiscuous_tap(self, tap: Callable[[IPPacket], None]) -> None:
        """Observe every IPv4 packet the NIC delivered, owned or not."""
        self._promiscuous_taps.append(tap)

    def local_addresses(self) -> set[IPAddress]:
        """Every address owned by any interface."""
        return {ip for iface in self.interfaces for ip in iface.addresses}

    def owns(self, ip: IPAddress) -> bool:
        """True if any interface carries ``ip`` (including aliases)."""
        value = ip._value
        for iface in self.interfaces:
            if value in iface.addr_values:
                return True
        return False

    @property
    def default_gateway(self) -> Optional[IPAddress]:
        """The default route's next hop (assignable)."""
        return self._default_gateway

    @default_gateway.setter
    def default_gateway(self, gateway: Optional[IPAddress]) -> None:
        self._default_gateway = gateway
        self._world.route_epoch += 1

    # ---------------------------------------------------------------- send

    def send(self, dst: IPAddress, protocol: str, payload: Any,
             src: Optional[IPAddress] = None) -> None:
        """Route and transmit one packet.

        Local-delivery shortcut: a packet to one of our own addresses never
        touches the wire.  Otherwise pick the interface whose subnet covers
        ``dst`` (or the default-gateway interface), ARP-resolve the next
        hop, and hand the frame to the NIC.
        """
        epoch = self._world.route_epoch
        if epoch != self._cache_route_epoch:
            self._send_cache.clear()
            self._cache_route_epoch = epoch
        plan = self._send_cache.get(
            (dst._value, src._value if src is not None else None))
        if plan is not None:
            nic, mac, src_ip = plan
            if nic is None:
                packet = IPPacket(src or dst, dst, protocol, payload)
                self._world.sim.post(0, self._deliver_up, packet,
                                     label=self._loopback_label)
                return
            self.packets_sent += 1
            if nic._failed or nic._cable is None or not nic.host_up:
                return
            # One packet + one frame per data segment on an established
            # flow goes through here, so the wrappers come from the
            # recycle pools.  Both carry one creator claim that
            # Cable.transmit consumes (it is released on drop, or after
            # final delivery, cascading frame -> packet -> segment; see
            # repro.net.pool).
            packet = acquire_packet(src if src is not None else src_ip,
                                    dst, protocol, payload)
            # Nic.send inlined (keep in sync).
            frame = acquire_frame(mac, nic.mac, EtherType.IPV4, packet)
            nic.frames_sent += 1
            nic.bytes_sent += frame.size_bytes
            nic._cable.transmit(nic, frame)
            return
        self._send_slow(dst, protocol, payload, src)

    def _send_slow(self, dst: IPAddress, protocol: str, payload: Any,
                   src: Optional[IPAddress]) -> None:
        """Full route + ARP walk; caches the resulting plan when it is
        deterministic (local delivery, or next hop already resolved)."""
        key = (dst._value, src._value if src is not None else None)
        if self.owns(dst):
            self._send_cache[key] = (None, None, None)
            packet = IPPacket(src or dst, dst, protocol, payload)
            self._world.sim.call_soon(self._deliver_up, packet,
                                      label=self._loopback_label)
            return
        iface, next_hop = self._route(dst, src)
        if iface is None or next_hop is None:
            self.packets_unroutable += 1
            self._world.probes.fire("ip.unroutable", self.name,
                                    dst=str(dst))
            return
        src_ip = src if src is not None else iface.primary_address
        packet = IPPacket(src_ip, dst, protocol, payload)
        self.packets_sent += 1
        nic = iface.nic
        mac = iface.arp.lookup(next_hop)
        if mac is not None:
            self._send_cache[key] = (nic, mac, src_ip)
            nic.send(EthernetFrame(mac, nic.mac, EtherType.IPV4, packet))
            return
        # Unresolved next hop: ARP asynchronously, don't cache (the plan
        # isn't known yet, and resolution order must stay as-is).
        iface.arp.resolve(
            next_hop,
            lambda mac: nic.send(
                EthernetFrame(mac, nic.mac, EtherType.IPV4, packet)))

    def _route(self, dst: IPAddress, src: Optional[IPAddress]
               ) -> tuple[Optional[Interface], Optional[IPAddress]]:
        candidates = self.interfaces
        if src is not None:
            owning = [i for i in candidates if src in i.addresses]
            if owning:
                candidates = owning
        for iface in candidates:
            if iface.on_link(dst) and iface.nic.is_up:
                return iface, dst
        if self.default_gateway is not None:
            for iface in candidates:
                if iface.on_link(self.default_gateway) and iface.nic.is_up:
                    return iface, self.default_gateway
        return None, None

    # ------------------------------------------------------------- receive

    def receive_frame(self, frame: EthernetFrame, iface: Interface) -> None:
        """Entry point wired to the NIC (possibly via the host CPU model)."""
        if frame.ethertype == EtherType.ARP:
            iface.arp.handle_frame(frame)
            return
        if frame.ethertype != EtherType.IPV4:
            return
        packet = frame.payload
        if type(packet) is not IPPacket and not isinstance(packet, IPPacket):
            return
        if self._promiscuous_taps:
            # Taps may retain what they observe (the stream logger, test
            # fixtures keep whole packets): demote the wrapper chain to
            # GC-owned so the pools never recycle an object a tap saw.
            demote_packet(packet)
            for tap in self._promiscuous_taps:
                tap(packet)
        # owns() inlined (keep in sync): once per delivered packet.
        value = packet.dst._value
        for iface_ in self.interfaces:
            if value in iface_.addr_values:
                break
        else:
            # Not ours (unicast to someone else, or multicast-tapped
            # traffic for an IP we merely observe): count and drop.
            self.packets_not_for_us += 1
            return
        # _deliver_up inlined (keep in sync): this is the once-per-accepted
        # -packet path, and the helper frame is measurable at fleet scale.
        # The method itself stays for the loopback/local-delivery events.
        self.packets_received += 1
        if self._packet_taps:
            # Same demotion as the promiscuous taps above: tap observers
            # may keep the packet past this event, so it must not recycle.
            demote_packet(packet)
            for tap in self._packet_taps:
                tap(packet)
        handler = self._protocols.get(packet.protocol)
        if handler is None:
            self._world.probes.fire("ip.no-handler", self.name,
                                    "no protocol handler",
                                    protocol=packet.protocol)
            return
        handler(packet)

    def _deliver_up(self, packet: IPPacket) -> None:
        self.packets_received += 1
        if self._packet_taps:
            demote_packet(packet)  # tap observers may retain: see receive_frame
            for tap in self._packet_taps:
                tap(packet)
        handler = self._protocols.get(packet.protocol)
        if handler is None:
            self._world.probes.fire("ip.no-handler", self.name,
                                    "no protocol handler",
                                    protocol=packet.protocol)
            return
        handler(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<IpStack {self.name} ifaces={len(self.interfaces)}>"
