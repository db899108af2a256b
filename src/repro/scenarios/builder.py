"""Constructs the paper's experimental setup (Figure 2), exactly:

* an Ethernet switch connecting client, primary and backup;
* the client doubling as the gateway (paper: "the client in this case");
* virtual NICs via IP aliasing carrying the shared ``serviceIP``;
* a static ARP entry on the client mapping ``serviceIP`` to the multicast
  Ethernet address ``multiEA``, so the switch floods every client→server
  frame to both servers;
* a null-modem serial cable between the servers for the secondary HB link;
* a shared power strip (STONITH) reaching both servers.

``build_testbed(num_clients=N)`` generalizes the client side to N hosts —
same switch, same servers, same serviceIP trick — for the many-connection
workloads in :mod:`repro.workloads`.  Client 0 keeps the exact Figure-2
addresses (and stays the gateway); extra clients get addresses from
:meth:`Addresses.client_plan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

from repro.net.addresses import IPAddress, MacAddress
from repro.net.cable import Cable
from repro.net.nic import Nic
from repro.net.serial_link import SerialLink
from repro.net.switch import Switch, SwitchPort
from repro.sim.core import NS_PER_S
from repro.sim.world import World
from repro.tcp.connection import TcpConfig
from repro.host.host import Host
from repro.host.power import PowerStrip
from repro.faults.injector import FaultInjector
from repro.sttcp.config import SttcpConfig
from repro.sttcp.manager import SttcpPair

__all__ = ["Testbed", "Addresses", "LoggerAttachment", "build_testbed"]

#: The categories a testbed's ``world.trace`` keeps: the milestones of a
#: failover, a dozen entries per run — tight enough for long benchmarks,
#: rich enough to debug failures.
MILESTONE_CATEGORIES = frozenset({"fault", "power", "detect", "sttcp", "app"})

#: The two testbed modes (``build_testbed(mode=...)``).
MODES = ("sttcp", "baseline")

# Generated address plan for client hosts beyond the canonical Figure-2
# client (client 0): 10.0.1.1, 10.0.1.2, ... with MACs counted up from a
# locally-administered base.
_EXTRA_CLIENT_IP_BASE = IPAddress("10.0.1.1").value
_EXTRA_CLIENT_MAC_BASE = MacAddress("02:00:00:01:00:00").value


@dataclass(frozen=True)
class Addresses:
    """The Figure-2 address plan."""

    client_ip: IPAddress = field(default_factory=lambda: IPAddress("10.0.0.1"))
    primary_ip: IPAddress = field(default_factory=lambda: IPAddress("10.0.0.2"))
    backup_ip: IPAddress = field(default_factory=lambda: IPAddress("10.0.0.3"))
    service_ip: IPAddress = field(
        default_factory=lambda: IPAddress("10.0.0.100"))
    network: IPAddress = field(default_factory=lambda: IPAddress("10.0.0.0"))
    client_mac: MacAddress = field(
        default_factory=lambda: MacAddress("02:00:00:00:00:01"))
    primary_mac: MacAddress = field(
        default_factory=lambda: MacAddress("02:00:00:00:00:02"))
    backup_mac: MacAddress = field(
        default_factory=lambda: MacAddress("02:00:00:00:00:03"))
    # Group bit set in the first octet: a true multicast Ethernet address.
    multi_ea: MacAddress = field(
        default_factory=lambda: MacAddress("03:00:5e:00:00:64"))

    def client_plan(self, index: int) -> tuple[IPAddress, MacAddress]:
        """Generated (IP, MAC) for client host ``index`` (0-based).

        Client 0 is the canonical Figure-2 client; extra clients land on
        10.0.<1+>.<x> (inside the /16 the multi-client testbed routes as
        one subnet) with locally-administered MACs counted up from
        ``02:00:00:01:00:00``.
        """
        if index == 0:
            return self.client_ip, self.client_mac
        ip = IPAddress(_EXTRA_CLIENT_IP_BASE + (index - 1))
        mac = MacAddress(_EXTRA_CLIENT_MAC_BASE + index)
        return ip, mac


class LoggerAttachment(NamedTuple):
    """What :meth:`Testbed.add_logger` built (tuple-unpackable for old
    call sites: ``host, logger = tb.add_logger()``).  The logger's cable
    is registered as ``testbed.cables["logger"]``."""

    host: Host
    logger: "object"  # StreamLogger (imported lazily in add_logger)


class Testbed:
    """Everything the experiments touch, by name."""

    def __init__(self, world: World, addresses: Addresses, switch: Switch,
                 clients: list[Host], primary: Host, backup: Host,
                 cables: dict[str, Cable],
                 serial_link: Optional[SerialLink],
                 power_strip: PowerStrip,
                 pair: Optional[SttcpPair],
                 injector: FaultInjector):
        self.world = world
        self.addresses = addresses
        self.switch = switch
        #: All client hosts; ``clients[0]`` is the Figure-2 client/gateway.
        self.clients = clients
        self.primary = primary
        self.backup = backup
        self.cables = cables
        self.serial_link = serial_link
        self.power_strip = power_strip
        self.pair = pair
        self.inject = injector

    # Convenience aliases used throughout tests and benches.
    @property
    def client(self) -> Host:
        """The canonical Figure-2 client (first of :attr:`clients`)."""
        return self.clients[0]

    @property
    def service_ip(self) -> IPAddress:
        """The shared serviceIP clients connect to."""
        return self.addresses.service_ip

    @property
    def primary_cable(self) -> Cable:
        """The primary's cable to the switch."""
        return self.cables["primary"]

    @property
    def backup_cable(self) -> Cable:
        """The backup's cable to the switch."""
        return self.cables["backup"]

    def add_logger(self, ip: str = "10.0.0.4",
                   mac: str = "02:00:00:00:00:04") -> LoggerAttachment:
        """Attach the Sec. 4.3 stream logger: a fourth machine on the
        switch, subscribed to multiEA, passively recording the client
        byte stream and serving fetch fallbacks.  Also points the backup
        engine at it.  Returns a :class:`LoggerAttachment` (still
        unpackable as the historical ``(host, logger)`` pair)."""
        from repro.sttcp.logger import LOGGER_UDP_PORT, StreamLogger

        host = Host(self.world, "logger")
        nic = host.add_nic(mac, [ip], self.addresses.network)
        nic.join_multicast(self.addresses.multi_ea)
        port = self.switch.new_port()
        cable = Cable(self.world, nic, port)
        nic.attach_cable(cable)
        port.cable = cable
        self.cables["logger"] = cable
        self.power_strip.register(host)
        service_port = (self.pair.config.service_port
                        if self.pair is not None else 80)
        logger = StreamLogger(host, self.addresses.service_ip, service_port)
        if self.pair is not None:
            self.pair.backup.use_logger(ip, LOGGER_UDP_PORT)
        return LoggerAttachment(host, logger)

    def run_for(self, seconds: float) -> int:
        """Advance virtual time by ``seconds``."""
        return self.world.run_for(round(seconds * NS_PER_S))

    def run_until(self, seconds: float) -> int:
        """Run the world to absolute virtual time ``seconds``."""
        return self.world.run(until=round(seconds * NS_PER_S))

    # ----------------------------------------------------- warm-trial reuse

    def snapshot(self) -> bytes:
        """Serialize this *pristine* testbed for later :meth:`restore`.

        Valid only on a testbed straight out of :func:`build_testbed`:
        no apps attached, no events run, no RNG draws taken.  Campaign
        workers snapshot the first build of a grid point and thaw copies
        for the remaining trials instead of re-wiring Figure 2 from
        scratch (see :mod:`repro.campaign.warm`).
        """
        import pickle

        if self.world.sim.now != 0:
            raise ValueError("snapshot() requires a pristine testbed "
                             f"(sim clock at {self.world.sim.now}ns, not 0)")
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def restore(blob: bytes, seed: Optional[int] = None) -> "Testbed":
        """Thaw a :meth:`snapshot` into an independent testbed.

        ``seed`` re-keys every RNG stream in place (the snapshot was taken
        before any draws, so the thawed world is byte-for-byte equivalent
        to a cold ``build_testbed(seed=seed, ...)`` — the golden-trace
        suite pins this equivalence).
        """
        import pickle

        testbed: Testbed = pickle.loads(blob)
        if seed is not None:
            testbed.world.rng.reseed(seed)
        return testbed


def _cable_to_switch(world: World, nic: Nic, switch: Switch,
                     bandwidth_bps: int, delay_ns: int) -> tuple[Cable, SwitchPort]:
    port = switch.new_port()
    cable = Cable(world, nic, port, bandwidth_bps=bandwidth_bps,
                  propagation_delay_ns=delay_ns)
    nic.attach_cable(cable)
    port.cable = cable
    return cable, port


def build_testbed(seed: int = 0,
                  config: Optional[SttcpConfig] = None,
                  tcp_config: Optional[TcpConfig] = None,
                  mode: str = "sttcp",
                  num_clients: int = 1,
                  cc: Optional[str] = None,
                  bandwidth_bps: int = 100_000_000,
                  propagation_delay_ns: int = 1_000,
                  backup_frame_cost_ns: int = 0,
                  primary_frame_cost_ns: int = 0,
                  mirror_to_backup: bool = False,
                  egress_filtering: bool = False,
                  addresses: Optional[Addresses] = None) -> Testbed:
    """Build Figure 2.  Apps and faults are added by the caller.

    ``mode`` selects the server side: ``"sttcp"`` (the paper's pair) or
    ``"baseline"`` (same physical topology, no ST-TCP — the
    non-fault-tolerant baseline of Demo 1/3).

    ``cc`` selects the congestion-control algorithm for every TCP
    endpoint (client, primary, backup — and therefore the backup's
    suppressed replica connections): ``None`` keeps whatever
    ``tcp_config`` says, any registered name from
    :func:`repro.tcp.congestion.cc_names` overrides it.

    ``num_clients`` attaches that many client hosts to the switch; all get
    the static serviceIP→multiEA ARP entry, client 0 keeps the canonical
    addresses and stays the gateway for the servers.  With more than one
    client every NIC uses a /16 so the generated 10.0.1.x addresses are
    on-link for the servers.

    ``mirror_to_backup=True`` (old architecture, ablation A1) mirrors all
    forwarded unicast traffic to the backup's switch port and puts its NIC
    in promiscuous mode, so the backup also processes the primary→client
    stream; combine with ``backup_frame_cost_ns`` to reproduce the
    overload the paper describes in Sec. 3.

    ``egress_filtering=True`` turns on the switch's IGMP-snooping
    analogue: flooded frames are not sent down cables whose far-end NIC
    would discard them anyway.  Use it for fleet-scale testbeds (hundreds
    of clients), where flood fan-out is quadratic; it is off by default
    because it changes cable occupancy and NIC filter counters relative
    to the faithful Figure-2 broadcast network (see docs/scheduler.md).
    """
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if cc is not None:
        tcp_config = replace(tcp_config or TcpConfig(), cc=cc)
        tcp_config.validate()  # fail fast on an unknown algorithm
    addrs = addresses or Addresses()
    world = World(seed=seed, trace_categories=MILESTONE_CATEGORIES)
    switch = Switch(world, egress_filtering=egress_filtering)
    config = config or SttcpConfig()
    prefix_len = 24 if num_clients == 1 else 16

    clients = [Host(world, "client" if i == 0 else f"client{i}",
                    tcp_config=tcp_config) for i in range(num_clients)]
    primary = Host(world, "primary", tcp_config=tcp_config,
                   frame_processing_cost_ns=primary_frame_cost_ns)
    backup = Host(world, "backup", tcp_config=tcp_config,
                  frame_processing_cost_ns=backup_frame_cost_ns)

    client_nics = []
    for i, host in enumerate(clients):
        ip, mac = addrs.client_plan(i)
        client_nics.append(host.add_nic(mac, [ip], addrs.network,
                                        prefix_len=prefix_len))
    primary_nic = primary.add_nic(addrs.primary_mac,
                                  [addrs.primary_ip, addrs.service_ip],
                                  addrs.network, prefix_len=prefix_len)
    backup_nic = backup.add_nic(addrs.backup_mac,
                                [addrs.backup_ip, addrs.service_ip],
                                addrs.network, prefix_len=prefix_len)
    # Both servers subscribe to the multicast Ethernet address so the
    # flooded client traffic reaches them both.
    primary_nic.join_multicast(addrs.multi_ea)
    backup_nic.join_multicast(addrs.multi_ea)

    cables: dict[str, Cable] = {}
    ports: dict[str, SwitchPort] = {}
    wiring = [("client" if i == 0 else f"client{i}", nic)
              for i, nic in enumerate(client_nics)]
    wiring += [("primary", primary_nic), ("backup", backup_nic)]
    for name, nic in wiring:
        cables[name], ports[name] = _cable_to_switch(
            world, nic, switch, bandwidth_bps, propagation_delay_ns)

    # Every client is the gateway for its own traffic; its static ARP
    # entry aims serviceIP at the multicast address (the heart of the
    # Figure-2 trick).
    for host in clients:
        host.interfaces[0].arp.add_static(addrs.service_ip, addrs.multi_ea)
    for host in (primary, backup):
        host.set_default_gateway(addrs.client_ip)

    if mirror_to_backup:
        switch.set_mirror_port(ports["backup"])
        backup_nic.promiscuous = True

    power_strip = PowerStrip(world)
    for host in (*clients, primary, backup):
        power_strip.register(host)

    serial_link: Optional[SerialLink] = None
    pair: Optional[SttcpPair] = None
    if mode == "sttcp":
        primary_serial = primary.add_serial_port()
        backup_serial = backup.add_serial_port()
        if config.use_serial_hb:
            serial_link = SerialLink(world, primary_serial, backup_serial)
        pair = SttcpPair(world, primary, backup,
                         primary_ip=addrs.primary_ip,
                         backup_ip=addrs.backup_ip,
                         service_ip=addrs.service_ip,
                         gateway_ip=addrs.client_ip,
                         power_strip=power_strip, config=config,
                         serial_link=serial_link,
                         primary_serial=primary_serial,
                         backup_serial=backup_serial)

    injector = FaultInjector(world)
    return Testbed(world, addrs, switch, clients, primary, backup, cables,
                   serial_link, power_strip, pair, injector)
