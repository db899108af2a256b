"""A simulated machine: NICs, IP/TCP/UDP/ICMP stacks, serial ports, apps,
power state, and an optional CPU cost model.

A host that loses power (HW crash, OS crash, or STONITH) goes silent
everywhere at once: inbound frames are dropped, TCP timers freeze, serial
ports stop, applications stop ticking.  That silence — on every channel
simultaneously — is precisely the symptom ST-TCP's dual-link heartbeat is
designed to recognize (Table 1 row 1).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from repro.net.addresses import IPAddress, MacAddress
from repro.net.frame import EthernetFrame
from repro.net.icmp import IcmpLayer
from repro.net.ip import Interface, IpStack
from repro.net.nic import Nic
from repro.net.packet import IPProtocol
from repro.net.serial_link import SerialPort
from repro.net.udp import UdpLayer
from repro.sim.world import World
from repro.tcp.connection import TcpConfig
from repro.tcp.stack import TcpStack

from repro.host.cpu import CpuModel
from repro.host.osmodel import OperatingSystem

__all__ = ["Host"]


class Host:
    """One machine of the testbed."""

    def __init__(self, world: World, name: str,
                 tcp_config: Optional[TcpConfig] = None,
                 frame_processing_cost_ns: int = 0):
        self.world = world
        self.name = name
        self.ip = IpStack(world, f"{name}.ip")
        self.tcp = TcpStack(world, self.ip, f"{name}.tcp", tcp_config)
        self.udp = UdpLayer(world, self.ip, f"{name}.udp")
        self.icmp = IcmpLayer(world, self.ip, f"{name}.icmp")
        self.ip.register_protocol(IPProtocol.UDP, self.udp.handle_packet)
        self.ip.register_protocol(IPProtocol.ICMP, self.icmp.handle_packet)
        self.os = OperatingSystem(self)
        self.nics: list[Nic] = []
        self.interfaces: list[Interface] = []
        self.serial_ports: list[SerialPort] = []
        self.apps: list = []
        self.powered_on = True
        # Per-frame processing cost; >0 activates the FIFO CPU model (used
        # by the backup-overload ablation).
        self.frame_processing_cost_ns = frame_processing_cost_ns
        self.cpu: Optional[CpuModel] = (
            CpuModel(world, f"{name}.cpu") if frame_processing_cost_ns > 0
            else None)
        # Subscribers notified on power-off (ST-TCP engines, monitors).
        self.on_power_off: list[Callable[[], None]] = []
        self.frames_dropped_host_down = 0

    # ------------------------------------------------------------- wiring

    def add_nic(self, mac: "MacAddress | str",
                addresses: "list[IPAddress | str]",
                network: "IPAddress | str", prefix_len: int = 24) -> Nic:
        """Create a NIC with its IP configuration (first address = machine
        address; the rest are aliases, e.g. the shared serviceIP)."""
        nic = Nic(self.world, f"{self.name}.nic{len(self.nics)}",
                  MacAddress(mac))
        nic.host_up = self.is_up
        ips = [IPAddress(a) for a in addresses]
        iface = self.ip.add_interface(nic, ips, IPAddress(network), prefix_len)
        # partial over the bound method, not a lambda: one Python frame
        # less per delivered frame, and it pickles (world snapshots).
        nic.set_upper(partial(self._frame_up, iface))
        self.nics.append(nic)
        self.interfaces.append(iface)
        return nic

    def add_serial_port(self) -> SerialPort:
        """Attach a serial port (for the null-modem HB link)."""
        port = SerialPort(self.world,
                          f"{self.name}.tty{len(self.serial_ports)}")
        self.serial_ports.append(port)
        return port

    def register_app(self, app) -> None:
        """Track an application for lifecycle management."""
        self.apps.append(app)

    def set_default_gateway(self, gateway: "IPAddress | str") -> None:
        """Configure the default route."""
        self.ip.default_gateway = IPAddress(gateway)

    # ------------------------------------------------------------ delivery

    def _frame_up(self, iface: Interface, frame: EthernetFrame) -> None:
        # is_up inlined (keep in sync): one property frame per received
        # frame is measurable on the per-segment hot path.
        if not self.powered_on or self.os.crashed:
            self.frames_dropped_host_down += 1
            return
        if self.cpu is not None:
            self.cpu.submit(
                self.frame_processing_cost_ns,
                lambda: self._process_frame(frame, iface))
        else:
            self.ip.receive_frame(frame, iface)

    def _process_frame(self, frame: EthernetFrame, iface: Interface) -> None:
        if self.is_up:
            self.ip.receive_frame(frame, iface)

    # ---------------------------------------------------------- power state

    @property
    def is_up(self) -> bool:
        """True while powered on and the OS has not crashed."""
        return self.powered_on and not self.os.crashed

    def power_off(self, reason: str = "power off") -> None:
        """Instant, total silence — HW crash or STONITH."""
        if not self.powered_on:
            return
        self.powered_on = False
        # Push the power state down to the NICs so the per-frame hot path
        # reads one bool instead of calling back up through a gate.  No
        # scenario ever re-powers a host, so a one-way push is sufficient.
        for nic in self.nics:
            nic.host_up = False
        self.world.probes.fire("fault.host-down", self.name, "host down",
                               reason=reason)
        self.tcp.freeze()
        for port in self.serial_ports:
            port.set_enabled(False)
        for app in self.apps:
            app.host_went_down()
        for callback in list(self.on_power_off):
            callback()

    def crash_hw(self) -> None:
        """Hardware crash (Table 1 row 1)."""
        self.power_off(reason="HW crash")

    def crash_os(self) -> None:
        """OS crash — same externally visible symptom as a HW crash."""
        self.os.crash()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.is_up else "DOWN"
        return f"<Host {self.name} {state} nics={len(self.nics)}>"
