"""High-level API: wire a primary/backup pair of hosts into ST-TCP.

:class:`SttcpPair` is the public entry point most users want: given two
hosts that already share a LAN and (optionally) a serial cable, it creates
and starts both engines.  The service application itself stays ordinary —
it just calls ``host.tcp.listen(service_port, on_accept)`` on *both*
machines; ST-TCP does the rest.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.net.addresses import IPAddress
from repro.net.serial_link import SerialLink, SerialPort
from repro.sim.world import World
from repro.host.host import Host
from repro.host.power import PowerStrip
from repro.sttcp.backup import BackupEngine
from repro.sttcp.config import SttcpConfig
from repro.sttcp.primary import PrimaryEngine

__all__ = ["SttcpPair"]


class SttcpPair:
    """One replicated TCP service: a primary engine and a backup engine."""

    def __init__(self, world: World, primary_host: Host, backup_host: Host,
                 primary_ip: "IPAddress | str", backup_ip: "IPAddress | str",
                 service_ip: "IPAddress | str",
                 gateway_ip: "IPAddress | str",
                 power_strip: PowerStrip,
                 config: Optional[SttcpConfig] = None,
                 serial_link: Optional[SerialLink] = None,
                 primary_serial: Optional[SerialPort] = None,
                 backup_serial: Optional[SerialPort] = None):
        self.world = world
        self.config = config or SttcpConfig()
        self.config.validate()
        primary_ip = IPAddress(primary_ip)
        backup_ip = IPAddress(backup_ip)
        service_ip = IPAddress(service_ip)
        gateway_ip = IPAddress(gateway_ip)
        if self.config.use_serial_hb and (primary_serial is None
                                          or backup_serial is None):
            raise ConfigurationError(
                "use_serial_hb=True requires serial ports on both hosts "
                "(pass primary_serial/backup_serial, or set "
                "use_serial_hb=False for the single-link ablation)")
        self.serial_link = serial_link
        self.primary = PrimaryEngine(
            world, primary_host, self.config,
            local_ip=primary_ip, peer_ip=backup_ip, service_ip=service_ip,
            gateway_ip=gateway_ip, power_strip=power_strip,
            peer_host=backup_host,
            serial_port=primary_serial if self.config.use_serial_hb else None)
        self.backup = BackupEngine(
            world, backup_host, self.config,
            local_ip=backup_ip, peer_ip=primary_ip, service_ip=service_ip,
            gateway_ip=gateway_ip, power_strip=power_strip,
            peer_host=primary_host,
            serial_port=backup_serial if self.config.use_serial_hb else None)

    def start(self) -> None:
        """Begin heartbeating and failure detection on both servers."""
        self.primary.start()
        self.backup.start()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SttcpPair primary={self.primary.mode} "
                f"backup={self.backup.mode}>")
