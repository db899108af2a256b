"""The channel between the two servers (paper Sec. 3).

Heartbeats flow between the servers over two *diverse* links — UDP on the
Ethernet fabric and a direct null-modem serial cable — so that no single
failure silences both.  The per-link freshness bookkeeping here is what the
failure detector reads:

* both links stale  → peer machine is dead (Table 1 row 1);
* IP stale, serial fresh → a local network (NIC/cable) failure
  (Table 1 row 4), triggering the gateway-ping disambiguation.

The same two links carry the control messages of :mod:`repro.sttcp.control`
(on their own UDP port; on the cable, whatever is not a heartbeat).

The service also tracks its *own* send health only implicitly — exactly
like the real system, a server cannot distinguish "my NIC dropped my
outbound HBs" from "the peer's NIC is deaf"; that asymmetry is resolved by
the Sec. 4.3 mechanisms, not here.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.net.addresses import IPAddress
from repro.net.serial_link import SerialPort
from repro.net.udp import UdpLayer
from repro.sim.timers import PeriodicTimer
from repro.sim.world import World
from repro.sttcp.config import SttcpConfig
from repro.sttcp.state import Heartbeat

__all__ = ["HeartbeatService", "LINK_IP", "LINK_SERIAL"]

LINK_IP = "ip"
LINK_SERIAL = "serial"


class HeartbeatService:
    """The link to the peer: periodic HBs, per-link reception freshness
    and the control messages.  ``build_heartbeat`` returns the next HB's
    ``(connections, ping_probing, ping_ok)``; ``on_heartbeat(hb, link)``
    and ``on_control(message)`` see what the peer sent."""

    def __init__(self, world: World, config: SttcpConfig, role: str,
                 udp: UdpLayer, local_ip: IPAddress, peer_ip: IPAddress,
                 build_heartbeat: Callable[[], tuple],
                 on_heartbeat: Callable[[Heartbeat, str], None],
                 on_control: Callable[[Any], None],
                 serial_port: Optional[SerialPort] = None,
                 name: str = "hb"):
        self._world = world
        self._config = config
        self.role = role
        self._udp = udp
        self._local_ip = local_ip
        self._peer_ip = peer_ip
        self._serial = serial_port
        self.name = name
        self._build_heartbeat = build_heartbeat
        self._on_heartbeat = on_heartbeat
        self._on_control = on_control
        self._timer = PeriodicTimer(world.sim, self._tick,
                                    config.hb_period_ns, label=f"{name}.tick")
        self._seq = 0
        self._started_at: Optional[int] = None
        self._last_rx = {LINK_IP: None, LINK_SERIAL: None}
        self.sent = 0
        self.received = {LINK_IP: 0, LINK_SERIAL: 0}
        self.bytes_sent_serial = 0
        self.messages_sent = 0
        self.messages_received = 0
        udp.bind(config.hb_udp_port, self._on_udp)
        udp.bind(config.control_udp_port, self._on_control_udp)
        if serial_port is not None:
            serial_port.set_handler(self._on_serial)

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Begin periodic transmission and freshness tracking."""
        self._started_at = self._world.sim.now
        self._timer.start(fire_immediately=True)

    def stop(self) -> None:
        """Stop transmitting."""
        self._timer.stop()

    @property
    def running(self) -> bool:
        """True while the periodic sender is active."""
        return self._timer.running

    def send_now(self) -> None:
        """Out-of-schedule HB — the paper requires a server generating a
        FIN to "immediately communicate the FIN to the other server"."""
        self._tick(extra=True)

    # --------------------------------------------------------------- sending

    def send(self, message: Any, also_serial: bool = False) -> None:
        """Send a control message over UDP, and also over serial for small
        critical ones (ConnInit: a lossy IP path must not leave the backup
        without an ISN; the receiver handles duplicates idempotently)."""
        self.messages_sent += 1
        port = self._config.control_udp_port
        self._udp.send(self._peer_ip, port, port, message,
                       src_ip=self._local_ip)
        if also_serial and self._serial is not None:
            self._serial.send(message)

    def next_heartbeat(self) -> Heartbeat:
        """The heartbeat the next tick sends."""
        connections, ping_probing, ping_ok = self._build_heartbeat()
        return Heartbeat(self.role, self._seq + 1, connections,
                         ping_probing, ping_ok)

    def _tick(self, extra: bool = False) -> None:
        hb = self.next_heartbeat()
        self._seq = hb.seq
        self.sent += 1
        self._udp.send(self._peer_ip, self._config.hb_udp_port,
                       self._config.hb_udp_port, hb, src_ip=self._local_ip)
        if self._serial is not None:
            self._serial.send(hb)
            self.bytes_sent_serial += hb.size_bytes
        self._world.probes.fire("hb.send", self.name, "sent", seq=self._seq,
                                extra=extra)
        # Untraced payload tap: the invariant oracle reads the progress
        # counters off the Heartbeat object (a reference, so this costs
        # nothing to build).
        self._world.probes.fire("hb.state", self.name, hb=hb)

    # -------------------------------------------------------------- receiving

    def _on_udp(self, payload, src_ip: IPAddress, _src_port: int) -> None:
        if isinstance(payload, Heartbeat) and src_ip == self._peer_ip:
            self._receive(payload, LINK_IP)

    def _on_control_udp(self, payload: Any, src_ip: IPAddress,
                        _src_port: int) -> None:
        if src_ip == self._peer_ip:
            self._dispatch(payload)

    def _on_serial(self, message: Any) -> None:
        if isinstance(message, Heartbeat):
            self._receive(message, LINK_SERIAL)
        else:
            self._dispatch(message)

    def _receive(self, hb: Heartbeat, link: str) -> None:
        self._last_rx[link] = self._world.sim.now
        self.received[link] += 1
        self._world.probes.fire("hb.recv", self.name, "received", link=link,
                                seq=hb.seq)
        self._on_heartbeat(hb, link)

    def _dispatch(self, message: Any) -> None:
        self.messages_received += 1
        self._on_control(message)

    # ------------------------------------------------------------- freshness

    def _stale_deadline_ns(self) -> int:
        return self._config.hb_miss_threshold * self._config.hb_period_ns

    def _link_fresh(self, link: str) -> bool:
        if self._started_at is None:
            return True  # not started: nothing can be judged stale
        last = self._last_rx[link]
        baseline = last if last is not None else self._started_at
        return (self._world.sim.now - baseline) <= self._stale_deadline_ns()

    def ip_link_up(self) -> bool:
        """IP-link HB freshness (paper: miss threshold x period)."""
        return self._link_fresh(LINK_IP)

    def serial_link_up(self) -> bool:
        """Serial link freshness; when the serial HB is disabled (ablation
        A2) this mirrors the IP link, reproducing the old single-channel
        failure-detection behaviour."""
        if self._serial is None:
            return self._link_fresh(LINK_IP)
        return self._link_fresh(LINK_SERIAL)

    @property
    def has_serial(self) -> bool:
        """True when a serial channel is configured."""
        return self._serial is not None

    def both_links_down(self) -> bool:
        """The Table-1 row-1 symptom: total HB silence."""
        return not self.ip_link_up() and not self.serial_link_up()

    def last_heard_at(self) -> Optional[int]:
        """Instant of the latest HB from the peer on either link (None
        before any)."""
        heard = [at for at in self._last_rx.values() if at is not None]
        return max(heard) if heard else None
