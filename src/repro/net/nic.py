"""Network interface cards.

A NIC filters inbound frames (own MAC, broadcast, subscribed multicast
groups, or promiscuous), counts traffic, and supports the failure mode of
Table 1 row 4: a failed NIC neither sends nor receives, while the host and
its serial port stay alive.

The multicast subscription is the heart of the ST-TCP testbed: both the
primary and the backup subscribe their NIC to ``multiEA`` so the switch's
flood of client→serviceIP frames reaches both servers.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.addresses import MacAddress
from repro.net.cable import Cable
from repro.net.frame import EthernetFrame
from repro.sim.world import World

__all__ = ["Nic"]


class Nic:
    """A single Ethernet interface attached to a host."""

    __slots__ = ("_world", "name", "mac", "multicast_groups", "_promiscuous",
                 "_cable", "_failed", "host_up", "_upper",
                 "frames_sent", "frames_received", "bytes_sent",
                 "bytes_received", "frames_filtered", "_accept_values")

    #: counters.json key -> the attribute that counts it (summed over
    #: ``World.nics`` by an ObsSession; no probe repeats these counts).
    COUNTED = {"nic.tx": "frames_sent", "nic.rx": "frames_received"}

    def __init__(self, world: World, name: str, mac: MacAddress):
        self._world = world
        self.name = name
        self.mac = mac
        self.multicast_groups: set[MacAddress] = set()
        self._promiscuous = False
        # Raw address values this NIC accepts (own MAC, broadcast, joined
        # groups) — an int set so the per-frame filter decision is one
        # C-level lookup.  At fleet scale most flooded frames are filtered,
        # making this the single hottest branch in the simulator.
        self._accept_values: set[int] = {mac.value, (1 << 48) - 1}
        self._cable: Optional[Cable] = None
        self._failed = False
        # Host power state: a powered-off machine neither sends nor
        # receives, regardless of NIC health.  Host power-off is
        # irreversible in every scenario, so the host pushes a plain bool
        # down here instead of the NIC calling back up through a gate
        # function on every frame (this check runs once per flooded frame
        # per NIC — the hottest branch at fleet scale).
        self.host_up = True
        # Installed by the host's IP layer.
        self._upper: Optional[Callable[[EthernetFrame], None]] = None
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_filtered = 0
        world.nics.append(self)

    # -------------------------------------------------------------- wiring

    def attach_cable(self, cable: Cable) -> None:
        """Plug the NIC into a cable (once)."""
        if self._cable is not None:
            raise ValueError(f"{self.name} already has a cable attached")
        self._cable = cable

    def set_upper(self, handler: Callable[[EthernetFrame], None]) -> None:
        """Install the L3 handler that receives accepted frames."""
        self._upper = handler

    def join_multicast(self, group: MacAddress) -> None:
        """Subscribe to a multicast Ethernet address (e.g. multiEA)."""
        if not group.is_multicast:
            raise ValueError(f"{group} is not a multicast MAC address")
        self.multicast_groups.add(group)
        self._accept_values.add(group.value)
        self._world.net_epoch += 1

    def leave_multicast(self, group: MacAddress) -> None:
        """Unsubscribe from a multicast group."""
        self.multicast_groups.discard(group)
        self._accept_values.discard(group.value)
        self._world.net_epoch += 1

    @property
    def promiscuous(self) -> bool:
        """Accept every frame regardless of destination address."""
        return self._promiscuous

    @promiscuous.setter
    def promiscuous(self, value: bool) -> None:
        self._promiscuous = value
        # Address-filter change: invalidate any cached flood target lists.
        self._world.net_epoch += 1

    # ------------------------------------------------------------- failure

    @property
    def is_up(self) -> bool:
        """True unless a NIC failure was injected."""
        return not self._failed

    def fail(self) -> None:
        """Inject a NIC failure: the card goes deaf and mute."""
        if not self._failed:
            self._failed = True
            # Routing-relevant change: _route skips failed NICs, so any
            # cached IP-layer send plans through this card must die.
            self._world.route_epoch += 1
            self._world.probes.fire("fault.nic", self.name, "NIC failed")

    def repair(self) -> None:
        """Clear an injected NIC failure."""
        if self._failed:
            self._failed = False
            self._world.route_epoch += 1
            self._world.probes.fire("fault.nic", self.name, "NIC repaired")

    # ---------------------------------------------------------------- data

    def send(self, frame: EthernetFrame) -> None:
        """Transmit a frame; silently dropped if the NIC is failed/unplugged
        or the host is powered off."""
        if self._failed or self._cable is None or not self.host_up:
            return
        self.frames_sent += 1
        self.bytes_sent += frame.size_bytes
        self._cable.transmit(self, frame)

    def receive_frame(self, frame: EthernetFrame) -> None:
        """Cable-side entry point (CableEndpoint protocol)."""
        if self._failed or not self.host_up:
            return
        if (frame.dst._value not in self._accept_values
                and not self._promiscuous):
            self.frames_filtered += 1
            return
        self.frames_received += 1
        self.bytes_received += frame.size_bytes
        if self._upper is not None:
            self._upper(frame)

    def _accepts(self, dst: MacAddress) -> bool:
        return self._promiscuous or dst._value in self._accept_values

    def accepts(self, dst: MacAddress) -> bool:
        """Address-filter predicate, exposed for switch egress filtering
        (the IGMP-snooping analogue).  Purely address-based: a failed or
        powered-off host still *receives* frames on the wire — they are
        dropped at :meth:`receive_frame` — just as a snooping switch does
        not know about host power state."""
        return self._accepts(dst)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "FAILED" if self._failed else "up"
        return f"<Nic {self.name} {self.mac} {state}>"
