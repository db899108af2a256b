"""Out-of-band power control (STONITH).

The paper's testbed includes remotely controllable power: "Before taking
over, the backup also powers the primary down to prevent any danger of
dual active servers" (Sec. 2).  :class:`PowerStrip` models that channel —
it works regardless of the network state, with a small actuation delay.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.core import millis
from repro.sim.world import World

if TYPE_CHECKING:  # pragma: no cover
    from repro.host.host import Host

__all__ = ["PowerStrip"]


class PowerStrip:
    """Shared remote power controller for the testbed's hosts."""

    def __init__(self, world: World, actuation_delay_ns: int = millis(5)):
        self._world = world
        self.actuation_delay_ns = actuation_delay_ns
        self._hosts: dict[str, "Host"] = {}
        self.power_downs: list[tuple[int, str, str]] = []  # (t, target, by)

    def register(self, host: "Host") -> None:
        """Put a host under this power strip's control."""
        self._hosts[host.name] = host

    def power_down(self, target: "Host", initiator: str) -> None:
        """Cut power to ``target`` after the actuation delay.

        Idempotent and safe against already-dead targets — powering down a
        crashed primary is the common case.
        """
        if target.name not in self._hosts:
            raise KeyError(f"host {target.name} not on this power strip")
        self._world.probes.fire("power.down-requested", initiator,
                                "power-down requested", target=target.name)
        self.power_downs.append((self._world.sim.now, target.name, initiator))
        self._world.sim.schedule(self.actuation_delay_ns,
                                 target.power_off,
                                 label=f"power.{target.name}")

    def was_powered_down(self, host_name: str) -> bool:
        """True if this strip ever cut power to ``host_name``."""
        return any(name == host_name for _, name, _ in self.power_downs)
