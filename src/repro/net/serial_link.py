"""RS-232 null-modem serial link.

Section 3 of the paper: the secondary heartbeat channel is a direct serial
connection between the two servers (null-modem cable), max 115.2 kbps.
This module models that channel as a message pipe with per-byte
serialization delay and FIFO queueing, independent of the Ethernet fabric
— which is exactly why it survives NIC and switch failures.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.world import World

__all__ = ["SerialPort", "SerialLink", "SERIAL_DEFAULT_BAUD"]

SERIAL_DEFAULT_BAUD = 115_200

# 8N1 framing: 1 start bit + 8 data bits + 1 stop bit per byte.
_BITS_PER_BYTE_8N1 = 10


class SerialPort:
    """One end of a serial link, owned by a host."""

    def __init__(self, world: World, name: str):
        self._world = world
        self.name = name
        self.link: Optional["SerialLink"] = None
        self._handler: Optional[Callable[[Any], None]] = None
        self._enabled = True
        self.messages_sent = 0
        self.messages_received = 0

    def set_handler(self, handler: Callable[[Any], None]) -> None:
        """Install the receive callback (the ST-TCP HB receiver)."""
        self._handler = handler

    def set_enabled(self, enabled: bool) -> None:
        """Host power state gates the port: a dead host neither sends nor
        receives on its serial port."""
        self._enabled = enabled

    def send(self, message: Any) -> None:
        """Queue a message for transmission (dropped if disabled/cut)."""
        if not self._enabled or self.link is None:
            return
        self.messages_sent += 1
        self.link.transmit(self, message)

    def _deliver(self, message: Any) -> None:
        if not self._enabled or self._handler is None:
            return
        self.messages_received += 1
        self._handler(message)


class SerialLink:
    """A null-modem cable between two :class:`SerialPort` ends."""

    def __init__(self, world: World, a: SerialPort, b: SerialPort,
                 baud: int = SERIAL_DEFAULT_BAUD,
                 propagation_delay_ns: int = 100,
                 name: str = "serial"):
        if baud <= 0:
            raise ValueError(f"baud must be positive, got {baud}")
        self._world = world
        self.name = name
        self.baud = baud
        self.propagation_delay_ns = propagation_delay_ns
        self._ends = (a, b)
        a.link = self
        b.link = self
        self._cut = False
        self._tx_free_at = {0: 0, 1: 0}
        self.messages_delivered = 0
        self.bytes_delivered = 0

    @property
    def is_cut(self) -> bool:
        """True while the cable is severed."""
        return self._cut

    def cut(self) -> None:
        """Sever the cable (for double-failure experiments)."""
        self._cut = True
        self._world.probes.fire("fault.link", self.name, "serial link cut",
                                state="cut")

    def repair(self) -> None:
        """Restore a cut link."""
        self._cut = False
        self._world.probes.fire("fault.link", self.name,
                                "serial link repaired", state="repaired")

    def transfer_time_ns(self, size_bytes: int) -> int:
        """Serialization time for ``size_bytes`` at this baud rate (8N1)."""
        bits = size_bytes * _BITS_PER_BYTE_8N1
        return (bits * 1_000_000_000) // self.baud

    def transmit(self, sender: SerialPort, message: Any) -> None:
        """Serialize and deliver toward the far end (FIFO per direction)."""
        if self._cut:
            return
        direction = 0 if sender is self._ends[0] else 1
        size = getattr(message, "size_bytes", None)
        if size is None:
            size = len(message)
        now = self._world.sim.now
        start = max(now, self._tx_free_at[direction])
        tx_time = self.transfer_time_ns(size)
        self._tx_free_at[direction] = start + tx_time
        delay = (start - now) + tx_time + self.propagation_delay_ns
        receiver = self._ends[1 - direction]
        self._world.sim.schedule(delay, self._deliver, receiver, message, size,
                                 label=f"{self.name}.deliver")

    def _deliver(self, receiver: SerialPort, message: Any, size: int) -> None:
        if self._cut:
            return
        self.messages_delivered += 1
        self.bytes_delivered += size
        receiver._deliver(message)
