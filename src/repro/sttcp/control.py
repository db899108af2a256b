"""Server-to-server control messages.

These ride between the ST-TCP engines on the heartbeat service's links
(:meth:`repro.sttcp.heartbeat.HeartbeatService.send`), beside the
heartbeats but on their own UDP port:

* :class:`ConnInit` — primary → backup at accept time: "a connection was
  established with this client; use this ISN".  This is the simulated
  analogue of the kernel mechanism by which "the backup changes its
  initial sequence number to match that of the primary" (paper Sec. 2).
  Sent over both the IP link and the serial link for robustness.
* :class:`FetchRequest` / :class:`FetchReply` — the backup retrieving
  client bytes it missed from the primary's extra receive buffer
  (paper Sec. 4.3, "temporary local network failures").
* :class:`ConnClosed` — primary → backup: the live connection is fully
  closed; dispose of the replica.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sttcp.state import ConnKey

__all__ = ["ConnInit", "FetchRequest", "FetchReply", "ConnClosed",
           "AppFailureNotice"]


@dataclass(frozen=True)
class ConnInit:
    """Replicate-this-connection order (primary → backup)."""

    key: ConnKey            # (client_ip_value, client_port)
    service_port: int
    isn: int                # the primary's ISN — the backup must match it

    @property
    def size_bytes(self) -> int:
        """Modelled on-wire size of the message."""
        return 16


@dataclass(frozen=True)
class FetchRequest:
    """Backup → primary: please re-supply these client-byte ranges."""

    key: ConnKey
    ranges: tuple[tuple[int, int], ...]   # [start, end) stream offsets

    @property
    def size_bytes(self) -> int:
        """Modelled on-wire size of the message."""
        return 8 + 8 * len(self.ranges)


@dataclass(frozen=True)
class FetchReply:
    """Primary → backup: the requested bytes (or an unavailability notice,
    which the paper classes as unrecoverable for non-logged applications)."""

    key: ConnKey
    offset: int
    data: bytes = field(repr=False, default=b"")
    unavailable: bool = False

    @property
    def size_bytes(self) -> int:
        """Modelled on-wire size of the message."""
        return 12 + len(self.data)


@dataclass(frozen=True)
class AppFailureNotice:
    """Watchdog extension (paper Sec. 4.2.2): an application-layer
    watchdog on one server suspects its local application has failed and
    tells the peer's engine directly — closing the detection gap for idle
    connections where TCP-layer counters carry no signal."""

    location: str   # "primary" or "backup": where the failure is

    @property
    def size_bytes(self) -> int:
        """Modelled on-wire size of the message."""
        return 8


@dataclass(frozen=True)
class ConnClosed:
    """Primary → backup: connection finished; drop the replica."""

    key: ConnKey

    @property
    def size_bytes(self) -> int:
        """Modelled on-wire size of the message."""
        return 8
