"""Structured events emitted by the ST-TCP engines.

Tests and benchmarks assert on these rather than parsing traces: each
engine appends to its :class:`EngineEventLog`, and the Table-1 benchmark
prints the observed symptom/recovery pairs straight from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["EngineEvent", "EngineEventLog", "EventKind"]


class EventKind:
    """Event vocabulary (kept flat and string-y for easy filtering)."""

    HB_IP_LINK_DOWN = "hb-ip-link-down"
    HB_SERIAL_LINK_DOWN = "hb-serial-link-down"
    HB_LINK_RECOVERED = "hb-link-recovered"
    PEER_CRASH_DETECTED = "peer-crash-detected"           # Table 1 row 1
    APP_FAILURE_DETECTED = "app-failure-detected"         # rows 2-3
    NIC_FAILURE_DETECTED = "nic-failure-detected"         # row 4
    TAKEOVER = "takeover"
    NON_FT_MODE = "non-ft-mode"
    STONITH = "stonith"
    CONN_REPLICATED = "conn-replicated"
    FIN_HELD = "fin-held"
    FIN_RELEASED = "fin-released"
    FIN_SUPPRESSED = "fin-suppressed"
    FETCH_REQUESTED = "fetch-requested"
    FETCH_RECOVERED = "fetch-recovered"
    UNRECOVERABLE = "unrecoverable"
    RETAIN_OVERFLOW = "retain-overflow"
    PING_PROBING = "ping-probing"


@dataclass(frozen=True)
class EngineEvent:
    """One timestamped engine decision."""

    time: int
    kind: str
    detail: dict[str, Any] = field(default_factory=dict)

    @property
    def time_s(self) -> float:
        """Event time in (float) seconds."""
        return self.time / 1_000_000_000

    def __str__(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time_s:10.6f}s] {self.kind}" + (f" {extra}" if extra else "")


class EngineEventLog:
    """Append-only, queryable event history for one engine."""

    def __init__(self) -> None:
        self._events: list[EngineEvent] = []

    def emit(self, time: int, kind: str, /, **detail: Any) -> EngineEvent:
        """Append an event at the given instant."""
        event = EngineEvent(time, kind, detail)
        self._events.append(event)
        return event

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    @property
    def events(self) -> list[EngineEvent]:
        """Copy of all events so far."""
        return list(self._events)

    def of_kind(self, kind: str) -> list[EngineEvent]:
        """All events of one kind, in order."""
        return [e for e in self._events if e.kind == kind]

    def first(self, kind: str) -> Optional[EngineEvent]:
        """Earliest event of a kind (None if none)."""
        matches = self.of_kind(kind)
        return matches[0] if matches else None

    def last(self, kind: str) -> Optional[EngineEvent]:
        """Latest event of a kind (None if none)."""
        matches = self.of_kind(kind)
        return matches[-1] if matches else None

    def has(self, kind: str) -> bool:
        """True if any event of the kind was emitted."""
        return any(e.kind == kind for e in self._events)
