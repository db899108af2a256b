"""Structured trace log for the simulation.

Protocol components emit :class:`TraceRecord` entries through a shared
:class:`TraceLog`; tests and benchmarks filter them by category to assert
on behaviour ("the backup suppressed this FIN", "failover started at t=...")
without string-parsing stdout.

Category names are **not** defined here: the authoritative registry is
:data:`repro.obs.registry.CATEGORIES` (rendered for humans in
``docs/observability.md``), which also maps every fine-grained probe
point to its category.  Components that fire through the
:class:`~repro.obs.bus.ProbeBus` get their category from the registry;
components that still call :meth:`TraceLog.record` directly must use a
registered category — ``tests/obs/test_registry_sync.py`` scans ``src/``
and fails on any category emitted anywhere but declared nowhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

__all__ = ["TraceRecord", "TraceLog"]


@dataclass(frozen=True)
class TraceRecord:
    """One timestamped trace event."""

    time: int                    # virtual time, ns
    category: str                # see module docstring
    source: str                  # component name, e.g. "primary.tcp"
    message: str                 # human-readable summary
    fields: dict[str, Any] = field(default_factory=dict)

    @property
    def time_s(self) -> float:
        """Event time in (float) seconds."""
        return self.time / 1_000_000_000

    def __str__(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return (f"[{self.time_s:12.6f}s] {self.category:7s} {self.source:20s} "
                f"{self.message}" + (f" | {extra}" if extra else ""))


class TraceLog:
    """Append-only event log with category filtering and live subscribers.

    ``enabled_categories=None`` records everything; pass a set of category
    names to restrict recording (benchmarks disable ``eth``/``tcp`` traces
    to keep memory flat on 100 MB transfers).
    """

    def __init__(self, clock: Callable[[], int],
                 enabled_categories: Optional[set[str]] = None):
        self._clock = clock
        self._records: list[TraceRecord] = []
        self._enabled = enabled_categories
        self._subscribers: list[Callable[[TraceRecord], None]] = []
        self._filter_listeners: list[Callable[[], None]] = []

    # ------------------------------------------------------------- recording

    def record(self, category: str, source: str, message: str,
               **fields: Any) -> None:
        """Append an event (no-op if the category is filtered out)."""
        if self._enabled is not None and category not in self._enabled:
            return
        self._keep(TraceRecord(self._clock(), category, source, message,
                               fields))

    def mirror(self, event) -> None:
        """Keep a traced probe's fire as the record its emitter used to
        write directly.  The :class:`~repro.obs.bus.ProbeBus` attaches
        this as the probe's last sink only while the category is enabled
        (it recompiles on every filter change), so no filter check here.
        """
        self._keep(TraceRecord(event.time, event.category, event.source,
                               event.message, event.fields))

    def _keep(self, rec: TraceRecord) -> None:
        self._records.append(rec)
        for sub in self._subscribers:
            sub(rec)

    def wants(self, category: str) -> bool:
        """True when a record in ``category`` would be kept."""
        return self._enabled is None or category in self._enabled

    def subscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        """Register a live callback invoked for every recorded event."""
        self._subscribers.append(callback)

    def on_filter_change(self, callback: Callable[[], None]) -> None:
        """Register a callback fired whenever the category filter changes
        (the probe bus invalidates its fire-would-do-work cache on it)."""
        self._filter_listeners.append(callback)

    def set_enabled_categories(self, categories: Optional[set[str]]) -> None:
        """Change the recording filter (None = record everything)."""
        self._enabled = categories
        for listener in self._filter_listeners:
            listener()

    # --------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    @property
    def records(self) -> list[TraceRecord]:
        """The underlying record list (live reference)."""
        return self._records

    def filter(self, category: Optional[str] = None,
               source: Optional[str] = None,
               contains: Optional[str] = None) -> list[TraceRecord]:
        """Return records matching all given criteria."""
        out = self._records
        if category is not None:
            out = [r for r in out if r.category == category]
        if source is not None:
            out = [r for r in out if r.source == source]
        if contains is not None:
            out = [r for r in out if contains in r.message]
        return list(out)

    def first(self, category: Optional[str] = None,
              contains: Optional[str] = None) -> Optional[TraceRecord]:
        """First matching record or None."""
        matches = self.filter(category=category, contains=contains)
        return matches[0] if matches else None

    def last(self, category: Optional[str] = None,
             contains: Optional[str] = None) -> Optional[TraceRecord]:
        """Last matching record or None."""
        matches = self.filter(category=category, contains=contains)
        return matches[-1] if matches else None

    def dump(self, category: Optional[str] = None) -> str:
        """Render matching records as text (debugging aid)."""
        return "\n".join(str(r) for r in self.filter(category=category))
