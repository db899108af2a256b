"""Client-side stream observation — the headless pie chart.

:class:`ClientStreamMonitor` records every arrival instant, so experiments
can quantify exactly what the paper's demo audience *sees*: smooth
progress, a glitch at failover, and resumption — or, for the baseline, a
connection reset.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Optional

from repro.obs.metrics import PackedRows
from repro.sim.world import World

__all__ = ["ClientStreamMonitor"]


class ClientStreamMonitor:
    """Timestamped byte-arrival log with gap (glitch) analysis.

    Arrivals are kept as packed ``(time_ns, total_bytes)`` int64 rows, 16
    bytes each (:class:`~repro.obs.metrics.PackedRows`); the queries
    search the time column by bisection."""

    def __init__(self, world: World, name: str = "client-monitor"):
        self._world = world
        self.name = name
        self._arrivals = PackedRows(2)   # (time_ns, total_bytes)
        self._extend, self._room = self._arrivals.open()
        self.events: list[tuple[int, str]] = []    # (time_ns, kind)
        self.total_bytes = 0

    # ------------------------------------------------------------ recording

    def on_bytes(self, n: int) -> None:
        """Record an arrival of ``n`` bytes at the current instant."""
        self.total_bytes += n
        self._extend((self._world.sim.now, self.total_bytes))
        self._room -= 1
        if not self._room:
            self._extend, self._room = self._arrivals.open()

    def note_event(self, kind: str) -> None:
        """Record a lifecycle event (connect, reset, complete...)."""
        self.events.append((self._world.sim.now, kind))

    # -------------------------------------------------------------- queries

    def _times(self) -> array:
        """Every arrival instant, in order (non-decreasing)."""
        return self._arrivals.column(0)

    @property
    def first_byte_at(self) -> Optional[int]:
        """Instant of the first arrival (None if none)."""
        times = self._times()
        return times[0] if times else None

    @property
    def last_byte_at(self) -> Optional[int]:
        """Instant of the latest arrival (None if none)."""
        times = self._times()
        return times[-1] if times else None

    def events_of(self, kind: str) -> list[int]:
        """Times of all recorded events of the given kind."""
        return [t for t, k in self.events if k == kind]

    def max_gap_ns(self, after_ns: int = 0,
                   before_ns: Optional[int] = None) -> int:
        """Largest inter-arrival gap within the window — the glitch size."""
        times = self._times()
        window = times[bisect_left(times, after_ns):
                       len(times) if before_ns is None
                       else bisect_right(times, before_ns)]
        if len(window) < 2:
            return 0
        return max(b - a for a, b in zip(window, window[1:]))

    def gap_at(self, instant_ns: int) -> Optional[tuple[int, int, int]]:
        """The stall straddling ``instant_ns``.

        Returns ``(last_before, first_after, gap)`` or None if the stream
        never resumed after ``instant_ns``."""
        times = self._times()
        i = bisect_right(times, instant_ns)
        if i == len(times):
            return None
        last_before = times[i - 1] if i else instant_ns
        return (last_before, times[i], times[i] - last_before)

    def largest_gap_after(self, instant_ns: int
                          ) -> Optional[tuple[int, int, int]]:
        """The biggest inter-arrival stall starting at or after
        ``instant_ns``: returns ``(stall_start, stall_end, gap)``.

        For failover experiments this is the client-visible service
        interruption — the data in flight at the instant of the fault
        still drains, so the stall begins slightly *after* the fault."""
        times = self._times()
        window = times[max(bisect_left(times, instant_ns) - 1, 0):]
        best = None
        for a, b in zip(window, window[1:]):
            if best is None or b - a > best[2]:
                best = (a, b, b - a)
        return best

    def resume_time_after(self, instant_ns: int) -> Optional[int]:
        """First arrival after ``instant_ns`` (stream resumption)."""
        times = self._times()
        i = bisect_right(times, instant_ns)
        return times[i] if i < len(times) else None

    def bytes_before(self, instant_ns: int) -> int:
        """Cumulative bytes received at or before ``instant_ns``."""
        i = bisect_right(self._times(), instant_ns)
        return self._arrivals.column(1)[i - 1] if i else 0

    def throughput_mbps(self) -> Optional[float]:
        """Mean goodput over the active interval."""
        times = self._times()
        if len(times) < 2:
            return None
        duration = times[-1] - times[0]
        if duration <= 0:
            return None
        return self.total_bytes * 8 * 1e9 / duration / 1e6

    def progress_series(self, resolution_ns: int
                        ) -> list[tuple[float, int]]:
        """Downsampled (time_s, bytes) curve for plotting/reporting."""
        times = self._times()
        if not times:
            return []
        totals = self._arrivals.column(1)
        series = []
        i = 0
        while i < len(times):
            series.append((times[i] / 1e9, totals[i]))
            i = bisect_left(times, times[i] + resolution_ns, i + 1)
        if series[-1] != (times[-1] / 1e9, self.total_bytes):
            series.append((times[-1] / 1e9, self.total_bytes))
        return series
