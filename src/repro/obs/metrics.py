"""Counters, gauges and histograms with deterministic snapshots.

A :class:`MetricsRegistry` is the numeric half of the observability layer:
probe subscribers (see :class:`~repro.obs.export.ObsSession`) fold probe
firings into it, and ``snapshot()`` renders everything as one sorted,
JSON-serializable dict — byte-identical across runs with the same seed,
because the only inputs are virtual time and deterministic event order.

:class:`PackedRows` is the storage of the per-event histories a run keeps
(an ObsSession's frame and transmit rows, a stream monitor's arrivals):
fixed-width int64 rows in bounded ``array('q')`` chunks, each one
zlib-compressed once it is full.

Naming conventions (documented in ``docs/observability.md``):

* counters ``<category>.<noun>_total`` — monotonic event counts;
* gauges ``<area>.<quantity>_<unit>`` — last-written values;
* histograms ``<area>.<quantity>`` — count/sum/min/max plus powers-of-four
  bucket counts (``le_<bound>`` upper bounds, Prometheus-flavoured).
"""

from __future__ import annotations

import itertools
import json
import zlib
from array import array
from typing import Any, Callable, Iterable, Iterator, Optional, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "PackedRows",
           "format_snapshot_text", "format_snapshot_json"]

Number = Union[int, float]


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment")
        self.value += amount


class Gauge:
    """A last-value-wins measurement."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[Number] = None

    def set(self, value: Number) -> None:
        """Record the latest value."""
        self.value = value


class Histogram:
    """Streaming distribution summary with powers-of-four buckets.

    Stores no samples: count, sum, min, max and fixed log4 bucket counts,
    so memory stays flat over 100 MB transfers while percentile-ish shape
    survives into the snapshot.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_buckets")

    #: Bucket upper bounds: 1, 4, 16, ... 4**31, +inf (covers ns durations).
    BOUNDS = tuple(1 << i for i in range(0, 63, 2))

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None
        self._buckets = [0] * (len(self.BOUNDS) + 1)

    def observe(self, value: Number) -> None:
        """Fold one sample in."""
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # BOUNDS[i] == 4**i, so an int's bucket is ceil(log4(value)), read
        # off its bit length; anything above 2**62 lands in +inf (last).
        if type(value) is int:
            index = ((value - 1).bit_length() + 1) >> 1 if value > 1 else 0
            self._buckets[min(index, len(self.BOUNDS))] += 1
            return
        for i, bound in enumerate(self.BOUNDS):
            if value <= bound:
                self._buckets[i] += 1
                return
        self._buckets[-1] += 1

    @property
    def mean(self) -> Optional[float]:
        """Arithmetic mean of all samples (None when empty)."""
        return self.total / self.count if self.count else None

    def to_dict(self) -> dict:
        """JSON-ready summary; only non-empty buckets are listed."""
        buckets = {}
        for i, bound in enumerate(self.BOUNDS):
            if self._buckets[i]:
                buckets[f"le_{bound}"] = self._buckets[i]
        if self._buckets[-1]:
            buckets["le_inf"] = self._buckets[-1]
        return {"count": self.count, "sum": self.total,
                "min": self.min, "max": self.max, "mean": self.mean,
                "buckets": buckets}


class PackedRows:
    """A history of fixed-width rows of int64s, in append order.

    Rows live packed in ``array('q')`` chunks of :attr:`CHUNK_ROWS` rows —
    8 bytes a field; a 15-field row kept as a tuple, with the ints it
    keeps alive, takes ~330 — and chunks are bounded so that a long
    history is many small blocks, not one block reallocated as it grows.
    A writer takes the open chunk's bound ``extend`` and row budget from
    :meth:`open`, extends by exactly :attr:`width` ints per row with no
    call of its own in between, and opens the next chunk when the budget
    runs out::

        extend, room = rows.open()
        ...
        extend((t, a, b))
        room -= 1
        if not room:
            extend, room = rows.open()

    Only the open chunk stays raw: :meth:`open` seals the one the writer
    has filled as zlib level-1 bytes (a frame row's 136 raw bytes become
    about 11), and reads decompress one sealed chunk at a time.

    The rare row that is not ``width`` ints (a line of text, say) is
    :meth:`keep`-ed at its place in append order.  Iteration yields every
    row in that order, packed rows as tuples of ints — the chunk still
    being written included, so a history can be read mid-run.
    """

    __slots__ = ("width", "_sealed", "_sealed_ints", "_open", "_odd")

    #: Rows per chunk.
    CHUNK_ROWS = 2048

    def __init__(self, width: int):
        self.width = width
        self._sealed: list[bytes] = []   # full chunks, compressed
        self._sealed_ints = 0            # ints in them
        self._open = array("q")
        # (packed rows appended before it, the row)
        self._odd: list[tuple[int, Any]] = []

    def open(self) -> tuple[Callable[[Iterable[int]], None], int]:
        """Seal the open chunk if it has rows and start the next: its
        bound ``extend`` and how many rows it takes."""
        if self._open:
            self._sealed.append(zlib.compress(self._open, 1))
            self._sealed_ints += len(self._open)
            self._open = array("q")
        return self._open.extend, self.CHUNK_ROWS

    def keep(self, row: Any) -> None:
        """Append a row that is not ``width`` ints, in order."""
        packed = (self._sealed_ints + len(self._open)) // self.width
        self._odd.append((packed, row))

    def _chunks(self) -> Iterator[array]:
        """Every chunk raw, in order, one sealed chunk decoded at a time."""
        for sealed in self._sealed:
            yield array("q", zlib.decompress(sealed))
        yield self._open

    def __iter__(self) -> Iterator:
        width = self.width
        packed = itertools.chain.from_iterable(
            zip(*[iter(chunk)] * width) for chunk in self._chunks())
        at = 0
        for position, row in self._odd:
            yield from itertools.islice(packed, position - at)
            at = position
            yield row
        yield from packed

    def column(self, field: int) -> array:
        """Field ``field`` of every packed row, in order."""
        out = array("q")
        for chunk in self._chunks():
            out.extend(chunk[field::self.width])
        return out


class MetricsRegistry:
    """All metrics of one observation session, by name."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -------------------------------------------------------------- access

    def counter(self, name: str) -> Counter:
        """Get-or-create the named counter."""
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        """Get-or-create the named gauge."""
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        """Get-or-create the named histogram."""
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name)
        return metric

    # ------------------------------------------------------------ snapshot

    def snapshot(self) -> dict:
        """Deterministic dict of everything: keys sorted, values plain."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value
                       for name, g in sorted(self._gauges.items())},
            "histograms": {name: h.to_dict()
                           for name, h in sorted(self._histograms.items())},
        }


def format_snapshot_json(snapshot: dict) -> str:
    """Canonical JSON rendering (sorted keys, compact separators)."""
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":")) + "\n"


def format_snapshot_text(snapshot: dict) -> str:
    """Aligned plain-text rendering for terminals and summary files."""
    lines: list[str] = []
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    width = max((len(n) for group in (counters, gauges, histograms)
                 for n in group), default=0)
    if counters:
        lines.append("counters:")
        lines.extend(f"  {name.ljust(width)} {value}"
                     for name, value in counters.items())
    if gauges:
        lines.append("gauges:")
        lines.extend(f"  {name.ljust(width)} {value}"
                     for name, value in gauges.items())
    if histograms:
        lines.append("histograms:")
        for name, h in histograms.items():
            mean = f"{h['mean']:.1f}" if h["mean"] is not None else "-"
            lines.append(f"  {name.ljust(width)} count={h['count']} "
                         f"min={h['min']} mean={mean} max={h['max']}")
    return "\n".join(lines) + "\n"
