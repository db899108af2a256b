"""Discrete-event simulation kernel.

The whole reproduction runs on a single-threaded, deterministic event loop
with an integer-nanosecond virtual clock.  Components schedule callbacks;
the kernel executes them in (time, insertion-order) order, so two runs with
the same seed produce byte-identical traces.

The ready queue is one binary heap (:mod:`heapq`) of
``(time, seq, handle, callback, args)`` tuples.  ``docs/scheduler.md``
says why it is not the timer wheel it replaced, with the measurements.

Design notes
------------
* Time is ``int`` nanoseconds.  Helpers :data:`NS_PER_US`, :data:`NS_PER_MS`
  and :data:`NS_PER_S` (plus :func:`seconds`, :func:`millis`, :func:`micros`)
  convert human units without floating-point drift.
* :meth:`Simulator.schedule` returns an :class:`EventHandle` that can be
  cancelled; cancellation is O(1) (the entry stays in the heap as a
  tombstone and is skipped when popped).  Tombstones are compacted away
  once they outnumber live entries in a non-trivial queue, so arm/cancel
  churn (timer restarts) cannot grow the queue without bound.
* Event ordering is the sort order of ``(time, seq)``.  ``seq`` is unique,
  so tuple comparison never reaches the third element and the order does
  not depend on the heap's internal layout — a compaction's ``heapify``
  cannot reorder anything.
* The kernel never catches exceptions raised by callbacks: a bug in a
  protocol implementation should fail the test loudly, not be swallowed.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

from repro.errors import SimulationError

__all__ = [
    "NS_PER_US",
    "NS_PER_MS",
    "NS_PER_S",
    "seconds",
    "millis",
    "micros",
    "EventHandle",
    "Simulator",
]

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000

_INF = float("inf")


def seconds(value: float) -> int:
    """Convert seconds to integer nanoseconds (rounded to nearest ns)."""
    return round(value * NS_PER_S)


def millis(value: float) -> int:
    """Convert milliseconds to integer nanoseconds (rounded to nearest ns)."""
    return round(value * NS_PER_MS)


def micros(value: float) -> int:
    """Convert microseconds to integer nanoseconds (rounded to nearest ns)."""
    return round(value * NS_PER_US)


class EventHandle:
    """A cancellable reference to a scheduled callback.

    Handles are returned by :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at`.  Calling :meth:`cancel` guarantees the
    callback will not run; cancelling an already-fired or already-cancelled
    handle is a harmless no-op.  A fired handle can be queued again with
    :meth:`Simulator.rearm`, which makes it pending once more.
    """

    __slots__ = ("time", "callback", "args", "_cancelled", "_fired", "label",
                 "_owner")

    def __init__(self, time: int, callback: Callable[..., Any],
                 args: tuple, label: str = "",
                 owner: "Optional[Simulator]" = None):
        self.time = time
        self.callback = callback
        self.args = args
        self.label = label
        self._cancelled = False
        self._fired = False
        self._owner = owner

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        if self._cancelled or self._fired:
            return
        self._cancelled = True
        if self._owner is not None:
            self._owner._note_cancelled()

    @property
    def cancelled(self) -> bool:
        """True once cancel() was called."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """True once the callback has executed (and until a
        :meth:`Simulator.rearm` queues the handle again)."""
        return self._fired

    @property
    def pending(self) -> bool:
        """True while the event is still queued and will eventually fire."""
        return not (self._cancelled or self._fired)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("cancelled" if self._cancelled
                 else "fired" if self._fired else "pending")
        name = self.label or getattr(self.callback, "__qualname__", "?")
        return f"<EventHandle {name} @{self.time}ns {state}>"


def _check_delay(delay: int) -> None:
    """Slow path of ``schedule``/``post`` validation, entered only for a
    delay that is not a plain non-negative ``int`` (int subclasses pass)."""
    if not isinstance(delay, int):
        raise SimulationError(
            f"delay must be an int (nanoseconds), got {type(delay).__name__}; "
            f"use seconds()/millis()/micros() helpers")
    if delay < 0:
        raise SimulationError(f"cannot schedule in the past (delay={delay})")


class Simulator:
    """Deterministic discrete-event scheduler with an int-nanosecond clock.

    Typical use::

        sim = Simulator()
        sim.schedule(millis(10), my_callback, arg1, arg2)
        sim.run(until=seconds(5))

    The simulator is also the root object from which scenario builders hang
    shared services (probe bus, RNG registry); see :mod:`repro.sim.world`
    and :mod:`repro.sim.rng`.
    """

    __slots__ = ("_now", "_seq", "_running", "_events_processed",
                 "_cancelled_in_queue", "_heap")

    #: Queues smaller than this are never compacted — rebuilding a tiny
    #: queue costs more than carrying its tombstones to the pop.
    COMPACT_MIN_QUEUE = 64

    def __init__(self) -> None:
        self._now: int = 0
        self._seq = 0
        self._running = False
        self._events_processed = 0
        # (time, seq, handle, callback, args) entries; handle is None for
        # fire-and-forget posts.  Cancelled entries stay as tombstones.
        self._heap: list[tuple] = []
        self._cancelled_in_queue = 0

    # ------------------------------------------------------------------ time

    @property
    def now(self) -> int:
        """Current virtual time in nanoseconds."""
        return self._now

    @property
    def now_s(self) -> float:
        """Current virtual time in (float) seconds, for reporting only."""
        return self._now / NS_PER_S

    @property
    def events_processed(self) -> int:
        """Total logical events executed so far (useful for perf
        reporting).  Batched deliveries credit their merged micro-events
        via :meth:`credit_events`, so the counter stays comparable across
        kernel versions that merge differently."""
        return self._events_processed

    def credit_events(self, extra: int) -> None:
        """Credit ``extra`` merged micro-events executed inside the current
        callback.  Batching layers (e.g. the switch's flood delivery) fold
        several logical events into one scheduled callback; crediting keeps
        :attr:`events_processed` meaning *logical events executed* rather
        than *queue pops*, so throughput trajectories stay apples-to-apples
        across kernel versions."""
        self._events_processed += extra

    # ------------------------------------------------------------ scheduling

    def schedule(self, delay: int, callback: Callable[..., Any],
                 *args: Any, label: str = "") -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` nanoseconds.

        ``delay`` must be a non-negative integer; a zero delay runs the
        callback after all events already scheduled for the current instant
        (FIFO within a timestamp).
        """
        if type(delay) is not int or delay < 0:
            _check_delay(delay)
        time = self._now + delay
        handle = EventHandle(time, callback, args, label, self)
        self._seq = seq = self._seq + 1
        heappush(self._heap, (time, seq, handle, callback, args))
        return handle

    def post(self, delay: int, callback: Callable[..., Any],
             *args: Any, label: str = "") -> None:
        """Run ``callback(*args)`` after ``delay`` nanoseconds — the
        fire-and-forget sibling of :meth:`schedule`.

        No handle is created or returned (``label`` is accepted for
        call-site symmetry and dropped), so a post costs one tuple and one
        heap push.  Ordering, validation and tick semantics are identical
        to :meth:`schedule`.  Use it for the delivery-style events that
        are never cancelled — cable deliveries, switch forwards, loopback
        dispatch; anything that may need ``cancel()`` must use
        :meth:`schedule`.
        """
        if type(delay) is not int or delay < 0:
            _check_delay(delay)
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self._now + delay, seq, None, callback, args))

    def schedule_at(self, time: int, callback: Callable[..., Any],
                    *args: Any, label: str = "") -> EventHandle:
        """Run ``callback(*args)`` at absolute virtual time ``time``."""
        if not isinstance(time, int):
            raise SimulationError(
                f"time must be an int (nanoseconds), got {type(time).__name__}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past (time={time} < now={self._now})")
        handle = EventHandle(time, callback, args, label, self)
        self._seq = seq = self._seq + 1
        heappush(self._heap, (time, seq, handle, callback, args))
        return handle

    def rearm(self, handle: EventHandle, delay: int) -> None:
        """Re-queue ``handle``, which has just fired, ``delay`` ns from now.

        The re-arm of a self-repeating timer: same callback, same args,
        same handle object, so a tick allocates one heap entry and nothing
        else.  Ordering and validation are those of :meth:`schedule` (the
        entry takes the next ``seq`` now, so call it *before* any user
        callback that may schedule); afterwards the handle is pending
        again and ``cancel()`` works on it.  A handle that is still
        pending or was cancelled is refused — its old entry may still be
        queued.
        """
        if type(delay) is not int or delay < 0:
            _check_delay(delay)
        if not handle._fired:
            raise SimulationError(f"can only rearm a fired handle: {handle!r}")
        handle.time = time = self._now + delay
        handle._fired = False
        self._seq = seq = self._seq + 1
        heappush(self._heap, (time, seq, handle, handle.callback, handle.args))

    def call_soon(self, callback: Callable[..., Any], *args: Any,
                  label: str = "") -> EventHandle:
        """Schedule ``callback`` at the current instant (after pending events)."""
        return self.schedule(0, callback, *args, label=label)

    def _note_cancelled(self) -> None:
        """A queued handle was cancelled; compact once tombstones dominate.

        The rebuild is in place (same list object), so a ``run`` loop that
        is executing the cancelling callback keeps a valid queue.
        """
        self._cancelled_in_queue += 1
        heap = self._heap
        if (self._cancelled_in_queue * 2 > len(heap)
                and len(heap) >= self.COMPACT_MIN_QUEUE):
            heap[:] = [entry for entry in heap
                       if entry[2] is None or not entry[2]._cancelled]
            heapify(heap)
            self._cancelled_in_queue = 0

    def clock(self) -> int:
        """Current virtual time as a plain method (a picklable bound
        callable, unlike a lambda over :attr:`now` — world snapshots
        serialize component clocks as ``sim.clock`` references)."""
        return self._now

    # --------------------------------------------------------------- running

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Process events until the queue drains, ``until`` is reached, or
        ``max_events`` callbacks have run.

        Returns the number of callbacks executed by this call.  When
        ``until`` is given the clock is advanced to exactly ``until`` even if
        the queue drained earlier, so back-to-back ``run(until=...)`` calls
        behave like wall-clock segments.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        if until is not None and not isinstance(until, int):
            raise SimulationError(
                f"until must be an int (nanoseconds), got {type(until).__name__}")
        if max_events is not None and (not isinstance(max_events, int)
                                       or max_events < 0):
            raise SimulationError(
                f"max_events must be a non-negative int, got {max_events!r}")
        self._running = True
        executed = 0
        # Sentinels instead of per-event `is not None` checks: the loop
        # below runs once per event, so even a two-branch saving counts.
        stop = until if until is not None else _INF
        limit = max_events if max_events is not None else _INF
        heap = self._heap
        try:
            while executed < limit:
                if not heap:
                    break
                time, _, handle, callback, args = heap[0]
                if time > stop:
                    break
                heappop(heap)
                if handle is not None:
                    if handle._cancelled:
                        self._cancelled_in_queue -= 1
                        continue
                    handle._fired = True
                self._now = time
                callback(*args)
                executed += 1
        finally:
            self._running = False
            self._events_processed += executed
        if until is not None and self._now < until:
            self._now = until
        return executed

    def run_for(self, duration: int, max_events: Optional[int] = None) -> int:
        """Process events for ``duration`` nanoseconds of virtual time."""
        return self.run(until=self._now + duration, max_events=max_events)

    def peek_next_time(self) -> Optional[int]:
        """Virtual time of the next pending event, or None if queue is empty."""
        heap = self._heap
        while heap:
            handle = heap[0][2]
            if handle is None or not handle._cancelled:
                return heap[0][0]
            heappop(heap)
            self._cancelled_in_queue -= 1
        return None

    @property
    def pending_events(self) -> int:
        """Number of queued, not-yet-cancelled events."""
        return len(self._heap) - self._cancelled_in_queue

    @property
    def queue_size(self) -> int:
        """Total queue entries, including tombstones of cancelled events
        that have not been compacted or popped yet."""
        return len(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Simulator t={self.now_s:.6f}s pending={self.pending_events} "
                f"processed={self._events_processed}>")
