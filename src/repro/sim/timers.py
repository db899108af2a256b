"""Restartable timers on top of the event kernel.

TCP and the ST-TCP heartbeat machinery are full of "arm / re-arm / cancel"
timer patterns; :class:`Timer` and :class:`PeriodicTimer` capture them once
so protocol code stays readable.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.core import EventHandle, Simulator

__all__ = ["Timer", "DeadlineTimer", "PeriodicTimer"]


class Timer:
    """A one-shot timer that can be (re)started and stopped.

    ``callback`` fires once, ``interval`` nanoseconds after the most recent
    :meth:`start` / :meth:`restart`.  Restarting an armed timer cancels the
    previous deadline — exactly the semantics of a TCP retransmission timer.
    """

    __slots__ = ("_sim", "_callback", "_label", "_handle")

    def __init__(self, sim: Simulator, callback: Callable[[], Any],
                 label: str = "timer"):
        self._sim = sim
        self._callback = callback
        self._label = label
        self._handle: Optional[EventHandle] = None

    @property
    def armed(self) -> bool:
        """True while a deadline is pending."""
        handle = self._handle
        return (handle is not None
                and not (handle._cancelled or handle._fired))

    @property
    def deadline(self) -> Optional[int]:
        """Absolute firing time in ns, or None when not armed."""
        return self._handle.time if self.armed else None

    def start(self, interval: int) -> None:
        """Arm the timer ``interval`` ns from now, replacing any deadline."""
        self.stop()
        self._handle = self._sim.schedule(interval, self._fire, label=self._label)

    # restart is an alias that reads better at call sites that always re-arm.
    restart = start

    def stop(self) -> None:
        """Disarm the timer.  Idempotent."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        self._callback()


class DeadlineTimer:
    """A :class:`Timer` variant for high-churn re-arm patterns.

    A TCP retransmission timer is restarted on every new ack — thousands
    of times per connection — but actually *fires* only on loss.  With the
    eager :class:`Timer` every restart is a cancel + schedule pair, which
    leaves one tombstone per restart in the event queue and triggers
    periodic compaction sweeps.  Here :meth:`start` is a field write: the
    logical deadline lives in :attr:`deadline`, and a single scheduled
    sentinel event re-arms itself forward when it fires before the
    deadline (the Linux kernel's "deferrable timer" trick).  :meth:`stop`
    simply clears the deadline; a stale sentinel fires once as a no-op
    instead of leaving a tombstone in the queue.  Measured against the
    heap with the RTO as a plain :class:`Timer`: about 3% of ``wall_s``
    on ``kv_128c`` and ``bulk_1c`` (docs/performance.md, ablation ledger
    row five).

    The callback still runs at exactly the deadline instant, so virtual-
    time behaviour matches :class:`Timer`; only the (time, seq) tiebreak
    of the firing event against other events at the same nanosecond can
    differ, which the golden-trace suite holds unchanged for every
    committed scenario.
    """

    __slots__ = ("_sim", "_callback", "_label", "_handle", "_deadline")

    def __init__(self, sim: Simulator, callback: Callable[[], Any],
                 label: str = "timer"):
        self._sim = sim
        self._callback = callback
        self._label = label
        self._handle: Optional[EventHandle] = None
        self._deadline: Optional[int] = None

    @property
    def armed(self) -> bool:
        """True while a deadline is pending."""
        return self._deadline is not None

    @property
    def deadline(self) -> Optional[int]:
        """Absolute firing time in ns, or None when not armed."""
        return self._deadline

    def start(self, interval: int) -> None:
        """Arm the timer ``interval`` ns from now, replacing any deadline."""
        sim = self._sim
        deadline = sim._now + interval
        self._deadline = deadline
        handle = self._handle
        if handle is None:
            self._handle = sim.schedule(interval, self._fire,
                                        label=self._label)
        elif handle.time > deadline:
            # The pending sentinel lies beyond the new deadline (the RTO
            # shrank faster than time advanced) — only here do we pay a
            # real cancel + reschedule.
            handle.cancel()
            self._handle = sim.schedule(interval, self._fire,
                                        label=self._label)
        # else: the sentinel fires at or before the deadline and will
        # re-arm itself for the remainder.

    restart = start

    def stop(self) -> None:
        """Disarm the timer.  Idempotent; the sentinel no-ops later."""
        self._deadline = None

    def _fire(self) -> None:
        deadline = self._deadline
        if deadline is None:
            self._handle = None
            return
        now = self._sim._now
        if now < deadline:
            self._sim.rearm(self._handle, deadline - now)
            return
        self._handle = self._deadline = None
        self._callback()


class PeriodicTimer:
    """A timer that fires every ``period`` ns until stopped.

    Used for heartbeat transmission and application pacing.  The period can
    be changed on the fly with :meth:`reschedule`; by default the new
    period takes effect from the next tick, while ``immediate=True``
    re-arms the pending deadline as well (heartbeat-frequency sweeps
    change the period mid-run and must not wait out a stale long period).
    """

    __slots__ = ("_sim", "_callback", "_period", "_label", "_handle")

    def __init__(self, sim: Simulator, callback: Callable[[], Any],
                 period: int, label: str = "periodic"):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self._sim = sim
        self._callback = callback
        self._period = period
        self._label = label
        self._handle: Optional[EventHandle] = None

    @property
    def period(self) -> int:
        """Current tick period in nanoseconds."""
        return self._period

    @property
    def running(self) -> bool:
        """True while the timer is ticking."""
        return self._handle is not None and self._handle.pending

    def start(self, fire_immediately: bool = False) -> None:
        """Begin ticking.  With ``fire_immediately`` the first tick is now."""
        self.stop()
        delay = 0 if fire_immediately else self._period
        self._handle = self._sim.schedule(delay, self._tick, label=self._label)

    def stop(self) -> None:
        """Stop ticking.  Idempotent."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def reschedule(self, period: int, immediate: bool = False) -> None:
        """Change the period.

        By default the pending tick keeps its old deadline and the new
        period applies from the *next* tick onward.  With
        ``immediate=True`` the pending deadline itself is re-armed to
        ``now + period`` (and ticking continues at the new period), so a
        mid-run period change takes effect without waiting out the old
        interval.  On a stopped timer ``immediate`` is a no-op beyond
        storing the period for the next :meth:`start`.
        """
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self._period = period
        if immediate and self.running:
            self._handle.cancel()
            self._handle = self._sim.schedule(period, self._tick,
                                              label=self._label)

    def _tick(self) -> None:
        self._sim.rearm(self._handle, self._period)
        self._callback()
