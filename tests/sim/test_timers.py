"""Unit tests for Timer, DeadlineTimer and PeriodicTimer."""

import inspect
import tracemalloc

import pytest

from repro.scenarios.builder import Testbed as _Testbed, build_testbed
from repro.sim import core, timers
from repro.sim.core import Simulator
from repro.sim.timers import DeadlineTimer, PeriodicTimer, Timer


def test_timer_fires_once():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(100)
    sim.run()
    assert fired == [100]
    assert not timer.armed


def test_timer_restart_replaces_deadline():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(100)
    sim.run(until=50)
    timer.restart(100)  # now due at 150
    sim.run()
    assert fired == [150]


def test_timer_stop_prevents_fire():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(1))
    timer.start(100)
    timer.stop()
    sim.run()
    assert fired == []
    assert not timer.armed


def test_timer_stop_is_idempotent():
    sim = Simulator()
    timer = Timer(sim, lambda: None)
    timer.stop()
    timer.stop()


def test_timer_deadline_property():
    sim = Simulator()
    timer = Timer(sim, lambda: None)
    assert timer.deadline is None
    timer.start(100)
    assert timer.deadline == 100
    timer.stop()
    assert timer.deadline is None


def test_timer_can_rearm_from_callback():
    sim = Simulator()
    fired = []
    holder = {}

    def tick():
        fired.append(sim.now)
        if len(fired) < 3:
            holder["timer"].start(10)

    holder["timer"] = Timer(sim, tick)
    holder["timer"].start(10)
    sim.run()
    assert fired == [10, 20, 30]


def test_periodic_timer_ticks_at_period():
    sim = Simulator()
    ticks = []
    timer = PeriodicTimer(sim, lambda: ticks.append(sim.now), period=100)
    timer.start()
    sim.run(until=450)
    timer.stop()
    assert ticks == [100, 200, 300, 400]


def test_periodic_fire_immediately():
    sim = Simulator()
    ticks = []
    timer = PeriodicTimer(sim, lambda: ticks.append(sim.now), period=100)
    timer.start(fire_immediately=True)
    sim.run(until=250)
    timer.stop()
    assert ticks == [0, 100, 200]


def test_periodic_stop_halts_ticks():
    sim = Simulator()
    ticks = []
    timer = PeriodicTimer(sim, lambda: ticks.append(sim.now), period=100)
    timer.start()
    sim.run(until=250)
    timer.stop()
    sim.run(until=1000)
    assert ticks == [100, 200]
    assert not timer.running


def test_periodic_reschedule_takes_effect_next_tick():
    sim = Simulator()
    ticks = []
    timer = PeriodicTimer(sim, lambda: ticks.append(sim.now), period=100)
    timer.start()
    sim.run(until=150)
    timer.reschedule(50)
    sim.run(until=320)
    timer.stop()
    # tick at 100 (old period), then 200 (scheduled before change), then 250, 300
    assert ticks == [100, 200, 250, 300]


def test_periodic_rejects_bad_period():
    sim = Simulator()
    with pytest.raises(ValueError):
        PeriodicTimer(sim, lambda: None, period=0)
    timer = PeriodicTimer(sim, lambda: None, period=10)
    with pytest.raises(ValueError):
        timer.reschedule(-5)


def test_periodic_restart_resets_phase():
    sim = Simulator()
    ticks = []
    timer = PeriodicTimer(sim, lambda: ticks.append(sim.now), period=100)
    timer.start()
    sim.run(until=150)
    timer.start()  # restart at t=150: next ticks 250, 350...
    sim.run(until=400)
    timer.stop()
    assert ticks == [100, 250, 350]


def test_periodic_reschedule_immediate_rearms_pending_deadline():
    sim = Simulator()
    ticks = []
    timer = PeriodicTimer(sim, lambda: ticks.append(sim.now), period=1000)
    timer.start()                        # first tick would land at t=1000

    def change():
        timer.reschedule(200, immediate=True)

    sim.schedule(100, change)
    sim.run(until=800)
    timer.stop()
    # Re-armed at t=100: ticks at 300, 500, 700 — the stale 1000 ns
    # deadline never fires.
    assert ticks == [300, 500, 700]
    assert timer.period == 200


def test_periodic_reschedule_immediate_on_stopped_timer():
    sim = Simulator()
    ticks = []
    timer = PeriodicTimer(sim, lambda: ticks.append(sim.now), period=1000)
    timer.reschedule(250, immediate=True)    # not running: just store it
    assert not timer.running
    timer.start()
    sim.run(until=600)
    timer.stop()
    assert ticks == [250, 500]


# ------------------------------------------------- re-arming by one handle

class ChainedPeriodicTimer(PeriodicTimer):
    """The reference: every tick queues the next one with a fresh
    ``schedule`` call before it runs the callback.  ``PeriodicTimer``
    re-queues its own handle instead and must be indistinguishable."""

    def _tick(self):
        self._handle = self._sim.schedule(self._period, self._tick)
        self._callback()


def test_periodic_timer_keeps_one_handle_and_a_tick_leaves_only_its_queue_entry():
    sim = Simulator()
    timer = PeriodicTimer(sim, lambda: None, period=2_000)
    timer.start()
    sim.run(until=2_000)
    handle = timer._handle
    tracemalloc.start()
    try:
        sim.run(until=2_000 * 1_001)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert sim.events_processed == 1_001
    assert timer._handle is handle and handle.pending
    assert handle.time == 2_000 * 1_002

    def lines(function):
        source, first = inspect.getsourcelines(function)
        return set(range(first, first + len(source)))

    # What 1,000 ticks left allocated: the queued entry (its tuple, time
    # and seq) and run()'s event count.  No handle, no bound method.
    live = snapshot.filter_traces([
        tracemalloc.Filter(True, core.__file__),
        tracemalloc.Filter(True, timers.__file__)]).statistics("lineno")
    assert live and sum(stat.count for stat in live) <= 5
    for stat in live:
        frame = stat.traceback[0]
        assert frame.filename == core.__file__
        assert frame.lineno in (lines(Simulator.rearm) | lines(Simulator.run))


def _interleaved_run(timer_class):
    """Two timers whose ticks coincide every 300 ns, events queued for
    tick instants before the timers start, and callbacks that schedule
    onto their own next tick: every same-nanosecond tie a tick can be in."""
    sim = Simulator()
    log = []
    for at in (100, 150, 300, 600):
        sim.schedule_at(at, log.append, ("queued at t=0", at))

    def callback(tag, period):
        log.append((tag, sim.now))
        sim.post(0, log.append, (tag + " +0", sim.now))
        sim.post(period, log.append, (tag + " +period", sim.now + period))

    fast = timer_class(sim, lambda: callback("fast", 100), period=100)
    slow = timer_class(sim, lambda: callback("slow", 150), period=150)
    fast.start()
    slow.start(fire_immediately=True)
    sim.run(until=900)
    fast.stop()
    slow.stop()
    sim.run()
    assert sim.queue_size == 0
    return log


def test_periodic_ticks_interleave_exactly_like_a_chain_of_schedule_calls():
    log = _interleaved_run(PeriodicTimer)
    assert log == _interleaved_run(ChainedPeriodicTimer)
    # The next tick is queued before the callback schedules anything, so
    # at one instant: tick, then what the previous callback sent there.
    assert log.index(("fast", 200)) < log.index(("fast +period", 200))
    assert log.index(("queued at t=0", 300)) < log.index(("fast", 300))


@pytest.mark.parametrize("action, expected", [
    (lambda timer: timer.stop(), [100, 200]),
    (lambda timer: timer.start(), [100, 200, 300, 400]),
    (lambda timer: timer.start(fire_immediately=True),
     [100, 200, 200, 300, 400]),
    (lambda timer: timer.reschedule(30), [100, 200, 300, 330, 360, 390]),
    (lambda timer: timer.reschedule(30, immediate=True),
     [100, 200, 230, 260, 290, 320, 350, 380]),
], ids=["stop", "start", "start now", "reschedule", "reschedule immediate"])
def test_periodic_timer_controlled_from_inside_its_callback(action, expected):
    """The callback runs after the next tick is queued: whatever it does
    to the timer must act on that freshly queued entry."""
    def run(timer_class):
        sim = Simulator()
        ticks = []

        def callback():
            ticks.append(sim.now)
            if len(ticks) == 2:
                action(timer)

        timer = timer_class(sim, callback, period=100)
        timer.start()
        sim.run(until=400)
        timer.stop()
        assert sim.pending_events == 0, "a tick was left queued twice"
        return ticks

    assert run(PeriodicTimer) == run(ChainedPeriodicTimer) == expected


def test_deadline_timer_fires_at_its_deadline_and_stop_disarms():
    sim = Simulator()
    fired = []
    timer = DeadlineTimer(sim, lambda: fired.append(sim.now))
    assert not timer.armed and timer.deadline is None
    timer.start(100)
    assert timer.armed and timer.deadline == 100
    sim.run(until=50)
    timer.start(20)          # shrinks under the queued sentinel
    assert timer.deadline == 70
    sim.run()
    assert fired == [70] and not timer.armed
    timer.start(100)
    timer.stop()
    assert not timer.armed
    sim.run()                # the stale sentinel is a no-op
    assert fired == [70]
    timer.start(5)
    sim.run()
    assert fired == [70, 175]


def test_deadline_timer_restarted_from_its_callback():
    sim = Simulator()
    fired = []

    def callback():
        fired.append(sim.now)
        if len(fired) < 3:
            timer.start(10 * len(fired))

    timer = DeadlineTimer(sim, callback)
    timer.start(10)
    sim.run()
    assert fired == [10, 20, 40] and not timer.armed
    assert sim.queue_size == 0


def test_deadline_timer_restarted_10000_times_hops_on_one_handle():
    """The RTO pattern: restarted on every ack, fires once.  The sentinel
    hops forward by re-queueing its own handle — no tombstones, no new
    handles — and the callback runs at exactly the last deadline."""
    sim = Simulator()
    fired = []
    timer = DeadlineTimer(sim, lambda: fired.append(sim.now))
    timer.start(1_000)
    sentinel = timer._handle
    hops = set()
    deepest = [0]

    def restart():
        timer.start(1_000)
        assert timer._handle is sentinel
        hops.add(sentinel.time)
        deepest[0] = max(deepest[0], sim.queue_size)

    for i in range(10_000):
        sim.post(10 * i, restart)
    sim.run()
    assert fired == [10 * 9_999 + 1_000]
    assert not timer.armed and timer._handle is None
    assert len(hops) >= 100
    assert deepest[0] <= 10_001, "a hop left a tombstone behind"


class TickLog:
    """A picklable tick callback (world snapshots pickle the queue)."""

    def __init__(self, sim):
        self.sim = sim
        self.ticks = []

    def tick(self):
        self.ticks.append(self.sim.now)


def test_snapshot_and_restore_carry_rearmed_handles():
    """The queue of a snapshotted world may hold handles that already
    fired and were re-queued; the thawed copy ticks on, on time, and its
    timer still owns the queued entry."""
    testbed = build_testbed(seed=5)
    sim = testbed.world.sim
    log = TickLog(sim)
    timer = PeriodicTimer(sim, log.tick, period=2_000_000)
    timer.start(fire_immediately=True)
    sim.run(until=0)         # fires at t=0 and re-arms; still pristine
    assert log.ticks == [0] and timer._handle.time == 2_000_000
    testbed.extras = (timer, log)
    thawed = _Testbed.restore(testbed.snapshot(), seed=5)
    thawed_timer, thawed_log = thawed.extras
    assert thawed_timer is not timer and thawed_timer.running
    thawed.world.sim.run(until=5_000_000)
    assert thawed_log.ticks == [0, 2_000_000, 4_000_000]
    assert log.ticks == [0], "the original world did not move"
    thawed_timer.stop()
    thawed.world.sim.run(until=10_000_000)
    assert thawed_log.ticks == [0, 2_000_000, 4_000_000]
