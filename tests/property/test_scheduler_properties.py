"""The event queue is observationally identical to a sorted list.

The kernel's contract (docs/scheduler.md): events fire in global
``(time, insertion-sequence)`` order, a cancelled event never fires, a
fired handle can be re-armed and is then an ordinary pending event, and
none of it depends on where the heap happens to hold an entry or on when
tombstones are compacted away.  We check it the direct way: run
arbitrary programs of schedule / schedule_at / post / cancel / rearm /
run(until) operations — including scheduling, posting, cancelling and
re-arming from inside callbacks, and bursts large enough that a cancel
made mid-``run`` crosses the compaction threshold — through the real
:class:`Simulator` and through a naive model that keeps one sorted list,
and require identical fire logs, clocks, live counts and next-event
times.
"""

import itertools
from bisect import insort

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.core import Simulator


class RefHandle:
    def __init__(self, callback, args):
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    def cancel(self):
        if not self.fired:
            self.cancelled = True


class SortedListScheduler:
    """The kernel reduced to its semantics: one list kept sorted by
    (time, seq), cancelled entries dropped before every look at the head."""

    def __init__(self):
        self.now = 0
        self._seq = 0
        self._queue = []

    def schedule(self, delay, callback, *args):
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time, callback, *args):
        handle = RefHandle(callback, args)
        self._seq += 1
        insort(self._queue, (time, self._seq, handle))
        return handle

    def post(self, delay, callback, *args):
        self.schedule(delay, callback, *args)

    def rearm(self, handle, delay):
        assert handle.fired and delay >= 0, "the programs only re-arm legally"
        handle.fired = False
        self._seq += 1
        insort(self._queue, (self.now + delay, self._seq, handle))

    def _live(self):
        self._queue = [e for e in self._queue if not e[2].cancelled]
        return self._queue

    @property
    def pending_events(self):
        return len(self._live())

    def peek_next_time(self):
        queue = self._live()
        return queue[0][0] if queue else None

    def run(self, until=None):
        while True:
            queue = self._live()
            if not queue or (until is not None and queue[0][0] > until):
                break
            time, _seq, handle = queue.pop(0)
            self.now = time
            handle.fired = True
            handle.callback(*handle.args)
        if until is not None and self.now < until:
            self.now = until


# Sub-microsecond ties, wire-scale delays, RTO-scale delays and idle gaps
# of tens of seconds: same-instant FIFO and far-apart inserts both occur.
DELAYS = st.one_of(
    st.integers(0, 5_000),
    st.integers(0, 20_000_000),
    st.integers(0, 6_000_000_000),
    st.integers(0, 30_000_000_000),
)

CANCEL_OPS = st.one_of(
    st.tuples(st.just("cancel"), st.integers(0, 255)),
    # Enough cancels in one callback to cross cancelled*2 > size.
    st.tuples(st.just("cancel_range"), st.integers(0, 255),
              st.integers(0, 200)),
)
CHILD_OP = st.one_of(
    st.tuples(st.just("sched"), DELAYS, st.just(())),
    st.tuples(st.just("post"), DELAYS, st.just(())),
    CANCEL_OPS,
)
CHILDREN = st.lists(CHILD_OP, max_size=3).map(tuple)
# A callback that re-arms its own handle once per listed delay (zero
# delays included: the re-armed entry ties with its siblings), before or
# after it runs its children, so the entry's seq lands on both sides of
# theirs.
REARM_DELAYS = st.lists(st.one_of(st.just(0), DELAYS), min_size=1,
                        max_size=4).map(tuple)
OP = st.one_of(
    st.tuples(st.just("sched"), DELAYS, CHILDREN),
    st.tuples(st.just("sched_at"), DELAYS, CHILDREN),
    st.tuples(st.just("post"), DELAYS, CHILDREN),
    st.tuples(st.just("rearm"), DELAYS, REARM_DELAYS, st.booleans(),
              CHILDREN),
    # A fleet's worth of armed timers: the queue grows past
    # COMPACT_MIN_QUEUE, so the cancels above can trigger a compaction.
    st.tuples(st.just("burst"), st.integers(0, 160), DELAYS),
    CANCEL_OPS,
)
PROGRAM = st.lists(
    st.tuples(st.lists(OP, max_size=8), st.one_of(st.none(), DELAYS)),
    min_size=1, max_size=6)


def execute(scheduler, program):
    """Run ``program`` on ``scheduler``; return (fire log, per-step
    (now, live count, next time) readings)."""
    log = []
    readings = []
    handles = []
    ids = itertools.count()

    def fire(op_id, children):
        log.append((now(), op_id))
        for child in children:
            do_op(child)

    def fire_rearming(op_id, cell, delays, rearm_first, children):
        log.append((now(), op_id))
        left = cell[1] = cell[1] - 1
        if left >= 0 and rearm_first:
            scheduler.rearm(cell[0], delays[left])
        for child in children:
            do_op(child)
        if left >= 0 and not rearm_first:
            scheduler.rearm(cell[0], delays[left])

    def now():
        return scheduler.now

    def do_op(spec):
        kind = spec[0]
        if kind == "sched":
            handles.append(
                scheduler.schedule(spec[1], fire, next(ids), spec[2]))
        elif kind == "sched_at":
            handles.append(
                scheduler.schedule_at(now() + spec[1], fire,
                                      next(ids), spec[2]))
        elif kind == "post":
            scheduler.post(spec[1], fire, next(ids), spec[2])
        elif kind == "rearm":
            cell = [None, len(spec[2])]
            cell[0] = scheduler.schedule(spec[1], fire_rearming, next(ids),
                                         cell, *spec[2:])
            handles.append(cell[0])
        elif kind == "burst":
            for i in range(spec[1]):
                handles.append(scheduler.schedule(
                    spec[2] + (i * 37_003) % 5_000_000, fire, next(ids), ()))
        elif kind == "cancel":
            if handles:
                handles[spec[1] % len(handles)].cancel()
        else:  # cancel_range
            start = spec[1] % len(handles) if handles else 0
            for handle in handles[start:start + spec[2]]:
                handle.cancel()

    def read():
        readings.append((now(), scheduler.pending_events,
                         scheduler.peek_next_time()))

    for ops, duration in program:
        for spec in ops:
            do_op(spec)
        read()
        scheduler.run(until=None if duration is None else now() + duration)
        read()
    scheduler.run()  # drain whatever survived, however far out
    read()
    return log, readings


@given(PROGRAM)
@settings(max_examples=150, deadline=None)
def test_simulator_matches_sorted_list_model(program):
    assert execute(Simulator(), program) == \
        execute(SortedListScheduler(), program)


def test_mass_cancel_churn_matches_heap():
    """Enough tombstones to trigger compaction repeatedly, spread from
    microseconds to tens of seconds out, with survivors interleaved —
    order must still match."""
    ops = [("sched", (i * 37_003) % 25_000_000_000, ()) for i in range(300)]
    ops += [("cancel", i) for i in range(280) if i % 4]  # three quarters
    program = [(ops, None)]
    assert execute(Simulator(), program) == \
        execute(SortedListScheduler(), program)


def test_same_instant_fifo_across_seconds():
    """Ties on `time` resolve by insertion sequence even when the tied
    events were inserted seconds of virtual time apart, with other work
    (and a compaction) in between."""
    sim = Simulator()
    order = []
    target = 10_000_000_000
    sim.schedule_at(target, order.append, "first")

    def later(tag):
        sim.schedule_at(target, order.append, tag)

    sim.schedule(3_000_000_000, later, "second, 3 s on")
    sim.schedule(7_000_000_000, later, "third, 7 s on")
    sim.schedule_at(target, order.append, "inserted at t=0, after first")
    churn = [sim.schedule(5_000_000_000 + i, lambda: None)
             for i in range(200)]
    sim.schedule(4_000_000_000, lambda: [h.cancel() for h in churn])
    sim.post(target, order.append, "posted last at t=0")
    sim.run()
    assert order == ["first", "inserted at t=0, after first",
                     "posted last at t=0", "second, 3 s on",
                     "third, 7 s on"]


def test_arm_cancel_churn_keeps_the_queue_bounded():
    """A restarted timer (cancel + schedule, the eager ``Timer``) must not
    grow the queue: tombstones never exceed the live entries by more than
    the no-compaction floor."""
    sim = Simulator()
    background = [sim.schedule(10_000_000 + i, lambda: None)
                  for i in range(100)]
    handle = sim.schedule(1_000_000, lambda: None)
    worst = 0
    for i in range(50_000):
        handle.cancel()
        handle = sim.schedule(1_000_000 + i % 977, lambda: None)
        worst = max(worst, sim.queue_size - 2 * sim.pending_events)
    assert worst <= Simulator.COMPACT_MIN_QUEUE
    assert sim.pending_events == len(background) + 1


def test_compaction_from_inside_a_callback_keeps_the_queue_intact():
    """``run`` holds the queue while a callback cancels enough handles to
    compact it: everything still queued must fire, once, in order."""
    sim = Simulator()
    fired = []
    doomed = [sim.schedule(2_000 + i, fired.append, ("doomed", i))
              for i in range(300)]
    for i in range(100):
        sim.schedule(1_000 + 30 * i, fired.append, ("kept", i))
        sim.post(1_000 + 30 * i, fired.append, ("posted", i))
    sizes = []

    def cancel_most():
        sizes.append(sim.queue_size)
        for handle in doomed[:280]:
            handle.cancel()
        sizes.append(sim.queue_size)
        sim.schedule(0, fired.append, "scheduled after compaction")

    sim.schedule(1_500, cancel_most)
    sim.run()
    before, after = sizes
    assert after < before - 200, "the cancels were meant to compact"
    expected = sorted(
        [(1_000 + 30 * i, 2 * i, ("kept", i)) for i in range(100)]
        + [(1_000 + 30 * i, 2 * i + 1, ("posted", i)) for i in range(100)]
        + [(2_000 + i, -1, ("doomed", i)) for i in range(280, 300)]
        + [(1_500, 1_000, "scheduled after compaction")])
    assert fired == [tag for _time, _seq, tag in expected]
    assert sim.queue_size == sim.pending_events == 0


def test_rearm_takes_its_place_in_same_instant_fifo():
    """A zero-delay re-arm fires after what was inserted before it and
    before what is inserted after it, like any other insert."""
    sim = Simulator()
    order = []
    cell = []

    def hop():
        order.append("hop")
        if order.count("hop") == 1:
            sim.post(0, order.append, "posted before the re-arm")
            sim.rearm(cell[0], 0)
            sim.post(0, order.append, "posted after the re-arm")

    cell.append(sim.schedule(5, hop))
    sim.schedule(5, order.append, "scheduled earlier for the same instant")
    sim.run()
    assert order == ["hop", "scheduled earlier for the same instant",
                     "posted before the re-arm", "hop",
                     "posted after the re-arm"]
    assert sim.now == 5 and cell[0].fired and cell[0].time == 5


def test_a_rearmed_handle_is_pending_and_another_callback_can_cancel_it():
    sim = Simulator()
    ticks = []
    cell = []

    def tick():
        ticks.append(sim.now)
        sim.rearm(cell[0], 10)

    cell.append(sim.schedule(10, tick))
    sim.run(until=35)
    handle = cell[0]
    assert ticks == [10, 20, 30]
    assert handle.pending and handle.time == 40 and sim.pending_events == 1
    sim.schedule(2, handle.cancel)
    sim.run(until=100)
    assert ticks == [10, 20, 30] and handle.cancelled
    assert sim.pending_events == sim.queue_size == 0


def test_rearm_across_a_mid_run_compaction():
    """The re-armed entry is queued while another callback cancels enough
    handles to rebuild the heap, and re-arms again afterwards: it survives
    the filter, keeps its place and every later tick is on time."""
    sim = Simulator()
    ticks = []
    cell = []

    def tick():
        ticks.append(sim.now)
        if len(ticks) < 6:
            sim.rearm(cell[0], 1_000)

    cell.append(sim.schedule(1_000, tick))
    doomed = [sim.schedule(10_000 + i, ticks.append, "doomed")
              for i in range(300)]
    sizes = []

    def cancel_all():
        sizes.append(sim.queue_size)
        for handle in doomed:
            handle.cancel()
        sizes.append(sim.queue_size)

    sim.schedule(2_500, cancel_all)
    sim.run()
    assert sizes[1] < sizes[0] - 200, "the cancels were meant to compact"
    assert ticks == [1_000, 2_000, 3_000, 4_000, 5_000, 6_000]
    assert sim.queue_size == sim.pending_events == 0


def test_rearm_refuses_a_handle_that_may_still_be_queued():
    sim = Simulator()
    pending = sim.schedule(10, lambda: None)
    with pytest.raises(SimulationError, match="fired"):
        sim.rearm(pending, 5)
    cancelled = sim.schedule(10, lambda: None)
    cancelled.cancel()
    with pytest.raises(SimulationError, match="fired"):
        sim.rearm(cancelled, 5)
    sim.run()
    assert pending.fired
    with pytest.raises(SimulationError, match="past"):
        sim.rearm(pending, -1)
    with pytest.raises(SimulationError, match="int"):
        sim.rearm(pending, 1.5)
    assert pending.fired and sim.queue_size == 0, "a refusal queues nothing"
    sim.rearm(pending, 0)
    with pytest.raises(SimulationError, match="fired"):
        sim.rearm(pending, 0)  # pending again
    assert sim.run() == 1
