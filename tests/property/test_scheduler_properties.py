"""The timer wheel is observationally identical to a single binary heap.

The kernel's contract (docs/scheduler.md): events fire in global
``(time, insertion-sequence)`` order, no matter which tier — active
bucket, level-0/level-1 wheel, or overflow heap — an event happens to
land in, and no matter how the cursor advances or how entries migrate
between tiers.  We check it the direct way: run arbitrary programs of
schedule / schedule_at / post / cancel / run(until) operations (including
scheduling, posting and cancelling from inside callbacks) through the
real :class:`Simulator` and through a 20-line reference heap scheduler,
and require byte-identical fire logs.  ``post`` is the entry point every
frame on the wire takes: its kernel-owned handles are recycled through
the simulator's free list while the program's user-held handles are not,
and a post from inside a callback can land in the bucket being fired.
"""

import itertools
from heapq import heappop, heappush

from hypothesis import given, settings, strategies as st

from repro.sim.core import Simulator


class RefHandle:
    def __init__(self, callback, args):
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class HeapScheduler:
    """The old kernel, reduced to its semantics: one global (time, seq)
    min-heap, lazy cancellation, run-to-until clock advancement."""

    def __init__(self):
        self.now = 0
        self._seq = 0
        self._heap = []

    def schedule(self, delay, callback, *args):
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time, callback, *args):
        handle = RefHandle(callback, args)
        self._seq += 1
        heappush(self._heap, (time, self._seq, handle))
        return handle

    def post(self, delay, callback, *args):
        self.schedule(delay, callback, *args)

    def run(self, until=None):
        while self._heap:
            time, _seq, handle = self._heap[0]
            if until is not None and time > until:
                break
            heappop(self._heap)
            if handle.cancelled:
                continue
            self.now = time
            handle.callback(*handle.args)
        if until is not None and self.now < until:
            self.now = until


# Delay mix chosen to hit every tier of the wheel: the active bucket
# (sub-slot), many L0 slots, the L1 wheel, and the overflow heap.
DELAYS = st.one_of(
    st.integers(0, 5_000),
    st.integers(0, 20_000_000),
    st.integers(0, 6_000_000_000),
    st.integers(0, 30_000_000_000),
)

CHILD_OP = st.one_of(
    st.tuples(st.just("sched"), DELAYS, st.just(())),
    st.tuples(st.just("post"), DELAYS, st.just(())),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
)
OP = st.one_of(
    st.tuples(st.just("sched"), DELAYS,
              st.lists(CHILD_OP, max_size=3).map(tuple)),
    st.tuples(st.just("sched_at"), DELAYS,
              st.lists(CHILD_OP, max_size=3).map(tuple)),
    st.tuples(st.just("post"), DELAYS,
              st.lists(CHILD_OP, max_size=3).map(tuple)),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
)
PROGRAM = st.lists(
    st.tuples(st.lists(OP, max_size=8), st.one_of(st.none(), DELAYS)),
    min_size=1, max_size=6)


def execute(scheduler, program):
    """Run ``program`` on ``scheduler``; return (fire log, final now)."""
    log = []
    handles = []
    ids = itertools.count()

    def fire(op_id, children):
        log.append((now(), op_id))
        for child in children:
            do_op(child)

    def now():
        return scheduler.now

    def do_op(spec):
        if spec[0] == "sched":
            handles.append(
                scheduler.schedule(spec[1], fire, next(ids), spec[2]))
        elif spec[0] == "sched_at":
            handles.append(
                scheduler.schedule_at(now() + spec[1], fire,
                                      next(ids), spec[2]))
        elif spec[0] == "post":
            # No handle comes back: the record is the kernel's to recycle.
            scheduler.post(spec[1], fire, next(ids), spec[2])
        elif handles:
            handles[spec[1] % len(handles)].cancel()

    for ops, duration in program:
        for spec in ops:
            do_op(spec)
        scheduler.run(until=None if duration is None else now() + duration)
    scheduler.run()  # drain whatever survived, however far out
    return log, now()


@given(PROGRAM)
@settings(max_examples=150, deadline=None)
def test_wheel_fires_in_heap_order(program):
    wheel_log, wheel_now = execute(Simulator(), program)
    heap_log, heap_now = execute(HeapScheduler(), program)
    assert wheel_log == heap_log
    assert wheel_now == heap_now


def test_mass_cancel_churn_matches_heap():
    """Enough tombstones to trigger compaction repeatedly, spread across
    every tier, with survivors interleaved — order must still match."""
    def program_ops():
        ops = []
        for i in range(300):
            delay = (i * 37_003) % 25_000_000_000  # all tiers
            ops.append(("sched", delay, ()))
        for i in range(0, 280):
            if i % 4:  # cancel three quarters of them
                ops.append(("cancel", i))
        return [(ops, None)]

    program = program_ops()
    assert execute(Simulator(), program) == execute(HeapScheduler(), program)


def test_same_instant_fifo_across_tiers():
    """Ties on `time` resolve by insertion sequence even when the tied
    events were first routed to different tiers (L1 / overflow) and
    migrated inward later."""
    horizon = Simulator.L1_HORIZON_NS
    program = [(
        [("sched_at", horizon + 5, ()),      # overflow tier
         ("sched", 100, ()),                 # near future
         ("sched_at", horizon + 5, ()),      # overflow again, later seq
         ("sched_at", horizon - 10, ())],    # L1 tier
        None,
    )]
    assert execute(Simulator(), program) == execute(HeapScheduler(), program)
