"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim.core import Simulator, micros, millis, seconds


def test_time_helpers_are_exact_integers():
    assert seconds(1) == 1_000_000_000
    assert millis(1) == 1_000_000
    assert micros(1) == 1_000
    assert seconds(0.5) == 500_000_000
    assert isinstance(seconds(0.1), int)


def test_initial_time_is_zero():
    sim = Simulator()
    assert sim.now == 0
    assert sim.now_s == 0.0


def test_schedule_and_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30, order.append, "c")
    sim.schedule(10, order.append, "a")
    sim.schedule(20, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 30


def test_same_timestamp_is_fifo():
    sim = Simulator()
    order = []
    for tag in range(10):
        sim.schedule(100, order.append, tag)
    sim.run()
    assert order == list(range(10))


def test_zero_delay_runs_after_already_queued_same_instant():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(0, order.append, "nested")

    sim.schedule(0, first)
    sim.schedule(0, order.append, "second")
    sim.run()
    assert order == ["first", "second", "nested"]


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    fired = []
    sim.schedule(100, fired.append, 1)
    sim.schedule(300, fired.append, 2)
    sim.run(until=200)
    assert fired == [1]
    assert sim.now == 200  # advanced to the boundary even with queue empty
    sim.run(until=400)
    assert fired == [1, 2]


def test_run_for_advances_relative():
    sim = Simulator()
    sim.run_for(500)
    assert sim.now == 500
    sim.run_for(250)
    assert sim.now == 750


def test_cancel_prevents_execution():
    sim = Simulator()
    fired = []
    handle = sim.schedule(10, fired.append, 1)
    handle.cancel()
    sim.run()
    assert fired == []
    assert handle.cancelled
    assert not handle.fired


def test_cancel_is_idempotent_and_safe_after_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(10, fired.append, 1)
    sim.run()
    assert handle.fired
    handle.cancel()  # harmless
    assert fired == [1]


def test_handle_pending_lifecycle():
    sim = Simulator()
    handle = sim.schedule(10, lambda: None)
    assert handle.pending
    sim.run()
    assert not handle.pending
    assert handle.fired


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_float_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(1.5, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(100, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(50, lambda: None)


def test_callbacks_can_schedule_more_work():
    sim = Simulator()
    results = []

    def chain(n):
        results.append(n)
        if n < 5:
            sim.schedule(10, chain, n + 1)

    sim.schedule(0, chain, 0)
    sim.run()
    assert results == [0, 1, 2, 3, 4, 5]
    assert sim.now == 50


def test_max_events_limit():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(i + 1, fired.append, i)
    executed = sim.run(max_events=3)
    assert executed == 3
    assert fired == [0, 1, 2]


def test_peek_next_time_skips_cancelled():
    sim = Simulator()
    h1 = sim.schedule(10, lambda: None)
    sim.schedule(20, lambda: None)
    h1.cancel()
    assert sim.peek_next_time() == 20


def test_pending_events_counts_live_only():
    sim = Simulator()
    h1 = sim.schedule(10, lambda: None)
    sim.schedule(20, lambda: None)
    h1.cancel()
    assert sim.pending_events == 1


def test_run_not_reentrant():
    sim = Simulator()

    def reenter():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1, reenter)
    sim.run()


def test_events_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(i, lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_exceptions_propagate():
    sim = Simulator()

    def boom():
        raise RuntimeError("bug in protocol code")

    sim.schedule(1, boom)
    with pytest.raises(RuntimeError):
        sim.run()


def test_cancel_churn_compacts_queue_tombstones():
    # Arm/cancel churn (a restarted retransmission timer) must not grow
    # the heap without bound: cancelled entries are compacted away once
    # they outnumber live ones in a non-trivial queue.
    sim = Simulator()
    live = sim.schedule(10_000_000, lambda: None)
    handle = None
    for _ in range(10_000):
        if handle is not None:
            handle.cancel()
        handle = sim.schedule(1_000_000, lambda: None)
    assert sim.queue_size <= 2 * Simulator.COMPACT_MIN_QUEUE
    assert sim.pending_events == 2
    assert live.pending and handle.pending


def test_compaction_preserves_order_and_fires_live_events():
    sim = Simulator()
    fired = []
    # Interleave live events with churned-and-cancelled ones so the
    # rebuilt heap must keep (time, insertion-order) ordering intact.
    for i in range(200):
        sim.schedule(1000 + i, fired.append, i)
        sim.schedule(500, lambda: None).cancel()
    sim.run()
    assert fired == list(range(200))
    assert sim._cancelled_in_queue == 0


def test_cancel_after_fire_does_not_corrupt_tombstone_count():
    sim = Simulator()
    handle = sim.schedule(10, lambda: None)
    sim.run(until=20)
    assert handle.fired
    handle.cancel()                      # no-op: already fired
    assert not handle.cancelled
    assert sim._cancelled_in_queue == 0
    handle2 = sim.schedule(30, lambda: None)
    handle2.cancel()
    handle2.cancel()                     # idempotent: counted once
    assert sim._cancelled_in_queue == 1
    sim.run(until=60)                    # pops the tombstone at t=50
    assert sim._cancelled_in_queue == 0


def test_small_queues_are_not_compacted():
    # Below COMPACT_MIN_QUEUE lazy deletion is cheaper than rebuilding.
    sim = Simulator()
    handles = [sim.schedule(100 + i, lambda: None) for i in range(10)]
    for h in handles:
        h.cancel()
    assert sim.queue_size == 10
    assert sim.pending_events == 0


def test_max_events_zero_runs_nothing():
    # The limit used to be tested only after a callback had run, so a
    # budget of zero executed one event.
    sim = Simulator()
    fired = []
    sim.schedule(5, fired.append, 1)
    assert sim.run(max_events=0) == 0
    assert fired == []
    assert sim.now == 0
    assert sim.pending_events == 1


def test_negative_max_events_rejected():
    sim = Simulator()
    sim.schedule(5, lambda: None)
    with pytest.raises(SimulationError):
        sim.run(max_events=-1)
    assert sim.pending_events == 1


def test_float_until_rejected():
    # run(until=15.0) used to leave sim.now a float; every later delay
    # added to it was a float too, which a heap would carry silently.
    sim = Simulator()
    sim.schedule(10, lambda: None)
    with pytest.raises(SimulationError):
        sim.run(until=15.0)
    with pytest.raises(SimulationError):
        sim.run_for(15.0)
    assert sim.now == 0 and isinstance(sim.now, int)
    assert sim.pending_events == 1
    sim.run(until=15)                    # a refused run leaves it usable
    assert sim.now == 15


def test_post_fires_in_order_with_scheduled_events():
    sim = Simulator()
    order = []
    sim.schedule(10, order.append, "scheduled-first")
    sim.post(10, order.append, "posted")
    sim.schedule(10, order.append, "scheduled-last")
    sim.post(5, order.append, "early")
    assert sim.pending_events == sim.queue_size == 4
    sim.run()
    assert order == ["early", "scheduled-first", "posted", "scheduled-last"]
    with pytest.raises(SimulationError):
        sim.post(-1, order.append, "past")
    with pytest.raises(SimulationError):
        sim.post(1.5, order.append, "float")
