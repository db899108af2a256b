"""Tests for the World container."""

import pytest

from repro.sim.core import seconds
from repro.sim.world import World


def test_world_bundles_services():
    world = World(seed=5)
    assert world.rng.seed == 5
    assert world.now == 0
    world.probes.fire("hb.send", "test", "hello")
    assert type(world.trace) is list and len(world.trace) == 1
    assert world.trace[0].time == 0
    assert world.trace[0].message == "hello"


def test_run_and_run_for():
    world = World()
    fired = []
    world.sim.schedule(seconds(1), fired.append, 1)
    world.run_for(seconds(2))
    assert fired == [1]
    assert world.now == seconds(2)
    assert world.now_s == 2.0


def test_trace_clock_follows_sim():
    world = World()
    world.sim.schedule(100, lambda: world.probes.fire("hb.send", "t", "later"))
    world.run()
    assert world.trace[0].time == 100


def test_trace_category_restriction():
    world = World(trace_categories={"fault"})
    world.probes.fire("tcp.state", "x", state="dropped")
    world.probes.fire("fault.host-down", "x", "kept")
    assert [event.message for event in world.trace] == ["kept"]


@pytest.mark.no_invariant_check   # counts sinks: the oracle would be one
def test_an_empty_category_set_keeps_nothing_and_costs_nothing():
    """What the benchmark's layer drivers construct: no probe has a sink,
    so every emitter's ``wants_map`` guard reads False."""
    world = World(seed=1, trace_categories=frozenset())
    assert not any(world.probes.wants_map.values())
    world.probes.fire("fault.host-down", "x")
    assert world.trace == [] and world.probes.fired == 0
