"""Unit tests for the milestone list, ``World.trace``: a plain list of
the ``ProbeEvent``s the world's own bus appends for every ``traced``
probe in a kept category."""

from repro.sim.world import World


def test_records_carry_time_and_fields():
    world = World()
    world.sim.schedule(100, lambda: world.probes.fire(
        "tcp.state", "conn1", state="SYN_SENT"))
    world.run()
    assert len(world.trace) == 1
    event = world.trace[0]
    assert event.time == 100
    assert event.time_s == 100e-9
    assert (event.category, event.source, event.message) == \
        ("tcp", "conn1", "state")
    assert event.fields == {"state": "SYN_SENT"}


def test_category_filtering_drops_unlisted():
    world = World(trace_categories={"hb"})
    world.probes.fire("tcp.state", "x", state="LISTEN")
    world.probes.fire("hb.send", "x", "sent")
    assert [event.category for event in world.trace] == ["hb"]
    # Dropped means not subscribed: a fire in an unlisted category finds
    # no sink and builds no event at all.
    assert not world.probes.wants("tcp.state")
    assert world.probes.fired == 1


def test_filter_by_category_source_contains():
    """The log has no query helpers: an event carries ``category``,
    ``source`` and ``message``, and a comprehension is the filter (the
    "reading the milestone list" example in docs/observability.md)."""
    world = World()
    world.probes.fire("tcp.closed", "a", reason="sent data")
    world.probes.fire("tcp.closed", "b", reason="sent data")
    world.probes.fire("hb.send", "a", "heartbeat out")
    trace = world.trace
    assert len([e for e in trace if e.category == "tcp"]) == 2
    assert len([e for e in trace if e.source == "a"]) == 2
    assert len([e for e in trace if "heartbeat" in e.message]) == 1
    assert len([e for e in trace
                if e.category == "tcp" and e.source == "a"]) == 1
    first_tcp = next(e for e in trace if e.category == "tcp")
    assert first_tcp.source == "a"


def test_subscribe_sees_live_records():
    """The list is one subscriber among others: whoever else attaches to
    the bus is handed the very event the list keeps, as it fires."""
    world = World()
    seen = []
    world.probes.subscribe("hb.send", seen.append)
    world.probes.fire("hb.send", "s", "hello")
    assert len(seen) == 1
    assert seen[0] is world.trace[0]
