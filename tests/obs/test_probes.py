"""Unit tests for the probe bus (subscribe/attach/unsubscribe, zero-cost
idle, delivery order) and for the one subscriber every world brings: its
milestone list, ``World.trace``."""

import pytest

from repro.obs.bus import ProbeBus
from repro.obs.registry import PROBES, UnknownProbeError
from repro.sim.world import World

# Synthetic fires on a bus whose sinks these tests count: the REPRO_CHECK=1
# oracle would be one more subscriber, fed events no component emitted.
pytestmark = pytest.mark.no_invariant_check


def make_bus(with_trace=True):
    """``(sim, trace, bus)``: a world's bus with its milestone list
    attached, or a bare bus nothing listens to."""
    world = World(trace_categories=None if with_trace else frozenset())
    return world.sim, world.trace, world.probes


def test_fire_unregistered_probe_raises():
    _sim, _trace, bus = make_bus()
    with pytest.raises(UnknownProbeError):
        bus.fire("tcp.no_such_probe", "x")


def test_subscribe_unregistered_probe_raises():
    _sim, _trace, bus = make_bus()
    with pytest.raises(UnknownProbeError):
        bus.subscribe("nope.nope", lambda ev: None)


def test_idle_fire_builds_no_event():
    """Zero overhead when unsubscribed: no event object is constructed.
    ``fired`` counts exactly the fires that had a sink — the milestone
    list is one."""
    _sim, trace, bus = make_bus()
    bus.fire("tcp.segment_tx", "conn", len=100)   # untraced probe: no sink
    assert bus.fired == 0
    bus.fire("hb.send", "hb", "sent", seq=1)      # traced probe: the list
    assert bus.fired == 1
    assert [event.category for event in trace] == ["hb"]
    _sim, trace, bare = make_bus(with_trace=False)
    bare.fire("hb.send", "hb", "sent", seq=1)
    assert bare.fired == 0 and trace == []


def test_enabled_reflects_subscriptions():
    """A probe is enabled — ``wants`` it — exactly while it has a sink."""
    _sim, _trace, bus = make_bus()
    assert not bus.wants("tcp.segment_tx")
    cb = bus.subscribe("tcp.segment_tx", lambda ev: None)
    assert bus.wants("tcp.segment_tx")
    assert not bus.wants("tcp.deliver")
    bus.unsubscribe(cb)
    assert not bus.wants("tcp.segment_tx")
    bus.subscribe_all(lambda ev: None)
    assert bus.wants("tcp.deliver")  # wildcard enables everything


def test_subscriber_receives_event_fields():
    sim, _trace, bus = make_bus()
    got = []
    bus.subscribe("tcp.segment_tx", got.append)
    sim.schedule(250, lambda: bus.fire("tcp.segment_tx", "client.tcp",
                                       seq=7, len=1460))
    sim.run()
    assert len(got) == 1
    ev = got[0]
    assert ev.time == 250
    assert ev.time_s == pytest.approx(250e-9)
    assert ev.probe == "tcp.segment_tx"
    assert ev.category == "tcp"
    assert ev.source == "client.tcp"
    assert ev.message == "segment_tx"  # defaults to the event-name part
    assert ev.fields == {"seq": 7, "len": 1460}
    assert bus.fired == 1


def test_delivery_order_specific_before_wildcard_in_fire_order():
    _sim, _trace, bus = make_bus()
    order = []
    bus.subscribe("hb.send", lambda ev: order.append(("specific", ev.probe)))
    bus.subscribe_all(lambda ev: order.append(("wildcard", ev.probe)))
    bus.fire("hb.send", "hb")
    bus.fire("hb.recv", "hb")
    assert order == [("specific", "hb.send"), ("wildcard", "hb.send"),
                     ("wildcard", "hb.recv")]


def test_unsubscribe_is_idempotent():
    _sim, _trace, bus = make_bus()
    got = []
    bus.subscribe("hb.send", got.append)
    bus.unsubscribe(got.append)
    bus.unsubscribe(got.append)  # second time is a no-op
    bus.fire("hb.send", "hb")
    assert got == []


def test_traced_probe_mirrors_exact_trace_record():
    """A traced fire lands in the milestone list with the category,
    source, message and fields its emitter passed."""
    _sim, trace, bus = make_bus()
    bus.fire("hb.recv", "p.hb", "received", link="ip", seq=3)
    rec = trace[0]
    assert (rec.category, rec.source, rec.message) == \
        ("hb", "p.hb", "received")
    assert rec.fields == {"link": "ip", "seq": 3}


def test_untraced_probe_never_reaches_trace():
    _sim, trace, bus = make_bus()
    bus.subscribe_all(lambda ev: None)
    bus.fire("tcp.segment_tx", "conn", len=1)
    assert len(trace) == 0
    assert not PROBES["tcp.segment_tx"].traced


def test_fire_without_trace_backend():
    """A bus is complete on its own: no world, no list."""
    bus = ProbeBus(lambda: 0)
    bus.fire("hb.send", "hb")  # nobody listens: must not blow up
    got = []
    bus.subscribe("hb.send", got.append)
    bus.fire("hb.send", "hb")
    assert len(got) == 1


# ------------------------------------------------ changes made during a fire
#
# A fire walks an immutable, compiled sink tuple, so a subscription change
# made from inside a callback takes effect from the next fire.

def test_unsubscribing_itself_does_not_starve_the_next_subscriber():
    _sim, _trace, bus = make_bus()
    seen = []

    def first(ev):
        seen.append("first")
        bus.unsubscribe(first)

    bus.subscribe("hb.send", first)
    bus.subscribe("hb.send", lambda ev: seen.append("second"))
    bus.fire("hb.send", "hb")
    assert seen == ["first", "second"]
    bus.fire("hb.send", "hb")
    assert seen == ["first", "second", "second"]


def test_unsubscribing_another_takes_effect_from_the_next_fire():
    _sim, _trace, bus = make_bus()
    seen = []

    def second(ev):
        seen.append("second")

    bus.subscribe("hb.send", lambda ev: bus.unsubscribe(second))
    bus.subscribe("hb.send", second)
    bus.fire("hb.send", "hb")
    assert seen == ["second"]   # attached when the fire began
    bus.fire("hb.send", "hb")
    assert seen == ["second"]


def test_subscribing_during_a_fire_takes_effect_from_the_next_fire():
    _sim, _trace, bus = make_bus()
    seen = []

    def late(ev):
        seen.append(("late", ev.fields["seq"]))

    def first(ev):
        seen.append(("first", ev.fields["seq"]))
        if ev.fields["seq"] == 1:
            bus.subscribe("hb.send", late)
            bus.subscribe_all(late)

    bus.subscribe("hb.send", first)
    bus.fire("hb.send", "hb", seq=1)
    assert seen == [("first", 1)]
    bus.fire("hb.send", "hb", seq=2)
    assert seen[1:] == [("first", 2), ("late", 2), ("late", 2)]


# ------------------------------------------------------------ batch attach

def test_attach_validates_every_name_before_changing_anything():
    _sim, _trace, bus = make_bus(with_trace=False)
    got = []
    with pytest.raises(UnknownProbeError):
        bus.attach([("hb.send", got.append), ("nope.nope", got.append)])
    assert not bus.wants("hb.send")
    bus.fire("hb.send", "hb")
    assert got == [] and bus.fired == 0


def test_attach_compiles_once_and_subscribe_is_its_one_pair_case(monkeypatch):
    _sim, _trace, bus = make_bus(with_trace=False)
    compiles = []
    compile_table = ProbeBus._invalidate
    monkeypatch.setattr(
        ProbeBus, "_invalidate",
        lambda self: (compiles.append(1), compile_table(self))[1])
    seen = []
    callbacks = bus.attach(
        (probe, lambda ev, probe=probe: seen.append((probe, ev.probe)))
        for probe in PROBES)
    assert len(compiles) == 1 and len(callbacks) == len(PROBES)
    assert all(bus.wants_map.values())
    for probe in PROBES:
        bus.fire(probe, "x")
    assert seen == [(probe, probe) for probe in PROBES]
    bus.subscribe("hb.send", lambda ev: seen.append("one more"))
    assert len(compiles) == 2
    bus.unsubscribe(*callbacks)         # any number, one compile
    assert len(compiles) == 3
    assert [name for name, wanted in bus.wants_map.items() if wanted] == \
        ["hb.send"]


def test_the_milestone_list_is_attached_first_and_sees_every_traced_fire():
    """The world attaches its list when it is built, so it is the first
    sink of a traced probe: by the time a later subscriber runs, the
    event is already the list's last entry."""
    _sim, trace, bus = make_bus()
    order = []
    bus.subscribe("hb.send", lambda ev: order.append(trace[-1] is ev))
    bus.fire("hb.send", "hb", "sent")
    assert order == [True]


# ----------------------------------------------------------- the event type

def test_probe_event_is_immutable_and_keeps_its_field_order():
    from repro.obs.bus import ProbeEvent

    assert ProbeEvent._fields == ("time", "probe", "category", "source",
                                  "message", "fields")
    _sim, _trace, bus = make_bus()
    got = []
    bus.subscribe("hb.send", got.append)
    bus.fire("hb.send", "hb", "sent", seq=1)
    event = got[0]
    assert tuple(event) == (0, "hb.send", "hb", "hb", "sent", {"seq": 1})
    with pytest.raises(AttributeError):
        event.time = 5
    with pytest.raises(AttributeError):
        event.extra = 1


# ------------------------------------------------- wants() / the table

def test_wants_answers_from_the_compiled_table():
    _sim, _trace, bus = make_bus()
    # Traced probe, category kept, nobody subscribed: the list alone.
    assert bus.wants("hb.send")
    _sim, _trace, bus = make_bus(with_trace=False)
    assert not bus.wants("hb.send")
    bus.subscribe("hb.send", lambda ev: None)
    assert bus.wants("hb.send")
    for probe in PROBES:
        assert bus.wants(probe) == bus.wants_map[probe]
    with pytest.raises(UnknownProbeError):
        bus.wants("nope.nope")
