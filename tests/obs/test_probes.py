"""Unit tests for the probe bus (subscribe/unsubscribe, zero-cost idle,
delivery order, trace mirroring)."""

import pytest

from repro.obs.bus import ProbeBus
from repro.obs.registry import PROBES, UnknownProbeError
from repro.sim.core import Simulator
from repro.sim.trace import TraceLog


def make_bus(with_trace=True):
    sim = Simulator()
    trace = TraceLog(lambda: sim.now) if with_trace else None
    return sim, trace, ProbeBus(lambda: sim.now, trace)


def test_fire_unregistered_probe_raises():
    _sim, _trace, bus = make_bus()
    with pytest.raises(UnknownProbeError):
        bus.fire("tcp.no_such_probe", "x")


def test_subscribe_unregistered_probe_raises():
    _sim, _trace, bus = make_bus()
    with pytest.raises(UnknownProbeError):
        bus.subscribe("nope.nope", lambda ev: None)


def test_idle_fire_builds_no_event():
    """Zero overhead when unsubscribed: no event object is constructed."""
    _sim, trace, bus = make_bus()
    bus.fire("tcp.segment_tx", "conn", len=100)   # untraced probe
    bus.fire("hb.send", "hb", "sent", seq=1)      # traced probe
    assert bus.fired == 0
    # The traced probe still produced exactly its legacy trace record.
    assert len(trace) == 1
    assert trace.records[0].category == "hb"


def test_enabled_reflects_subscriptions():
    _sim, _trace, bus = make_bus()
    assert not bus.enabled("tcp.segment_tx")
    cb = bus.subscribe("tcp.segment_tx", lambda ev: None)
    assert bus.enabled("tcp.segment_tx")
    assert not bus.enabled("tcp.segment_rx")
    bus.unsubscribe(cb)
    assert not bus.enabled("tcp.segment_tx")
    bus.subscribe_all(lambda ev: None)
    assert bus.enabled("tcp.segment_rx")  # wildcard enables everything


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
    """A traced fire must equal the TraceLog.record call it replaced."""
    _sim, trace, bus = make_bus()
    bus.fire("hb.recv", "p.hb", "received", link="ip", seq=3)
    rec = trace.records[0]
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
    _sim, _trace, bus = make_bus(with_trace=False)
    bus.fire("hb.send", "hb")  # must not blow up with trace=None
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


def test_trace_filter_change_during_a_fire_takes_effect_from_the_next_fire():
    _sim, trace, bus = make_bus()
    trace.set_enabled_categories(set())
    enable = bus.subscribe(
        "hb.send", lambda ev: trace.set_enabled_categories({"hb"}))
    bus.fire("hb.send", "hb", seq=1)    # mirror was not attached yet
    assert len(trace) == 0
    bus.unsubscribe(enable)
    bus.subscribe("hb.send", lambda ev: trace.set_enabled_categories(set()))
    bus.fire("hb.send", "hb", seq=2)    # mirror was attached: still kept
    assert [r.fields for r in trace] == [{"seq": 2}]
    bus.fire("hb.send", "hb", seq=3)
    assert len(trace) == 1


def test_trace_mirror_runs_after_every_subscriber():
    """Record order is unchanged: a subscriber that writes to the trace
    from its callback lands before the fire's own mirrored record."""
    _sim, trace, bus = make_bus()
    bus.subscribe("hb.send", lambda ev: trace.record("hb", "sub", "saw it"))
    bus.subscribe_all(lambda ev: None)
    bus.fire("hb.send", "hb", "sent")
    assert [r.message for r in trace] == ["saw it", "sent"]


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


# ------------------------------------------ enabled() / wants() / the table

def test_enabled_and_wants_differ_only_by_the_trace_mirror():
    _sim, trace, bus = make_bus()
    # Traced probe, category kept, nobody subscribed: the mirror alone.
    assert bus.wants("hb.send") and not bus.enabled("hb.send")
    trace.set_enabled_categories(set())
    assert not bus.wants("hb.send") and not bus.enabled("hb.send")
    bus.subscribe("hb.send", lambda ev: None)
    assert bus.wants("hb.send") and bus.enabled("hb.send")
    for probe in PROBES:
        assert bus.wants(probe) == bus.wants_map[probe]
        assert bus.enabled(probe) <= bus.wants(probe)
    with pytest.raises(UnknownProbeError):
        bus.enabled("nope.nope")
    with pytest.raises(UnknownProbeError):
        bus.wants("nope.nope")
