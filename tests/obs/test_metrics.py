"""Unit tests for counters, gauges, histograms and snapshots."""

import json

import pytest

from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               format_snapshot_json, format_snapshot_text)


def test_counter_increments():
    c = Counter("tcp.segments_sent_total")
    c.inc()
    c.inc(5)
    assert c.value == 6


def test_counter_rejects_negative():
    c = Counter("x")
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_last_value_wins():
    g = Gauge("sttcp.failover_latency_ns")
    assert g.value is None
    g.set(100)
    g.set(42)
    assert g.value == 42


def test_histogram_summary_statistics():
    h = Histogram("hb.interarrival_ns")
    for v in (1, 2, 3, 10):
        h.observe(v)
    assert h.count == 4
    assert h.total == 16
    assert h.min == 1
    assert h.max == 10
    assert h.mean == 4.0


def test_histogram_buckets_power_of_four_upper_bounds():
    h = Histogram("x")
    h.observe(1)    # le_1
    h.observe(3)    # le_4
    h.observe(4)    # le_4 (inclusive upper bound)
    h.observe(100)  # le_256
    d = h.to_dict()
    assert d["buckets"] == {"le_1": 1, "le_4": 2, "le_256": 1}


def test_histogram_overflow_goes_to_inf_bucket():
    h = Histogram("x")
    h.observe(2 ** 63)
    assert h.to_dict()["buckets"] == {"le_inf": 1}


def test_histogram_bit_length_bucket_is_the_first_bound_that_fits():
    """An int is bucketed from its bit length; every edge (a bound, one
    below, one above) must land where a scan of BOUNDS puts it."""
    edges = {0, -5}
    for bound in Histogram.BOUNDS:
        edges.update((bound - 1, bound, bound + 1, 2 * bound))
    for value in sorted(edges):
        h = Histogram("x")
        h.observe(value)
        fits = [b for b in Histogram.BOUNDS if value <= b]
        expected = f"le_{fits[0]}" if fits else "le_inf"
        assert h.to_dict()["buckets"] == {expected: 1}, value
    for value in (0.5, 3.5, 4.0, 1e30):   # floats still scan
        h = Histogram("x")
        h.observe(value)
        fits = [b for b in Histogram.BOUNDS if value <= b]
        expected = f"le_{fits[0]}" if fits else "le_inf"
        assert h.to_dict()["buckets"] == {expected: 1}, value


def test_empty_histogram_to_dict():
    d = Histogram("x").to_dict()
    assert d["count"] == 0
    assert d["mean"] is None
    assert d["buckets"] == {}


def test_registry_get_or_create_identity():
    m = MetricsRegistry()
    assert m.counter("a") is m.counter("a")
    assert m.gauge("b") is m.gauge("b")
    assert m.histogram("c") is m.histogram("c")


def test_snapshot_is_sorted_and_json_ready():
    m = MetricsRegistry()
    m.counter("z.total").inc(2)
    m.counter("a.total").inc(1)
    m.gauge("g.ns").set(7)
    m.histogram("h").observe(3)
    snap = m.snapshot()
    assert list(snap["counters"]) == ["a.total", "z.total"]
    # Round-trips through canonical JSON without loss.
    again = json.loads(format_snapshot_json(snap))
    assert again == snap


def test_format_snapshot_json_is_canonical():
    m = MetricsRegistry()
    m.counter("b").inc()
    m.counter("a").inc()
    text = format_snapshot_json(m.snapshot())
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert ", " not in text  # compact separators


def test_format_snapshot_text_lists_all_sections():
    m = MetricsRegistry()
    m.counter("tcp.segments_sent_total").inc(10)
    m.gauge("sim.virtual_time_ns").set(5)
    m.histogram("hb.interarrival_ns").observe(200)
    out = format_snapshot_text(m.snapshot())
    assert "counters:" in out and "gauges:" in out and "histograms:" in out
    assert "tcp.segments_sent_total" in out
    assert "count=1" in out
