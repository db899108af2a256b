"""Demo 1: client-transparent seamless failover (the headline property).

The paper's claim: with ST-TCP, a primary crash mid-stream appears to the
client "at worst as a glitch"; without it, the service is disrupted and
the client must reconnect.
"""

import pytest

from repro.faults.faults import OsCrash
from repro.scenarios.options import RunOptions
from repro.scenarios.runner import run_failover_experiment
from repro.sim.core import seconds
from repro.sttcp.events import EventKind

TOTAL = 30_000_000


@pytest.fixture
def demo1(experiment):
    return experiment("demo1")["sttcp"]


def test_every_byte_delivered_exactly_once(demo1):
    assert demo1.client.received == TOTAL
    assert demo1.client.corrupt_at is None   # in order, uncorrupted


def test_no_connection_reset_seen_by_client(demo1):
    assert demo1.client.reset_count == 0
    assert demo1.stream_intact


def test_transfer_was_actually_interrupted_by_the_fault(demo1):
    """Sanity: the crash happened mid-stream, not after completion."""
    received_at_fault = demo1.monitor.bytes_before(seconds(1))
    assert 0 < received_at_fault < TOTAL


def test_backup_took_over_and_powered_primary_down(demo1):
    backup_events = demo1.testbed.pair.backup.events
    assert backup_events.has(EventKind.PEER_CRASH_DETECTED)
    assert backup_events.has(EventKind.TAKEOVER)
    assert demo1.testbed.power_strip.was_powered_down("primary")


def test_glitch_is_subsecond_with_default_hb(demo1):
    assert demo1.glitch_ns is not None
    assert demo1.glitch_ns < seconds(1)


def test_failover_timeline_is_coherent(demo1):
    timeline = demo1.timeline
    assert timeline.fault_at <= timeline.detected_at <= timeline.takeover_at
    assert timeline.takeover_at <= timeline.client_resumed_at
    assert timeline.failover_time_ns < seconds(1)


def test_os_crash_is_equivalent_to_hw_crash():
    result = run_failover_experiment(
        lambda tb, sp, sb: OsCrash(tb.primary),
        total_bytes=TOTAL, fault_at_s=1.0,
        options=RunOptions(seed=4, run_until_s=40))
    assert result.stream_intact
    assert result.testbed.pair.backup.events.has(EventKind.PEER_CRASH_DETECTED)


def test_baseline_shows_the_contrast(experiment):
    """Without ST-TCP the same crash costs a reconnect and a multi-second
    outage — the paper's Demo-1 comparison."""
    runs = experiment("demo1")
    sttcp, baseline = runs["sttcp"], runs["baseline"]
    assert baseline.client.reconnect_count >= 1     # client-visible outage
    assert sttcp.client.reset_count == 0            # ST-TCP: none
    assert baseline.disruption_ns > sttcp.glitch_ns * 2
