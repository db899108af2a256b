"""Tests for the non-ST-TCP hot-standby baseline (Demo 1's comparison)."""

from repro.scenarios.builder import build_testbed
from repro.scenarios.options import RunOptions
from repro.sim.core import millis, seconds
from repro.scenarios.runner import run_baseline_failover


def test_baseline_client_recovers_by_reconnecting():
    result = run_baseline_failover(total_bytes=20_000_000, fault_at_s=1.0,
                                   liveness_timeout_s=2.0,
                                   options=RunOptions(run_until_s=40))
    client = result.client
    assert client.received == 20_000_000
    assert client.completed_at is not None
    assert client.reconnect_count >= 1
    assert client.corrupt_at is None


def test_baseline_disruption_includes_app_timeout():
    result = run_baseline_failover(total_bytes=20_000_000, fault_at_s=1.0,
                                   liveness_timeout_s=2.0,
                                   options=RunOptions(run_until_s=40))
    # The client cannot even start recovering before its liveness timeout:
    # the disruption is at least that long.
    assert result.disruption_ns >= 2_000_000_000


def test_baseline_without_failure_completes_without_reconnect():
    result = run_baseline_failover(total_bytes=5_000_000, fault_at_s=30.0,
                                   liveness_timeout_s=2.0,
                                   options=RunOptions(run_until_s=20))
    assert result.client.received == 5_000_000
    assert result.client.reconnect_count == 0


def test_baseline_client_fails_over_at_once_on_a_reset():
    """An RST from the primary needs no liveness timeout: the client
    moves to the standby and finishes the stream."""
    tb = build_testbed(seed=3, mode="baseline")

    def reset_primary():
        for conn in tb.primary.tcp.connections:
            conn.abort()
    tb.world.sim.schedule(millis(100), reset_primary)
    result = run_baseline_failover(total_bytes=5_000_000, fault_at_s=30.0,
                                   liveness_timeout_s=2.0,
                                   options=RunOptions(run_until_s=20),
                                   testbed=tb)
    client = result.client
    assert client.reset_count == 1 and client.reconnect_count == 1
    assert client.received == 5_000_000 and client.corrupt_at is None
    assert client.completed_at < seconds(2)
