"""Demo 5: NIC failures at the primary and at the backup (Table 1 row 4).

In both parts the IP-link heartbeat dies while the serial heartbeat
survives; the servers use HB progress counters and gateway pings to decide
*whose* NIC failed.
"""

import pytest

from repro.faults.faults import CableCut
from repro.scenarios.options import RunOptions
from repro.scenarios.runner import run_failover_experiment
from repro.sim.core import seconds
from repro.sttcp.events import EventKind

TOTAL = 30_000_000


@pytest.fixture
def primary_nic_result(experiment):
    return experiment("demo5")["nic_failure_primary"]


@pytest.fixture
def backup_nic_result(experiment):
    return experiment("demo5")["nic_failure_backup"]


class TestPrimaryNicFailure:
    def test_stream_intact(self, primary_nic_result):
        assert primary_nic_result.stream_intact

    def test_ip_link_down_serial_up_observed(self, primary_nic_result):
        events = primary_nic_result.testbed.pair.backup.events
        assert events.has(EventKind.HB_IP_LINK_DOWN)
        assert not events.has(EventKind.HB_SERIAL_LINK_DOWN)

    def test_classified_as_nic_failure(self, primary_nic_result):
        events = primary_nic_result.testbed.pair.backup.events
        assert events.has(EventKind.NIC_FAILURE_DETECTED)

    def test_gateway_ping_probing_started(self, primary_nic_result):
        events = primary_nic_result.testbed.pair.backup.events
        assert events.has(EventKind.PING_PROBING)

    def test_backup_took_over(self, primary_nic_result):
        assert primary_nic_result.testbed.pair.backup.takeover_at is not None
        assert primary_nic_result.testbed.power_strip.was_powered_down(
            "primary")


class TestBackupNicFailure:
    def test_stream_never_interrupted(self, backup_nic_result):
        """The primary keeps serving; the client must see NO glitch beyond
        ordinary variation."""
        assert backup_nic_result.stream_intact
        assert backup_nic_result.glitch_ns < seconds(1)

    def test_primary_detects_and_goes_non_ft(self, backup_nic_result):
        primary = backup_nic_result.testbed.pair.primary
        assert primary.events.has(EventKind.NIC_FAILURE_DETECTED)
        assert primary.mode == "non-fault-tolerant"

    def test_backup_was_powered_down(self, backup_nic_result):
        assert backup_nic_result.testbed.power_strip.was_powered_down(
            "backup")

    def test_backup_did_not_take_over(self, backup_nic_result):
        assert backup_nic_result.testbed.pair.backup.takeover_at is None


def test_cable_cut_equivalent_to_nic_failure():
    result = run_failover_experiment(
        lambda tb, sp, sb: CableCut(tb.primary_cable),
        total_bytes=TOTAL, fault_at_s=1.0,
        options=RunOptions(seed=6, run_until_s=60))
    assert result.stream_intact
    assert result.testbed.pair.backup.events.has(EventKind.NIC_FAILURE_DETECTED)


def test_idle_connection_resolved_by_gateway_ping():
    """Sec. 4.3: with no client data flowing (e.g. FTP-like), byte-lag
    detection cannot work; the gateway-ping exchange must decide."""
    from repro.scenarios.builder import build_testbed
    from repro.apps.streaming import StreamServer, StreamClient
    from repro.faults.faults import NicFailure as Nf

    tb = build_testbed(seed=8)
    StreamServer(tb.primary, "sp", port=80).start()
    StreamServer(tb.backup, "sb", port=80).start()
    tb.pair.start()
    # Small completed transfer: the connection then sits idle.
    client = StreamClient(tb.client, "c", tb.service_ip, port=80,
                          total_bytes=10_000, close_when_complete=False)
    client.start()
    tb.run_until(2)
    assert client.received == 10_000
    tb.inject.at(tb.world.sim.now + 1, Nf(tb.primary.nics[0]))
    tb.run_until(15)
    backup_events = tb.pair.backup.events
    assert backup_events.has(EventKind.NIC_FAILURE_DETECTED)
    symptom = backup_events.first(
        EventKind.NIC_FAILURE_DETECTED).detail["symptom"]
    assert "ping" in symptom.lower()
    assert tb.pair.backup.takeover_at is not None
