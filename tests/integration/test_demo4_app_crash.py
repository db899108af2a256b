"""Demo 4: application crash failures, both paper scenarios, plus the four
FIN-disagreement cases of Sec. 4.2.2.
"""

import pytest

from repro.faults.faults import AppHang
from repro.scenarios.options import RunOptions
from repro.scenarios.runner import run_failover_experiment
from repro.sim.core import seconds
from repro.sttcp.config import SttcpConfig
from repro.sttcp.events import EventKind

CONFIG = SttcpConfig(max_delay_fin_ns=seconds(5))


@pytest.fixture
def hang_result(experiment):
    """Scenario 1: primary app crashes, socket NOT closed (no FIN)."""
    return experiment("demo4")["app_hang_primary"]


@pytest.fixture
def cleanup_result(experiment):
    """Scenario 2: OS cleans the app up and closes the socket (FIN)."""
    return experiment("demo4")["app_crash_fin_primary"]


class TestScenario1NoFin:
    def test_stream_intact(self, hang_result):
        assert hang_result.stream_intact

    def test_detected_as_application_failure(self, hang_result):
        events = hang_result.testbed.pair.backup.events
        detection = events.first(EventKind.APP_FAILURE_DETECTED)
        assert detection is not None
        assert detection.detail["location"] == "primary"

    def test_detection_via_lag_criteria(self, hang_result):
        events = hang_result.testbed.pair.backup.events
        symptom = events.first(EventKind.APP_FAILURE_DETECTED).detail["symptom"]
        assert "AppMaxLag" in symptom

    def test_takeover_and_stonith(self, hang_result):
        assert hang_result.testbed.pair.backup.takeover_at is not None
        assert hang_result.testbed.power_strip.was_powered_down("primary")

    def test_paper_claim_all_no_fin_failures_detected(self, hang_result):
        """Sec. 4.2.1: 'ST-TCP detects all application failures of the
        type ... where a FIN or RST segment is not generated' (given
        activity on the connection)."""
        timeline = hang_result.timeline
        assert timeline.detected_at is not None
        assert timeline.failover_time_ns < seconds(5)


class TestScenario2WithFin:
    def test_stream_intact(self, cleanup_result):
        assert cleanup_result.stream_intact

    def test_fin_was_held_not_sent(self, cleanup_result):
        """The OS-generated FIN was intercepted and held (MaxDelayFIN);
        the client never saw a premature close."""
        primary_events = cleanup_result.testbed.pair.primary.events
        assert primary_events.has(EventKind.FIN_HELD)
        assert cleanup_result.client.reset_count == 0

    def test_backup_detected_failure_within_max_delay_fin(self, cleanup_result):
        timeline = cleanup_result.timeline
        assert timeline.detected_at - timeline.fault_at \
            < CONFIG.max_delay_fin_ns

    def test_takeover_happened(self, cleanup_result):
        assert cleanup_result.testbed.pair.backup.takeover_at is not None


class TestBackupAppFailures:
    """Rows 2-3 of Table 1, backup side (the ``table1`` experiment's
    cells): primary survives, backup killed."""

    def test_backup_hang_primary_goes_non_ft(self, experiment):
        result = experiment("table1")["app_hang_backup"]
        assert result.stream_intact
        primary = result.testbed.pair.primary
        assert primary.mode == "non-fault-tolerant"
        assert primary.events.first(
            EventKind.APP_FAILURE_DETECTED).detail["location"] == "backup"
        assert result.testbed.power_strip.was_powered_down("backup")
        # The client never noticed anything at all.
        assert result.glitch_ns < seconds(1)

    def test_backup_cleanup_crash_fin_suppressed(self, experiment):
        """Sec. 4.2.2 case 2b: backup generates a FIN (crash), primary does
        not.  The backup's FIN is suppressed; the primary detects the
        failure and goes non-FT; the client sees nothing."""
        result = experiment("table1")["app_crash_fin_backup"]
        assert result.stream_intact
        backup_events = result.testbed.pair.backup.events
        assert backup_events.has(EventKind.FIN_SUPPRESSED)
        assert result.testbed.pair.primary.mode == "non-fault-tolerant"
        assert result.client.reset_count == 0


class TestNormalClosureNotDelayed:
    def test_no_fin_delay_during_normal_operation(self):
        """Paper: 'during normal operation - when neither the primary nor
        the backup has failed - the FIN is not delayed by MaxDelayFIN'."""
        result = run_failover_experiment(
            lambda tb, sp, sb: AppHang(sp),        # fault far in the future
            total_bytes=1_000_000, fault_at_s=50.0,
            options=RunOptions(seed=5, run_until_s=30), config=CONFIG)
        client = result.client
        assert client.received == 1_000_000
        # The whole exchange, including close, finished long before
        # MaxDelayFIN could have been involved.
        assert client.completed_at < seconds(5)
        primary_events = result.testbed.pair.primary.events
        released = primary_events.of_kind(EventKind.FIN_RELEASED)
        for event in released:
            assert "MaxDelayFIN" not in event.detail.get("reason", "")
