"""Demo 2: failover time as a function of heartbeat frequency.

Paper: failover time = failure-detection time (HB misses) + the residual
wait until the next (exponentially backed-off) client/backup
retransmission.  Both components must appear and the total must grow with
the HB period.
"""

import pytest

from repro.sim.core import millis, seconds
from repro.sttcp.config import SttcpConfig

PERIODS_MS = (200, 500, 1000)


@pytest.fixture
def sweep(experiment):
    runs = experiment("demo2")
    return {ms: runs[f"hb_{ms}ms"] for ms in PERIODS_MS}


def test_all_streams_intact(sweep):
    for period_ms, result in sweep.items():
        assert result.stream_intact, f"corrupted stream at {period_ms}ms"


def test_detection_latency_tracks_hb_period(sweep):
    for period_ms, result in sweep.items():
        detection = result.timeline.detection_latency_ns
        config = SttcpConfig(hb_period_ns=millis(period_ms))
        # Nominal: miss_threshold * period, plus quantization slack.
        assert detection >= config.detection_time_ns * 0.6
        assert detection <= config.detection_time_ns + millis(period_ms)


def test_failover_time_monotonic_in_hb_period(sweep):
    times = [sweep[p].timeline.failover_time_ns for p in PERIODS_MS]
    assert times[0] < times[1] < times[2]


def test_backoff_residue_present(sweep):
    """After takeover the stream restarts only at the next retransmission;
    the residue is nonzero and grows with later (more backed-off) takeover."""
    residues = [sweep[p].timeline.backoff_residue_ns for p in PERIODS_MS]
    assert all(r > 0 for r in residues)
    assert residues[2] > residues[0]


def test_fastest_setting_is_subsecond(sweep):
    assert sweep[200].timeline.failover_time_ns < seconds(1)


def test_slowest_setting_is_seconds_scale(sweep):
    assert seconds(2) < sweep[1000].timeline.failover_time_ns < seconds(8)
