"""The CC-identification scenario: feature extraction, the decision
tree, and an end-to-end round trip per algorithm."""

import pytest

from repro.scenarios.ccident import (CcIdentResult, classify_features,
                                     extract_features, run_cc_ident)
from repro.scenarios.options import RunOptions

MSS = 1460


def tx(cwnd, ssthresh=1 << 30, flight=0, off=0):
    return ("tx", {"mss": MSS, "cwnd": cwnd, "ssthresh": ssthresh,
                   "flight": flight, "off": off})


def head_rtx(off=0):
    return ("rtx", {"kind": "head", "off": off})


# ------------------------------------------------------ feature extraction

def test_extract_features_empty_stream():
    features = extract_features([])
    assert features["episodes"] == 0
    assert classify_features(features) == "reno"


def test_extract_features_pairs_rtx_with_next_tx():
    events = [
        tx(cwnd=20 * MSS, flight=18 * MSS, off=0),
        head_rtx(off=0),
        tx(cwnd=9 * MSS + 3 * MSS, ssthresh=9 * MSS, flight=18 * MSS),
        tx(cwnd=9 * MSS, ssthresh=9 * MSS, flight=4 * MSS),
    ]
    features = extract_features(events)
    assert features["episodes"] == 1
    assert features["rto_count"] == 0
    assert features["collapse_fraction"] == 0.0


def test_rto_retransmissions_are_not_episodes():
    events = [
        tx(cwnd=10 * MSS, flight=8 * MSS),
        ("rtx", {"kind": "rto", "off": 0}),
        tx(cwnd=MSS, ssthresh=4 * MSS, flight=8 * MSS),
    ]
    features = extract_features(events)
    assert features["episodes"] == 0
    assert features["rto_count"] == 1


# ----------------------------------------------------------- decision tree

def test_classifier_reads_collapse_as_tahoe():
    events = [
        tx(cwnd=20 * MSS, flight=18 * MSS),
        head_rtx(),
        tx(cwnd=MSS, ssthresh=9 * MSS, flight=18 * MSS),
    ]
    assert classify_features(extract_features(events)) == "tahoe"


def test_classifier_reads_off_entry_window_as_newreno():
    # First retransmission is a recovery entry (pinned at ssthresh+3*MSS),
    # the second fires from the partial-ack path after deflation.
    events = [
        tx(cwnd=20 * MSS, flight=18 * MSS),
        head_rtx(),
        tx(cwnd=9 * MSS + 3 * MSS, ssthresh=9 * MSS, flight=18 * MSS),
        head_rtx(),
        tx(cwnd=10 * MSS, ssthresh=9 * MSS, flight=12 * MSS),
    ]
    assert classify_features(extract_features(events)) == "newreno"


def test_classifier_votes_deflation_ratio_cubic_vs_reno():
    # ssthresh == 0.7 * pre-loss cwnd -> CUBIC's multiplicative decrease.
    cubic = [
        tx(cwnd=20 * MSS, flight=18 * MSS),
        head_rtx(),
        tx(cwnd=14 * MSS + 3 * MSS, ssthresh=14 * MSS, flight=18 * MSS),
    ]
    assert classify_features(extract_features(cubic)) == "cubic"
    # ssthresh == flight // 2 -> the Reno family.
    reno = [
        tx(cwnd=20 * MSS, flight=18 * MSS),
        head_rtx(),
        tx(cwnd=9 * MSS + 3 * MSS, ssthresh=9 * MSS, flight=18 * MSS),
    ]
    assert classify_features(extract_features(reno)) == "reno"


def test_floor_clamped_episodes_carry_no_vote():
    events = [
        tx(cwnd=3 * MSS, flight=2 * MSS),
        head_rtx(),
        tx(cwnd=5 * MSS, ssthresh=2 * MSS, flight=2 * MSS),
    ]
    features = extract_features(events)
    assert features["cubic_votes"] == features["reno_votes"] == 0


# ------------------------------------------------------------- end to end

@pytest.mark.parametrize("cc", ["tahoe", "newreno"])
def test_round_trip_identifies_algorithm(cc):
    """A small lossy run must be classified back correctly.  The full
    four-algorithm, multi-seed accuracy matrix is the ``cc_ident``
    experiment (benchmarks/results/cc_ident.txt)."""
    result = run_cc_ident(RunOptions(seed=3, cc=cc, run_until_s=30.0),
                          total_bytes=1_000_000)
    assert isinstance(result, CcIdentResult)
    assert result.bytes_received == 1_000_000
    assert result.guess == cc
    assert result.correct


def test_equal_seed_equal_features():
    options = RunOptions(seed=4, cc="reno", run_until_s=20.0)
    a = run_cc_ident(options, total_bytes=500_000)
    b = run_cc_ident(options, total_bytes=500_000)
    assert a.features == b.features
    assert a.guess == b.guess


def test_options_attach_the_observers(tmp_path):
    """``RunOptions`` reach the run as for every other runner: an
    observability session to export, and the invariant oracle."""
    result = run_cc_ident(RunOptions(seed=4, cc="cubic", run_until_s=20.0,
                                     obs_level="counters", check=True),
                          total_bytes=500_000)
    assert result.actual == "cubic"
    assert "counters.json" in result.obs.write(tmp_path)
