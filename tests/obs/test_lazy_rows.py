"""Lazy is not skipped.

An observed run captures rows when probes fire and decodes them when
somebody asks; the oracle evaluates every invariant but formats evidence
only on failure.  These tests hold the lazy halves to what the eager
code produced:

* ``lazy_pins.json`` — recorded at the last commit that decoded and
  formatted everything eagerly — pins the per-invariant
  ``InvariantOracle.checks`` counts and the ``counters.json`` /
  ``summary.json`` bytes of the three golden scenarios (the goldens
  themselves pin ``frames.jsonl`` / ``tcp_timeline.jsonl``);
* the directly rendered JSONL text equals ``jsonl_line`` of the decoded
  rows, for every row shape;
* a row read mid-run says the same thing after every pooled frame it
  was captured from has been recycled.

Refresh the pins (only after an *intended* behaviour change) with
``PYTHONPATH=src python tools/make_goldens.py``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.faults.faults import HwCrash
from repro.obs.export import ObsSession, jsonl_line
from repro.scenarios.options import RunOptions
from repro.scenarios.runner import (run_baseline_failover,
                                    run_failover_experiment)
from repro.sim.core import seconds
from repro.workloads import WorkloadSpec, run_workload_failover

from tests.conftest import stub_conn
from tests.obs.test_golden_traces import GOLDEN_ARTIFACTS, GOLDEN_DIR
from tests.sttcp.conftest import SttcpFixture

PINS_PATH = pathlib.Path(__file__).with_name("lazy_pins.json")
PINNED_ARTIFACTS = ("counters.json", "summary.json")


# The golden scenarios (tests/obs/test_golden_traces.py), with the oracle
# attached as well; observe() checks the wire exports against the goldens,
# so the two definitions cannot drift apart.

def _failover():
    return run_failover_experiment(
        lambda tb, sp, sb: HwCrash(tb.primary),
        total_bytes=60_000, fault_at_s=0.5,
        options=RunOptions(seed=7, run_until_s=3, obs_level="frames",
                           check=True))


def _workload():
    spec = WorkloadSpec(kind="stream", connections=6, bytes_per_conn=20_000,
                        mean_interarrival_s=0.01)
    return run_workload_failover(
        spec, num_clients=4, fault_at_s=0.5,
        options=RunOptions(seed=3, run_until_s=6, obs_level="frames",
                           check=True))


def _baseline():
    return run_baseline_failover(
        total_bytes=60_000, fault_at_s=0.5,
        options=RunOptions(seed=5, run_until_s=4, obs_level="frames",
                           check=True))


CHECKED_SCENARIOS = {
    "failover-hwcrash-seed7": _failover,
    "workload-6conn-seed3": _workload,
    "baseline-hotstandby-seed5": _baseline,
}


def observe(name: str, out_dir) -> dict:
    """Run one checked golden scenario; returns what the pins record
    (``tools/make_goldens.py`` writes exactly this to ``lazy_pins.json``)."""
    result = CHECKED_SCENARIOS[name]()
    paths = result.obs.write(out_dir)
    for artifact in GOLDEN_ARTIFACTS:
        assert (pathlib.Path(paths[artifact]).read_bytes()
                == (GOLDEN_DIR / name / artifact).read_bytes()), (
            f"{name}/{artifact}: the checked scenario is not the golden one")
    observed = {"checks": dict(result.oracle.checks)}
    for artifact in PINNED_ARTIFACTS:
        observed[artifact] = pathlib.Path(paths[artifact]).read_text(
            encoding="utf-8")
    return observed


@pytest.mark.parametrize("name", sorted(CHECKED_SCENARIOS))
def test_checks_counters_and_summary_match_the_eager_recording(name,
                                                               tmp_path):
    pinned = json.loads(PINS_PATH.read_text(encoding="utf-8"))[name]
    observed = observe(name, tmp_path)
    assert observed["checks"] == pinned["checks"]
    assert sum(observed["checks"].values()) > 500, "the oracle looked away"
    for artifact in PINNED_ARTIFACTS:
        assert observed[artifact] == pinned[artifact], artifact


# ----------------------------------------------------- decode == direct text

def _rendered_equals_decoded(obs: ObsSession, out_dir) -> None:
    paths = obs.write(out_dir)
    for artifact, rows in (("frames.jsonl", obs.frames),
                           ("tcp_timeline.jsonl", obs.tcp_rows)):
        written = pathlib.Path(paths[artifact]).read_text(encoding="utf-8")
        assert written == "".join(jsonl_line(row) for row in rows), artifact


def test_written_text_is_jsonl_line_of_the_decoded_rows(tmp_path):
    # Mid-stream crash: the backup's go-back-N adds retransmission rows.
    obs = run_failover_experiment(
        lambda tb, sp, sb: HwCrash(tb.primary),
        total_bytes=200_000, fault_at_s=0.01,
        options=RunOptions(seed=7, run_until_s=5, obs_level="frames")).obs
    _rendered_equals_decoded(obs, tmp_path)
    shapes = {tuple(sorted(row)) for row in obs.frames}
    assert len(shapes) > 2, "expected TCP, UDP heartbeat and ARP frame rows"
    assert {row["ev"] for row in obs.tcp_rows} == {"tx", "rtx"}


def test_a_congestion_controller_with_extra_fields_is_decoded_on_the_spot(
        tmp_path):
    result = run_failover_experiment(
        lambda tb, sp, sb: HwCrash(tb.primary),
        total_bytes=60_000, fault_at_s=0.5,
        options=RunOptions(seed=7, run_until_s=3, obs_level="frames",
                           cc="cubic"))
    assert any("cc" in row for row in result.obs.tcp_rows)
    _rendered_equals_decoded(result.obs, tmp_path)


def test_odd_field_sets_render_like_any_row(world, tmp_path):
    """No ingress, no send offset, a name that needs escaping, and the
    extra ``cc`` key of a non-default congestion controller."""
    from repro.net.addresses import IPAddress, MacAddress
    from repro.net.frame import EthernetFrame
    from repro.net.packet import IPPacket
    from repro.tcp.segment import TcpFlags, TcpSegment
    from repro.tcp.seq import SEQ_MASK

    segment = TcpSegment(80, 49152, seq=1, ack=2, flags=TcpFlags.ACK,
                         window=65535, payload=b"xyz")
    packet = IPPacket(IPAddress("10.0.0.100"), IPAddress("10.0.0.1"),
                      'tcp"\u00e9', segment)
    frame = EthernetFrame(MacAddress("02:00:00:00:00:01"),
                          MacAddress("02:00:00:00:00:02"), "ipv4", packet)
    obs = ObsSession(world, level="frames")
    world.probes.fire("eth.frame", "switch", frame=frame)
    world.probes.fire("eth.frame", "switch", frame=frame, ingress=3)
    fields = dict(seq=1, ack=2, flags=TcpFlags.SYN, len=0, win=65535)
    # No ISN yet, then one that puts seq 1 at stream offset 7.
    world.probes.fire("tcp.segment_tx", 'c"\\\u00e9', conn=stub_conn(),
                      **fields)
    world.probes.fire("tcp.segment_tx", "c",
                      conn=stub_conn(iss=SEQ_MASK - 6), **fields)
    world.probes.fire("tcp.segment_tx", "c", conn=stub_conn(cc="cubic"),
                      **{**fields, "len": 100})
    assert [row["ingress"] for row in obs.frames] == [None, 3]
    rows = obs.tcp_rows
    assert [row["off"] for row in rows] == [None, 7, None]
    assert [row.get("cc", "absent") for row in rows] == \
        ["absent", "absent", "cubic"]
    assert {row["flags"] for row in rows} == {"SYN"}
    _rendered_equals_decoded(obs, tmp_path)


def test_write_twice_gives_identical_bytes(tmp_path):
    obs = _failover().obs
    first = obs.write(tmp_path / "a")
    second = obs.write(tmp_path / "b")
    assert sorted(first) == sorted(second)
    for name in first:
        assert (pathlib.Path(first[name]).read_bytes()
                == pathlib.Path(second[name]).read_bytes()), name


# ------------------------------------------- captures outlive pooled frames

def test_rows_read_mid_run_survive_the_recycling_of_their_frames():
    from repro.net.pool import FRAME_POOL_MAX

    fx = SttcpFixture()
    obs = ObsSession(fx.tb.world, level="frames")
    fx.start_client(total_bytes=2_000_000)
    fx.run(0.01)
    early_frames, early_tcp = obs.frames, obs.tcp_rows
    assert len(early_frames) > 20 and len(early_tcp) > 10
    fx.tb.inject.at(fx.tb.world.now + seconds(0.01), HwCrash(fx.tb.primary))
    fx.run(5)
    assert fx.client.received == 2_000_000
    late_frames, late_tcp = obs.frames, obs.tcp_rows
    # More frames have crossed since than the pool holds: every frame an
    # early row was captured from has carried other traffic by now.
    assert len(late_frames) - len(early_frames) > 4 * FRAME_POOL_MAX
    assert late_frames[:len(early_frames)] == early_frames
    assert late_tcp[:len(early_tcp)] == early_tcp
