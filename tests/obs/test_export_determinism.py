"""Exporter behaviour + the golden determinism guarantee.

The headline test runs the same seeded failover scenario twice and
requires every exported artifact to be byte-identical — the property the
whole observability layer is designed around (virtual time only, sorted
JSON keys, fire-order rows).
"""

import json

from repro.faults.faults import HwCrash
from repro.obs.export import OBS_LEVELS, ObsSession, describe_frame, \
    jsonl_line
from repro.scenarios.options import RunOptions
from repro.scenarios.runner import run_failover_experiment


def run_small(obs_level, seed=7):
    return run_failover_experiment(
        lambda tb, sp, sb: HwCrash(tb.primary),
        total_bytes=200_000, fault_at_s=0.5,
        options=RunOptions(seed=seed, run_until_s=5, obs_level=obs_level))


def test_same_seed_runs_export_byte_identical(tmp_path):
    paths_a = run_small("frames").obs.write(tmp_path / "a")
    paths_b = run_small("frames").obs.write(tmp_path / "b")
    assert sorted(paths_a) == sorted(paths_b)
    for name in paths_a:
        bytes_a = open(paths_a[name], "rb").read()
        bytes_b = open(paths_b[name], "rb").read()
        assert bytes_a == bytes_b, f"{name} differs between identical runs"


def test_frames_level_writes_all_artifacts(tmp_path):
    result = run_small("frames")
    paths = result.obs.write(tmp_path)
    assert set(paths) == {"counters.json", "summary.txt", "summary.json",
                          "tcp_timeline.jsonl", "frames.jsonl"}
    frames = [json.loads(line)
              for line in open(paths["frames.jsonl"], encoding="utf-8")]
    assert frames, "frame export is empty"
    tcp_frames = [f for f in frames if "tcp" in f]
    assert tcp_frames, "no decoded TCP frames in the export"
    row = tcp_frames[0]
    assert {"src", "dst", "t", "ip"} <= set(row)
    assert {"sport", "dport", "seq", "ack", "flags", "len"} \
        <= set(row["tcp"])


def test_counters_level_skips_bulky_exports(tmp_path):
    paths = run_small("counters").obs.write(tmp_path)
    assert "frames.jsonl" not in paths
    assert "tcp_timeline.jsonl" not in paths
    assert "counters.json" in paths


def test_timeline_rows_carry_cwnd_over_virtual_time(tmp_path):
    paths = run_small("timeline").obs.write(tmp_path)
    assert "frames.jsonl" not in paths  # frames only at the top level
    rows = [json.loads(line) for line in
            open(paths["tcp_timeline.jsonl"], encoding="utf-8")]
    tx = [r for r in rows if r["ev"] == "tx"]
    assert tx, "no tx rows in the TCP timeline"
    assert all({"t", "conn", "seq", "ack", "cwnd", "flags"} <= set(r)
               for r in tx)
    times = [r["t"] for r in rows]
    assert times == sorted(times), "timeline rows out of virtual-time order"


def test_snapshot_includes_failover_latency():
    """The acceptance gauge: a fault scenario's counter snapshot carries
    the detection/takeover instants folded in from the timeline."""
    result = run_small("counters")
    gauges = result.obs.metrics.snapshot()["gauges"]
    assert gauges["sttcp.fault_at_ns"] == 500_000_000
    assert gauges["sttcp.detected_at_ns"] > gauges["sttcp.fault_at_ns"]
    assert gauges["sttcp.detection_latency_ns"] > 0
    assert gauges["sttcp.takeover_at_ns"] == gauges["sttcp.detected_at_ns"]
    counters = result.obs.metrics.snapshot()["counters"]
    assert counters["sttcp.takeover"] == 1
    assert counters["fault.inject"] == 1


def test_summary_lists_notable_events():
    result = run_small("counters")
    summary = result.obs.summary()
    probes = [ev["probe"] for ev in summary["events"]]
    assert "fault.inject" in probes
    assert "sttcp.takeover" in probes
    assert "sttcp.peer-crash-detected" in probes


def test_detach_stops_accumulation():
    result = run_small("counters")
    obs = result.obs
    before = obs.metrics.counter("hb.sent_total").value
    obs.detach()
    obs.world.probes.fire("hb.send", "hb", "sent", seq=999)
    assert obs.metrics.counter("hb.sent_total").value == before


def test_invalid_level_rejected():
    import pytest
    with pytest.raises(ValueError):
        run_small("everything")
    assert OBS_LEVELS == ("counters", "timeline", "frames")


def test_jsonl_line_is_canonical():
    assert jsonl_line({"b": 1, "a": 2}) == '{"a":2,"b":1}\n'


def test_describe_frame_decodes_tcp():
    from repro.net.addresses import IPAddress, MacAddress
    from repro.net.frame import EthernetFrame
    from repro.net.packet import IPPacket
    from repro.tcp.segment import TcpFlags, TcpSegment

    seg = TcpSegment(src_port=1234, dst_port=80, seq=5, ack=9,
                     flags=TcpFlags.ACK, window=1000, payload=b"xy")
    pkt = IPPacket(src=IPAddress("10.0.0.1"), dst=IPAddress("10.0.0.2"),
                   protocol="tcp", payload=seg)
    frame = EthernetFrame(src=MacAddress("02:00:00:00:00:01"),
                          dst=MacAddress("02:00:00:00:00:02"),
                          ethertype="ipv4", payload=pkt)
    row = describe_frame(frame)
    assert row["ip"]["src"] == "10.0.0.1"
    assert row["tcp"] == {"sport": 1234, "dport": 80, "seq": 5, "ack": 9,
                          "flags": "ACK", "win": 1000, "len": 2}


def test_gc_report_matches_gcctl_and_leaves_exports_alone(tmp_path):
    from repro.sim import gcctl

    result = run_small("counters")
    before = result.obs.write(tmp_path / "before")
    report = result.obs.gc_report()
    assert set(report) == set(gcctl.stats())
    after = result.obs.write(tmp_path / "after")
    for name in ("counters.json", "summary.json"):
        assert (open(before[name], "rb").read()
                == open(after[name], "rb").read()), name
