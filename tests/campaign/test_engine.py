"""The multiprocess engine: determinism, fault tolerance, no deadlocks.

The hostile scenarios (hangs, worker crashes) register throwaway
scenarios; workers are forked, so registrations made before
``run_campaign`` is visible to them.  Faulty-worker tests use ``fork``
explicitly — they are Linux/CI-shaped by design.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.campaign import (CampaignSpec, TrialSpec, derive_seed,
                            execute_trial, register_scenario, run_campaign)
from repro.campaign.engine import _percentile_summary
from repro.scenarios.options import RunOptions

# One small-but-real failover campaign shared by the determinism tests:
# the stream spans the fault (2 MB at 100 Mbps ≈ 160 ms, fault at 100 ms)
# so failover time / goodput are exercised, yet a trial stays ~0.3 s.
SMALL = CampaignSpec(
    scenario="failover",
    base={"total_bytes": 2_000_000, "fault_at_s": 0.1},
    grid={"hb_period_ms": [100, 200]},
    trials=2, seed=7,
    options=RunOptions(run_until_s=6.0),
    timeout_s=120.0)


def test_aggregated_json_is_byte_identical_across_jobs():
    # The tentpole property: worker count and scheduling order are
    # invisible in the canonical aggregate.
    serial = run_campaign(SMALL, jobs=1)
    fanned = run_campaign(SMALL, jobs=4)
    assert serial.to_json() == fanned.to_json()
    assert serial.to_jsonl() == fanned.to_jsonl()
    assert [r["status"] for r in serial.records] == ["ok"] * 4
    assert all(r["stream_intact"] for r in serial.records)


def test_trial_record_identical_in_process_and_in_worker():
    # Seed derivation + record construction must not depend on which
    # process runs the trial.
    trial = TrialSpec(scenario="failover",
                      params={"total_bytes": 2_000_000, "fault_at_s": 0.1,
                              "hb_period_ms": 100},
                      options=RunOptions(run_until_s=6.0),
                      seed=derive_seed(7, 0), index=0)
    in_process = execute_trial(trial)

    spec = CampaignSpec(scenario="failover",
                        base=dict(trial.params), trials=1, seed=7,
                        options=RunOptions(run_until_s=6.0),
                        timeout_s=120.0)
    in_worker = run_campaign(spec, jobs=2).records[0]
    assert in_process == in_worker


def test_summary_percentiles_and_grid_breakdown():
    result = run_campaign(SMALL, jobs=1)
    summary = result.summary()
    assert summary["trials"] == 4 and summary["ok"] == 4
    assert summary["intact"] == 4
    assert summary["failover_time_ns"]["n"] == 4
    assert summary["goodput_bytes_per_s"]["p50"] > 0
    points = summary["by_point"]
    assert [p["point"] for p in points] == [{"hb_period_ms": 100},
                                            {"hb_period_ms": 200}]
    assert all(p["trials"] == 2 and p["ok"] == 2 for p in points)


def test_percentile_summary_is_nearest_rank():
    values = list(range(1, 101))
    summary = _percentile_summary(values)
    assert summary == {"n": 100, "min": 1, "max": 100, "mean": 50.5,
                       "p50": 51, "p90": 90, "p99": 99}
    assert _percentile_summary([None, None]) is None
    assert _percentile_summary([5, None]) == {
        "n": 1, "min": 5, "max": 5, "mean": 5.0,
        "p50": 5, "p90": 5, "p99": 5}


# ------------------------------------------------------- hostile scenarios

def _hostile(trial: TrialSpec) -> dict:
    """Scenario that hangs, dies, or succeeds on command.

    ``die_once_flag`` names a file: on the first attempt (flag absent)
    the worker creates it and dies without returning — the retry then
    succeeds, proving a killed trial is re-dispatched.
    """
    mode = trial.params.get("mode", "ok")
    if mode == "hang":
        time.sleep(60.0)
    elif mode == "crash":
        os._exit(13)
    elif mode == "die_once":
        flag = trial.params["die_once_flag"]
        if not os.path.exists(flag):
            with open(flag, "w", encoding="ascii"):
                pass
            os._exit(13)
    return {"index": trial.index, "scenario": trial.scenario,
            "seed": trial.seed, "params": dict(trial.params),
            "status": "ok", "error": None, "oracle": "off",
            "value": trial.index * 10}


register_scenario("test_hostile", _hostile)

fork_only = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="needs a fork start method")


@fork_only
def test_hung_trial_is_killed_and_campaign_continues():
    spec = CampaignSpec(
        scenario="test_hostile",
        grid={"mode": ["ok", "hang", "ok"]},
        trials=1, seed=1, timeout_s=1.0, retries=0)
    start = time.monotonic()
    result = run_campaign(spec, jobs=2, mp_context="fork")
    assert time.monotonic() - start < 30.0     # never deadlocks the pool
    by_mode = {r["params"]["mode"]: r for r in result.records}
    assert by_mode["ok"]["status"] == "ok"
    assert by_mode["hang"]["status"] == "failed"
    assert "timed out" in by_mode["hang"]["error"]
    assert any("timed out" in line for line in result.dispatch_log)


@fork_only
def test_crashed_worker_is_respawned_and_trial_marked_failed():
    spec = CampaignSpec(
        scenario="test_hostile",
        grid={"mode": ["crash", "ok", "ok", "ok"]},
        trials=1, seed=1, timeout_s=30.0, retries=1)
    result = run_campaign(spec, jobs=2, mp_context="fork")
    by_mode = {}
    for record in result.records:
        by_mode.setdefault(record["params"]["mode"], []).append(record)
    assert len(by_mode["crash"]) == 1
    assert by_mode["crash"][0]["status"] == "failed"
    assert "crashed" in by_mode["crash"][0]["error"]
    assert all(r["status"] == "ok" for r in by_mode["ok"])


@fork_only
def test_crashed_trial_is_retried_and_can_succeed(tmp_path):
    flag = str(tmp_path / "died-once")
    spec = CampaignSpec(
        scenario="test_hostile",
        base={"die_once_flag": flag},
        grid={"mode": ["die_once", "ok"]},
        trials=1, seed=1, timeout_s=30.0, retries=2)
    result = run_campaign(spec, jobs=2, mp_context="fork")
    assert os.path.exists(flag)                # first attempt really died
    assert [r["status"] for r in result.records] == ["ok", "ok"]
    assert any("retrying" in line for line in result.dispatch_log)


@fork_only
def test_crash_storm_never_wedges_the_pool(tmp_path):
    # Every worker reports on a pipe of its own, so one dying just after
    # a report cannot leave a lock taken that the others need to report.
    modes = ["die_once", "crash", "ok"] * 4
    spec = CampaignSpec(
        scenario="test_hostile",
        base={"die_once_flag": str(tmp_path / "died-once")},
        grid={"mode": modes},
        trials=1, seed=1, timeout_s=30.0, retries=1)
    start = time.monotonic()
    result = run_campaign(spec, jobs=2, mp_context="fork")
    assert time.monotonic() - start < 30.0
    statuses = [r["status"] for r in result.records]
    assert statuses == [{"crash": "failed"}.get(m, "ok") for m in modes]


def test_failing_scenario_yields_failed_record_not_exception():
    spec = CampaignSpec(scenario="failover",
                        base={"fault": "no_such_fault", "total_bytes": 1000},
                        trials=1, seed=1)
    result = run_campaign(spec, jobs=1)
    record = result.records[0]
    assert record["status"] == "failed"
    assert "unknown fault" in record["error"]
    assert result.failed == [record]


def test_unknown_scenario_fails_per_trial():
    result = run_campaign(
        CampaignSpec(scenario="nope", trials=1, seed=1), jobs=1)
    assert result.records[0]["status"] == "failed"
    assert "unknown scenario" in result.records[0]["error"]


@pytest.mark.parametrize("scenario, base, check", [
    ("baseline", {"total_bytes": 2_000_000, "fault_at_s": 0.1,
                  "liveness_timeout_s": 0.5},
     lambda r: r["bytes_received"] == 2_000_000 and r["reconnects"] == 1),
    ("workload", {"connections": 4, "bytes_per_conn": 50_000,
                  "num_clients": 2, "fault_at_s": 0.1},
     lambda r: r["stream_intact"] and r["intact"] == 4),
    ("cc_ident", {"cc": "reno", "total_bytes": 1_000_000},
     lambda r: r["bytes_received"] == 1_000_000),
])
def test_each_registered_scenario_runs_a_trial(scenario, base, check):
    """The scenarios besides ``failover`` run in process too: one small
    trial of each comes back ``ok`` with its own record fields."""
    result = run_campaign(CampaignSpec(
        scenario=scenario, base=base, trials=1, seed=5,
        options=RunOptions(run_until_s=6.0), timeout_s=120.0), jobs=1)
    (record,) = result.records
    assert record["status"] == "ok", record["error"]
    assert check(record), record
