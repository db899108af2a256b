"""The failover's story, in the two places it is told.

* ``World.trace`` — the milestone list every testbed keeps — holds what
  the deleted ``TraceLog`` held: ``milestone_pins.json`` was recorded
  from ``TraceLog`` contents at the last commit that had one, for the
  failover golden scenario and three Table-1 faults.
* ``summary.json``'s event list pairs every injected fault with the
  observation that proves what it did (the rule of "OS-level Failure
  Injection with SystemTap", PAPERS.md): inject → symptom → misses →
  verdict → STONITH → power-down → takeover.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.campaign.scenarios import FAULTS
from repro.faults.faults import HwCrash
from repro.scenarios.options import RunOptions
from repro.scenarios.runner import run_failover_experiment

PINS = json.loads(pathlib.Path(__file__).with_name(
    "milestone_pins.json").read_text(encoding="utf-8"))


def _table1(fault: str, **options):
    return run_failover_experiment(
        FAULTS[fault], total_bytes=1_000_000, fault_at_s=0.05,
        options=RunOptions(seed=7, **options))


def _golden_failover():
    return run_failover_experiment(
        lambda tb, sp, sb: HwCrash(tb.primary),
        total_bytes=60_000, fault_at_s=0.5,
        options=RunOptions(seed=7, run_until_s=3, obs_level="frames"))


@pytest.mark.parametrize("name", sorted(PINS))
def test_the_milestone_list_is_the_log_it_replaced(name):
    result = (_golden_failover() if name == "failover-hwcrash-seed7"
              else _table1(name))
    rows = [[e.time, e.category, e.source, e.message, e.fields]
            for e in result.testbed.world.trace]
    # Through JSON as the pin went: tuples (a connection key) read as lists.
    assert json.loads(json.dumps(rows)) == PINS[name]
    assert 10 <= len(rows) <= 13


# fault -> (symptom probe, the fields that name what the fault did)
SYMPTOMS = {
    "hw_crash_primary": ("fault.host-down", {"reason": "HW crash"}),
    "hw_crash_backup": ("fault.host-down", {"reason": "HW crash"}),
    "app_hang_primary": ("fault.app-crash", {"cleanup": False}),
    "app_hang_backup": ("fault.app-crash", {"cleanup": False}),
    "app_crash_fin_primary": ("fault.app-crash", {"cleanup": True}),
    "app_crash_fin_backup": ("fault.app-crash", {"cleanup": True}),
    "nic_failure_primary": ("fault.nic", {}),
    "nic_failure_backup": ("fault.nic", {}),
}


def test_the_symptom_table_covers_every_campaign_fault():
    assert set(SYMPTOMS) == set(FAULTS)


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_summary_pairs_each_injected_fault_with_its_symptom(fault):
    result = _table1(fault, obs_level="counters", run_until_s=20)
    events = result.obs.events
    victim = fault.rsplit("_", 1)[1]
    probe, fields = SYMPTOMS[fault]

    inject, symptom = events[0], events[1]
    assert inject["probe"] == "fault.inject" and inject["t"] == 50_000_000
    assert (symptom["probe"], symptom["fields"], symptom["t"]) == \
        (probe, fields, inject["t"])
    assert victim in symptom["source"]

    # Every STONITH is followed, in the same instant, by the power strip
    # being told whom to cut — and when the target was still up, by the
    # host going down once the strip acts.
    stonith = [e for e in events if e["probe"] == "sttcp.stonith"]
    requested = [e for e in events if e["probe"] == "power.down-requested"]
    assert len(requested) == len(stonith)
    for decided, request in zip(stonith, requested):
        assert events.index(request) == events.index(decided) + 1
        assert (request["t"], request["source"]) == \
            (decided["t"], decided["source"])
        assert request["fields"] == {"target": victim}
        assert decided["fields"]["target"] == victim
    downs = [e for e in events if e["probe"] == "fault.host-down"]
    if stonith:
        assert [e["source"] for e in downs] == [victim]
        if not fault.startswith("hw_crash"):
            assert downs[0]["fields"] == {"reason": "power off"}
            assert downs[0]["t"] > stonith[0]["t"]
    # The counters name the same story (one per fire).
    counters = result.obs.metrics.snapshot()["counters"]
    assert counters[probe] == 1
    assert counters.get("power.down-requested", 0) == len(stonith)
