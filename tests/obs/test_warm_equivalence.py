"""Warm-trial equivalence: a thawed testbed is the cold testbed.

The golden-trace suite (``test_golden_traces.py``) pins wire behaviour
against committed exports; this module pins the *warm path* against the
cold path: an experiment run on a restored
:meth:`~repro.scenarios.builder.Testbed.snapshot` must produce
byte-identical obs JSONL exports and identical oracle verdicts to the
same experiment on a freshly built testbed.  This is the property that
lets campaign workers reuse testbeds (:mod:`repro.campaign.warm`)
without the aggregate ever noticing.

Both directions of the cache are covered: same-seed restore (trial #2
of a grid point) and restore-with-reseed (later trials, where only the
seed differs from the snapshot's).
"""

from __future__ import annotations

import pathlib

from repro.faults.faults import HwCrash
from repro.scenarios.builder import Testbed as _Testbed, build_testbed
from repro.scenarios.options import RunOptions
from repro.scenarios.runner import run_failover_experiment

ARTIFACTS = ("frames.jsonl", "tcp_timeline.jsonl")
OPTS = RunOptions(run_until_s=3, obs_level="frames", check=True)


def _run(tmp_path, testbed=None, seed=7):
    result = run_failover_experiment(
        lambda tb, sp, sb: HwCrash(tb.primary),
        total_bytes=60_000, fault_at_s=0.5,
        options=OPTS.with_(seed=seed), testbed=testbed)
    paths = result.obs.write(tmp_path)
    return result, {a: pathlib.Path(paths[a]).read_bytes()
                    for a in ARTIFACTS}


def _snapshot(seed: int) -> bytes:
    return build_testbed(seed=seed).snapshot()


def test_restored_testbed_matches_cold_run_byte_for_byte(tmp_path):
    cold_result, cold = _run(tmp_path / "cold")
    warm_result, warm = _run(
        tmp_path / "warm", testbed=_Testbed.restore(_snapshot(7), seed=7))
    for artifact in ARTIFACTS:
        assert warm[artifact] == cold[artifact], (
            f"{artifact} diverged between cold build and restored snapshot")
    # check=True would have raised on any violation; the verdicts must
    # also agree as values (both clean).
    assert warm_result.oracle.violations == cold_result.oracle.violations == []
    assert warm_result.stream_intact and cold_result.stream_intact
    assert warm_result.timeline.failover_time_ns \
        == cold_result.timeline.failover_time_ns


def test_a_restored_world_appends_to_its_own_milestone_list():
    """``World.trace`` is a list and its bus holds the bound ``append``;
    both travel in one pickle, so the thawed bus writes to the thawed
    world's list — not to the snapshotted world's, and not to a copy."""
    cold = build_testbed(seed=7)
    warm = _Testbed.restore(cold.snapshot(), seed=7)
    assert warm.world.trace == [] and warm.world.trace is not cold.world.trace
    warm.primary.crash_hw()
    assert [e.probe for e in warm.world.trace] == ["fault.host-down"]
    assert cold.world.trace == []
    cold.primary.crash_hw()
    assert warm.world.trace == cold.world.trace


def test_reseeded_snapshot_matches_cold_build_of_that_seed(tmp_path):
    # The campaign's actual reuse pattern: the snapshot was built for one
    # trial's seed, later trials thaw it and reseed.  The thawed world
    # must be indistinguishable from a cold build with the new seed.
    cold_result, cold = _run(tmp_path / "cold", seed=11)
    warm_result, warm = _run(
        tmp_path / "warm", testbed=_Testbed.restore(_snapshot(7), seed=11),
        seed=11)
    for artifact in ARTIFACTS:
        assert warm[artifact] == cold[artifact], (
            f"{artifact} diverged after restore-with-reseed")
    assert warm_result.oracle.violations == cold_result.oracle.violations == []
    assert warm_result.monitor.total_bytes == cold_result.monitor.total_bytes
