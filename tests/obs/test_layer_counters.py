"""Counted once: the eight counters.json keys the layers already count.

``nic.tx``, ``nic.rx``, ``eth.forward`` and ``eth.flood`` are not probes,
and neither are ``tcp.segment_rx``, ``sttcp.suppress`` and their two
``*_total`` keys.  An :class:`~repro.obs.export.ObsSession` reads the sums
of the NICs', switches' and world's ``COUNTED`` attributes when it
attaches and reports what moved when it is finalized or detached.  These
tests hold that report to the counters over exactly the session's window,
read here from the testbed's hosts and switch rather than from
``World``'s device lists.
"""

from __future__ import annotations

from repro.faults.faults import HwCrash
from repro.net.nic import Nic
from repro.net.switch import Switch
from repro.obs.export import ObsSession
from repro.scenarios.builder import Testbed as _Testbed, build_testbed
from repro.scenarios.options import RunOptions
from repro.scenarios.runner import run_failover_experiment
from repro.sim.core import seconds
from repro.sim.world import World
from repro.workloads import WorkloadSpec, run_workload_failover

LAYER_KEYS = ("nic.tx", "nic.rx", "eth.forward", "eth.flood",
              "tcp.segment_rx", "tcp.segments_received_total",
              "sttcp.suppress", "sttcp.suppressed_segments_total")


def _device_counts(tb) -> dict:
    nics = [nic for host in (*tb.clients, tb.primary, tb.backup)
            for nic in host.nics]
    return {"nic.tx": sum(nic.frames_sent for nic in nics),
            "nic.rx": sum(nic.frames_received for nic in nics),
            "eth.forward": tb.switch.frames_forwarded,
            "eth.flood": tb.switch.frames_flooded,
            "tcp.segment_rx": tb.world.segments_received,
            "tcp.segments_received_total": tb.world.segments_received,
            "sttcp.suppress": tb.world.segments_suppressed,
            "sttcp.suppressed_segments_total": tb.world.segments_suppressed}


def _layer_counters(obs) -> dict:
    counters = obs.metrics.snapshot()["counters"]
    return {key: counters[key] for key in LAYER_KEYS if key in counters}


def test_the_declarations_name_real_counters():
    assert (set(Nic.COUNTED) | set(Switch.COUNTED) | set(World.COUNTED)
            == set(LAYER_KEYS))
    for cls in (Nic, Switch):
        for attr in cls.COUNTED.values():
            assert attr in cls.__slots__, (cls.__name__, attr)
    world = World()
    for attr in World.COUNTED.values():
        assert getattr(world, attr) == 0, attr


def test_the_four_keys_are_the_device_counters_over_the_window():
    tb = build_testbed(seed=3, num_clients=4)
    window: dict = {}

    def attach():
        window["before"] = _device_counts(tb)
        window["obs"] = ObsSession(tb.world, level="counters")

    def detach():
        window["after"] = _device_counts(tb)
        window["obs"].detach()

    tb.world.sim.schedule_at(seconds(0.2), attach)
    tb.world.sim.schedule_at(seconds(0.6), detach)
    spec = WorkloadSpec(kind="stream", connections=4, bytes_per_conn=200_000,
                        mean_interarrival_s=0.05)
    run_workload_failover(spec, num_clients=4, fault_at_s=0.4, testbed=tb,
                          options=RunOptions(seed=3, run_until_s=2))
    obs = window["obs"]
    moved = {key: window["after"][key] - window["before"][key]
             for key in LAYER_KEYS}
    assert all(moved.values()), moved
    assert _layer_counters(obs) == moved
    # Frozen at detach: the devices kept counting, the session did not.
    assert _device_counts(tb) != window["after"]
    obs.finalize()
    obs.detach()
    assert _layer_counters(obs) == moved


def test_finalize_is_idempotent_and_follows_the_run_until_detach():
    tb = build_testbed(seed=3)
    obs = ObsSession(tb.world, level="counters")
    result = run_failover_experiment(
        lambda tb, sp, sb: HwCrash(tb.primary), total_bytes=60_000,
        fault_at_s=0.5, options=RunOptions(seed=3, run_until_s=1),
        testbed=tb)
    obs.finalize()
    first = _layer_counters(obs)
    obs.finalize()
    assert _layer_counters(obs) == first == _device_counts(tb)
    result.testbed.run_until(3)
    obs.detach()
    assert _layer_counters(obs) == _device_counts(tb) != first


def test_a_world_whose_frames_never_move_lists_none_of_the_keys():
    tb = build_testbed(seed=1, num_clients=2)   # nothing started
    obs = ObsSession(tb.world, level="counters")
    tb.run_until(1)
    obs.finalize()
    obs.detach()
    counters = obs.metrics.snapshot()["counters"]
    assert counters == {"sim.run": 1}
    assert tb.world.nics and tb.world.switches == [tb.switch]


def test_a_restored_world_reports_what_a_cold_build_reports():
    options = RunOptions(seed=7, run_until_s=3, obs_level="counters")

    def run(testbed=None):
        return run_failover_experiment(
            lambda tb, sp, sb: HwCrash(tb.primary), total_bytes=60_000,
            fault_at_s=0.5, options=options, testbed=testbed)

    warm_tb = _Testbed.restore(build_testbed(seed=7).snapshot(), seed=7)
    assert warm_tb.primary.nics[0] in warm_tb.world.nics
    assert warm_tb.world.switches == [warm_tb.switch]
    cold, warm = run(), run(warm_tb)
    assert set(LAYER_KEYS) <= set(_layer_counters(cold.obs))
    assert warm.obs.metrics.snapshot() == cold.obs.metrics.snapshot()
    assert _layer_counters(warm.obs) == _device_counts(warm.testbed)
