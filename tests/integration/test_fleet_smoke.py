"""Fleet-scale smoke: a 1024-client testbed survives a primary crash
with the invariant oracle attached and every stream intact.

This is the scaling counterpart of the 32-client workload tests: the
point is not throughput (benchmarks/bench_core_throughput.py --scaling
measures that) but that nothing about the fleet configuration — the
event queue under heavy timer load, batched flood delivery, switch
egress filtering, 1024 live TCP stacks — breaks protocol correctness.
The oracle checks all 15 invariants during the run and the test fails
on any violation (InvariantViolationError propagates).
"""

from repro.scenarios.options import RunOptions
from repro.workloads import WorkloadSpec, run_workload_failover


def test_1024_client_failover_is_oracle_clean():
    spec = WorkloadSpec(kind="stream", connections=96,
                        bytes_per_conn=4_000, mean_interarrival_s=0.004)
    result = run_workload_failover(
        spec, num_clients=1024, fault_at_s=0.5,
        options=RunOptions(seed=11, run_until_s=8.0, check=True),
        egress_filtering=True)
    assert result.all_intact
    assert result.engine.completed_count == 96
    assert result.oracle is not None and result.oracle.violations == []
    # "Clean" must mean the oracle actually watched the fleet traffic.
    assert result.oracle.checks["wire.seq-continuity"] > 100
    sim = result.testbed.world.sim
    assert sim.events_processed > 10_000


def test_1024_client_testbed_builds_compactly():
    """build_testbed(num_clients=1024) must stay cheap enough to be a
    unit-test citizen: every per-frame object on the hot path is slotted
    and the builder does no quadratic work."""
    from repro.scenarios.builder import build_testbed

    tb = build_testbed(num_clients=1024, egress_filtering=True)
    assert len(tb.clients) == 1024
    # One switch port per client NIC plus the infrastructure ports.
    assert len(tb.switch.ports) >= 1026
