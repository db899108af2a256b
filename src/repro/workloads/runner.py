"""Run a many-connection workload through a mid-run primary failover.

This is the workload-scale sibling of
:func:`repro.scenarios.runner.run_failover_experiment`: build an
N-client testbed, start the service on both replicas, offer the
:class:`~repro.workloads.engine.WorkloadSpec` load, crash the primary
mid-run, and account for every connection individually.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.apps.kvstore import KvServer
from repro.apps.streaming import StreamServer
from repro.check.oracle import (CheckTopology, InvariantOracle,
                                InvariantViolationError)
from repro.faults.faults import Fault, HwCrash
from repro.metrics.monitor import ClientStreamMonitor
from repro.metrics.timeline import FailoverTimeline, build_timeline
from repro.obs.export import ObsSession
from repro.scenarios.builder import Testbed, build_testbed
from repro.scenarios.options import RunOptions
from repro.sim import gcctl
from repro.sim.core import seconds
from repro.sttcp.config import SttcpConfig
from repro.workloads.engine import WorkloadEngine, WorkloadSpec

__all__ = ["WorkloadResult", "run_workload_failover"]


@dataclass
class WorkloadResult:
    """Everything a workload failover run produces."""

    testbed: Testbed
    engine: WorkloadEngine
    timeline: FailoverTimeline
    fault_description: str
    monitor: Optional[ClientStreamMonitor] = None
    obs: Optional[ObsSession] = None
    oracle: Optional[InvariantOracle] = None

    @property
    def records(self):
        """Per-connection records (see
        :class:`~repro.workloads.engine.ConnectionRecord`)."""
        return self.engine.records

    @property
    def all_intact(self) -> bool:
        """True when every connection completed with its stream intact."""
        return self.engine.all_intact

    def summary(self) -> dict:
        """The engine scorecard plus the failover instants."""
        out = self.engine.summary()
        out["fault"] = self.fault_description
        out["fault_at_ns"] = self.timeline.fault_at
        out["takeover_at_ns"] = self.timeline.takeover_at
        return out


def run_workload_failover(
        spec: Optional[WorkloadSpec] = None,
        make_fault: Optional[Callable[[Testbed], Fault]] = None,
        fault_at_s: float = 1.0,
        num_clients: int = 32,
        config: Optional[SttcpConfig] = None,
        options: Optional[RunOptions] = None,
        testbed: Optional[Testbed] = None,
        **build_kwargs) -> WorkloadResult:
    """Offer ``spec`` over ``num_clients`` hosts, fail the primary mid-run.

    ``make_fault`` (default: HW crash of the primary) receives the built
    testbed and returns the fault to inject at ``fault_at_s``.

    ``options`` is the one knob surface shared with the scenario runners
    (:class:`~repro.scenarios.options.RunOptions`); there are no
    per-keyword shims any more.
    """
    spec = spec or WorkloadSpec()
    opts = options if options is not None else RunOptions()
    if testbed is not None:
        # Warm-trial path: run on the supplied pristine testbed (see
        # repro.campaign.warm); the caller owns the seed/config/cc match.
        tb = testbed
    else:
        tb = build_testbed(seed=opts.seed, config=config, cc=opts.cc,
                           num_clients=num_clients, **build_kwargs)
    if opts.gc_freeze:
        gcctl.freeze_baseline()
    obs = ObsSession(tb.world, level=opts.obs_level) if opts.obs_level else None
    oracle = (InvariantOracle(tb.world, CheckTopology.from_testbed(tb))
              .attach() if opts.check else None)

    server_cls = StreamServer if spec.kind == "stream" else KvServer
    port = spec.port if spec.port is not None else (
        tb.pair.config.service_port if tb.pair is not None else 80)
    server_cls(tb.primary, "server-primary", port=port).start()
    server_cls(tb.backup, "server-backup", port=port).start()
    if tb.pair is not None:
        tb.pair.start()

    monitor = ClientStreamMonitor(tb.world) if spec.kind == "stream" else None
    engine = WorkloadEngine(tb, spec, monitor=monitor)
    engine.start()

    fault = make_fault(tb) if make_fault is not None else HwCrash(tb.primary)
    fault_at = seconds(fault_at_s)
    tb.inject.at(fault_at, fault)
    tb.run_until(opts.run_until_s)

    if tb.pair is not None:
        timeline = build_timeline(fault_at, tb.pair.backup.events,
                                  tb.pair.primary.events, monitor)
    else:
        timeline = FailoverTimeline(fault_at=fault_at)
    if obs is not None:
        obs.finalize(timeline=timeline, extra={
            "workload.connections": len(engine.records),
            "workload.clients": len(tb.clients),
            "workload.completed": engine.completed_count,
            "workload.intact": engine.intact_count,
        })
    if oracle is not None:
        oracle.detach()
        if oracle.violations:
            raise InvariantViolationError(oracle.violations)
    return WorkloadResult(tb, engine, timeline, fault.description,
                          monitor=monitor, obs=obs, oracle=oracle)
