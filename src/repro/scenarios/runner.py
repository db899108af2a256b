"""Canned experiment runners: a stream through a fault, and its
no-ST-TCP hot-standby counterfactual.

Each runner builds the Figure-2 testbed, wires the workload, injects the
scenario's fault, runs to quiescence, and returns a structured result the
experiment registry (:mod:`repro.experiments`), the tests and the
campaign engine share.  :class:`Watch` attaches what a run is watched
with, for runners and registry entries that build their own testbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim.core import NS_PER_S, seconds
from repro.apps.streaming import StreamClient, StreamServer
from repro.check.oracle import (CheckTopology, InvariantOracle,
                                InvariantViolationError)
from repro.faults.faults import Fault
from repro.metrics.monitor import ClientStreamMonitor
from repro.metrics.timeline import FailoverTimeline, build_timeline
from repro.obs.export import ObsSession
from repro.scenarios.baselines import ReconnectingStreamClient
from repro.scenarios.builder import Testbed, build_testbed
from repro.scenarios.options import RunOptions
from repro.sttcp.config import SttcpConfig

__all__ = ["FailoverResult", "run_failover_experiment",
           "run_baseline_failover", "BaselineResult", "Watch"]


class Watch:
    """The observers ``options`` ask for, attached to ``tb`` before a run:
    an :class:`~repro.obs.export.ObsSession` when ``options.obs_level``
    is set, an :class:`~repro.check.oracle.InvariantOracle` when
    ``options.check`` is.  The oracle gets wire-role hints only on an
    ST-TCP testbed: in a plain hot-standby world the standby is entitled
    to speak on the service port.  :meth:`close` settles both after the
    run; nothing is done per event."""

    __slots__ = ("obs", "oracle")

    def __init__(self, tb: Testbed, options: RunOptions):
        self.obs = (ObsSession(tb.world, level=options.obs_level)
                    if options.obs_level else None)
        self.oracle = None
        if options.check:
            hints = (CheckTopology.from_testbed(tb) if tb.pair is not None
                     else None)
            self.oracle = InvariantOracle(tb.world, hints).attach()

    def close(self, timeline: Optional[FailoverTimeline] = None,
              extra: Optional[dict] = None) -> None:
        """Finalize the session against ``timeline``; detach the oracle
        and raise :class:`~repro.check.oracle.InvariantViolationError` if
        it saw any breach."""
        if self.obs is not None:
            self.obs.finalize(timeline=timeline, extra=extra)
        if self.oracle is not None:
            self.oracle.detach()
            if self.oracle.violations:
                raise InvariantViolationError(self.oracle.violations)


@dataclass
class FailoverResult:
    """Everything a failover experiment produces."""

    testbed: Testbed
    client: StreamClient
    monitor: ClientStreamMonitor
    timeline: FailoverTimeline
    fault_description: str
    #: Attached when the experiment ran with ``obs_level`` set; call
    #: ``.write(out_dir)`` to export (see ``docs/observability.md``).
    obs: Optional[ObsSession] = None
    #: Attached when the experiment ran with ``check=True``; zero
    #: violations on a clean run (see ``docs/invariants.md``).
    oracle: Optional[InvariantOracle] = None

    @property
    def stream_intact(self) -> bool:
        """The headline ST-TCP property: every byte arrived exactly once,
        in order, uncorrupted, with no connection reset."""
        return (self.client.received == self.client.total_bytes
                and self.client.corrupt_at is None
                and self.client.reset_count == 0)

    @property
    def glitch_ns(self) -> Optional[int]:
        """Client-visible service interruption around the fault."""
        if self.timeline.fault_at is None:
            return None
        stall = self.monitor.largest_gap_after(self.timeline.fault_at)
        return stall[2] if stall else None


def run_failover_experiment(
        make_fault: Callable[[Testbed, StreamServer, StreamServer], Fault],
        total_bytes: int = 50_000_000,
        fault_at_s: float = 2.0,
        config: Optional[SttcpConfig] = None,
        request_chunk: int = 0,
        options: Optional[RunOptions] = None,
        testbed: Optional[Testbed] = None,
        **build_kwargs) -> FailoverResult:
    """The canonical Demo 1/2/4/5 shape: stream data, break something,
    verify the client never notices more than a glitch.

    ``testbed`` skips the build entirely and runs the experiment on the
    supplied (pristine, correctly-seeded) testbed — the warm-trial path
    (:mod:`repro.campaign.warm`) passes thawed snapshots here.  The caller
    owns the seed/config/cc match; ``build_kwargs`` are ignored.

    ``options`` (:class:`~repro.scenarios.options.RunOptions`) is the one
    shared knob surface for seed / run length / observability / checking /
    congestion control; there are no per-keyword shims any more.

    With ``options.obs_level`` set (one of
    :data:`repro.obs.export.OBS_LEVELS`) an
    :class:`~repro.obs.export.ObsSession` is attached for the whole run
    and returned on the result, already finalized against the failover
    timeline.

    ``options.check=True`` attaches the
    :class:`~repro.check.oracle.InvariantOracle` (with full wire-topology
    hints) for the whole run and raises
    :class:`~repro.check.oracle.InvariantViolationError` if any invariant
    in ``docs/invariants.md`` is breached."""
    opts = options if options is not None else RunOptions()
    if testbed is not None:
        tb = testbed
    else:
        tb = build_testbed(seed=opts.seed, config=config, cc=opts.cc,
                           **build_kwargs)
    watch = Watch(tb, opts)
    server_primary = StreamServer(tb.primary, "server-primary", port=80)
    server_backup = StreamServer(tb.backup, "server-backup", port=80)
    server_primary.start()
    server_backup.start()
    tb.pair.start()
    monitor = ClientStreamMonitor(tb.world)
    client = StreamClient(tb.client, "client", tb.service_ip, port=80,
                          total_bytes=total_bytes, monitor=monitor,
                          request_chunk=request_chunk)
    client.start()
    fault = make_fault(tb, server_primary, server_backup)
    fault_at = seconds(fault_at_s)
    tb.inject.at(fault_at, fault)
    tb.run_until(opts.run_until_s)
    timeline = build_timeline(fault_at, tb.pair.backup.events,
                              tb.pair.primary.events, monitor)
    watch.close(timeline)
    return FailoverResult(tb, client, monitor, timeline, fault.description,
                          obs=watch.obs, oracle=watch.oracle)


@dataclass
class BaselineResult:
    """Outcome of the no-ST-TCP hot-standby baseline."""

    testbed: Testbed
    client: ReconnectingStreamClient
    monitor: ClientStreamMonitor
    fault_at: int
    obs: Optional[ObsSession] = None
    oracle: Optional[InvariantOracle] = None
    #: Fault marker + monitor-derived resumption (no engine events in a
    #: baseline world); what the ObsSession was finalized against.
    timeline: Optional[FailoverTimeline] = None

    @property
    def disruption_ns(self) -> Optional[int]:
        """Client-visible outage around the fault (largest stall)."""
        stall = self.monitor.largest_gap_after(self.fault_at)
        return stall[2] if stall else None


def run_baseline_failover(total_bytes: int = 50_000_000,
                          fault_at_s: float = 2.0,
                          liveness_timeout_s: float = 2.0,
                          options: Optional[RunOptions] = None,
                          testbed: Optional[Testbed] = None,
                          **build_kwargs) -> BaselineResult:
    """Demo 1's counterfactual: hot standby, no ST-TCP.

    The standby runs the same server app on its own address; the client
    must detect the outage itself (application timeout), reconnect, and
    re-request.  The fault is a HW crash of the primary.

    ``options`` is the shared :class:`~repro.scenarios.options.RunOptions`
    surface (no per-keyword shims).

    ``options.check=True`` attaches the invariant oracle *without*
    topology hints — in a plain hot-standby world the standby is entitled
    to speak on the service port, so the ST-TCP wire-role invariants do
    not apply."""
    from repro.faults.faults import HwCrash

    opts = options if options is not None else RunOptions()
    if testbed is not None:
        tb = testbed
    else:
        tb = build_testbed(seed=opts.seed, mode="baseline", cc=opts.cc,
                           **build_kwargs)
    watch = Watch(tb, opts)
    StreamServer(tb.primary, "server-primary", port=80).start()
    StreamServer(tb.backup, "server-backup", port=80).start()
    monitor = ClientStreamMonitor(tb.world)
    client = ReconnectingStreamClient(
        tb.client, "client",
        addresses=[tb.addresses.primary_ip, tb.addresses.backup_ip],
        port=80, total_bytes=total_bytes,
        liveness_timeout_ns=round(liveness_timeout_s * NS_PER_S),
        monitor=monitor)
    client.start()
    fault_at = seconds(fault_at_s)
    tb.inject.at(fault_at, HwCrash(tb.primary))
    tb.run_until(opts.run_until_s)
    # The baseline has no ST-TCP engine events, but its export must still
    # carry the fault marker (and the stall-derived resumption) so ST-TCP
    # and baseline artifacts line up side by side.
    timeline = build_timeline(fault_at, None, None, monitor)
    watch.close(timeline)
    return BaselineResult(tb, client, monitor, fault_at, obs=watch.obs,
                          oracle=watch.oracle, timeline=timeline)
