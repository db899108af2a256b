"""The :class:`World` — shared root object for a simulated scenario.

A ``World`` bundles the kernel services every component needs:

* the :class:`~repro.sim.core.Simulator` event loop,
* the :class:`~repro.obs.bus.ProbeBus` (observability probe points),
* ``trace``, the milestone list: a plain ``list`` of
  :class:`~repro.obs.bus.ProbeEvent` the world subscribes to its own bus,
* the :class:`~repro.sim.rng.RngRegistry`,
* ``nics`` and ``switches``, every device built on the world,
* two run-long segment totals (see :attr:`World.COUNTED`).

Passing a single ``world`` around keeps constructor signatures short and
guarantees all components share one clock and one seed.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.bus import ProbeBus
from repro.obs.registry import PROBES
from repro.sim import gcctl
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry

__all__ = ["World"]


class World:
    """Root container for one simulation run."""

    #: counters.json key -> the run-long total it reports, like a NIC's and
    #: a switch's ``COUNTED``.  Both events happen per connection, and a
    #: connection does not live as long as the run, so the world keeps
    #: the totals: every ``TcpConnection.segment_arrived`` call, and every
    #: segment a backup replica held behind its output gate
    #: (``ManagedBackupConn.hold``).
    COUNTED = {"tcp.segment_rx": "segments_received",
               "tcp.segments_received_total": "segments_received",
               "sttcp.suppress": "segments_suppressed",
               "sttcp.suppressed_segments_total": "segments_suppressed"}

    def __init__(self, seed: int = 0,
                 trace_categories: Optional[set[str]] = None):
        self.sim = Simulator()
        # sim.clock is a plain bound method: it pickles (world snapshots)
        # and skips the extra lambda frame on every probe timestamp.
        self.probes = ProbeBus(self.sim.clock)
        # Every fire of a ``traced`` probe in a kept category, in fire
        # order (``None`` keeps every category).  The bound ``append``
        # pickles with the list, so a restored world appends to its own.
        self.trace: list = []
        self.probes.attach(
            (name, self.trace.append) for name, spec in PROBES.items()
            if spec.traced and (trace_categories is None
                                or spec.category in trace_categories))
        self.rng = RngRegistry(seed)
        # Every NIC and switch built on this world, in construction order
        # (each appends itself); their ``COUNTED`` attributes are what an
        # ObsSession reports as layer counters.
        self.nics: list = []
        self.switches: list = []
        self.segments_received = 0
        self.segments_suppressed = 0
        # Bumped whenever NIC address filters change (multicast join/leave,
        # promiscuous toggles); switches use it to invalidate cached flood
        # target lists.  See Switch._forward.
        self.net_epoch = 0
        # Bumped whenever routing inputs change: interface addresses, the
        # default gateway, NIC fail/repair, ARP learns.  IP stacks use it
        # to invalidate cached send plans (IpStack.send).  Kept separate
        # from net_epoch so steady-state ARP learns (one per joining
        # client at fleet scale) do not also flush every switch's flood
        # target lists.
        self.route_epoch = 0

    @property
    def now(self) -> int:
        """Current virtual time in nanoseconds."""
        return self.sim.now

    @property
    def now_s(self) -> float:
        """Current virtual time in seconds."""
        return self.sim.now_s

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Delegate to :meth:`Simulator.run`, marking the episode on the
        ``sim.run`` probe for observers.  The cyclic GC is quiesced for
        the duration of the drive (see :mod:`repro.sim.gcctl`)."""
        with gcctl.quiesce():
            processed = self.sim.run(until=until, max_events=max_events)
        self.probes.fire("sim.run", "world", events=processed)
        return processed

    def run_for(self, duration: int) -> int:
        """Delegate to :meth:`Simulator.run_for` (GC quiesced)."""
        with gcctl.quiesce():
            return self.sim.run_for(duration)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<World t={self.now_s:.6f}s seed={self.rng.seed}>"
