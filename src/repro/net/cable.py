"""Point-to-point Ethernet cables.

A :class:`Cable` joins two :class:`CableEndpoint` implementations (a NIC
and a switch port, or two NICs back-to-back for a crossover link).  It
models, per direction:

* serialization delay (frame bits / bandwidth) with FIFO queueing — a
  second frame offered while the first is still on the wire waits;
* propagation delay;
* independent random loss (for the transient-network-failure scenarios of
  Table 1, row 5);
* a *cut* state (cable failure, Table 1 row 4);
* an *impairment* hook for everything finer: drop, duplicate or hold back
  individual frames (:attr:`Cable.impair`).

Loss, cut and impairment are set through hooks that bump
``World.net_epoch``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Protocol, runtime_checkable

from repro.net.frame import EthernetFrame
from repro.sim.world import World

__all__ = ["Cable", "CableEndpoint"]


@runtime_checkable
class CableEndpoint(Protocol):
    """Anything a cable can plug into."""

    name: str

    def receive_frame(self, frame: EthernetFrame) -> None:
        """Deliver a frame arriving from the cable."""


class Cable:
    """A full-duplex link with bandwidth, latency, loss and cut semantics."""

    # The flood sink loop touches several attributes per cable per frame,
    # and slot loads skip the dict probe.
    __slots__ = ("_world", "_sim", "_ends", "bandwidth_bps",
                 "propagation_delay_ns", "_loss_rate", "name", "_rng",
                 "_cut", "_impair", "_tx_free_at", "frames_delivered",
                 "frames_lost", "bytes_delivered", "_deliver_label",
                 "__weakref__")

    def __init__(self, world: World, a: CableEndpoint, b: CableEndpoint,
                 bandwidth_bps: int = 100_000_000,
                 propagation_delay_ns: int = 1_000,
                 loss_rate: float = 0.0,
                 name: str = ""):
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        if propagation_delay_ns < 0:
            raise ValueError(f"propagation delay must be non-negative, "
                             f"got {propagation_delay_ns}")
        self._world = world
        self._sim = world.sim
        self._ends = (a, b)
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay_ns = propagation_delay_ns
        self._loss_rate = loss_rate
        self.name = name or f"cable:{a.name}<->{b.name}"
        # Only a lossy cable draws, so only a lossy cable holds a stream;
        # streams are keyed by name, so a late one draws what an eager
        # one would have.
        self._rng = None
        if loss_rate > 0.0:
            self._rng = world.rng.stream(f"cable.{self.name}")
        self._cut = False
        self._impair = None
        # Per-direction time at which the transmitter becomes free again.
        self._tx_free_at = [0, 0]
        self.frames_delivered = 0
        self.frames_lost = 0
        self.bytes_delivered = 0
        self._deliver_label = f"{self.name}.deliver"

    # ------------------------------------------------------------- topology

    def other_end(self, endpoint: CableEndpoint) -> CableEndpoint:
        """The endpoint opposite ``endpoint`` on this cable."""
        a, b = self._ends
        if endpoint is a:
            return b
        if endpoint is b:
            return a
        raise ValueError(f"{endpoint!r} is not attached to {self.name}")

    def _direction(self, sender: CableEndpoint) -> int:
        if sender is self._ends[0]:
            return 0
        if sender is self._ends[1]:
            return 1
        raise ValueError(f"{sender!r} is not attached to {self.name}")

    # -------------------------------------------------------------- failure

    @property
    def loss_rate(self) -> float:
        """Independent per-frame drop probability (assignable).

        The setter bumps ``World.net_epoch``: the switch's flood planner
        pre-classifies clean cables at cache-build time (see
        ``Switch._build_flood_targets``), so every wire-state mutation —
        loss, cut, impairment — must invalidate those caches.  Hot paths
        read the ``_loss_rate`` slot directly.
        """
        return self._loss_rate

    @loss_rate.setter
    def loss_rate(self, rate: float) -> None:
        self._loss_rate = rate
        if rate > 0.0 and self._rng is None:
            self._rng = self._world.rng.stream(f"cable.{self.name}")
        self._world.net_epoch += 1

    @property
    def is_cut(self) -> bool:
        """True while the cable is severed."""
        return self._cut

    def cut(self) -> None:
        """Sever the cable; all in-flight and future frames are lost."""
        self._cut = True
        # Wire-state change: invalidate cached flood plans (clean cables
        # are pre-classified at cache-build time).
        self._world.net_epoch += 1
        self._world.probes.fire("fault.link", self.name, "cable cut",
                                state="cut")

    def repair(self) -> None:
        """Restore a cut cable."""
        self._cut = False
        self._world.net_epoch += 1
        self._world.probes.fire("fault.link", self.name, "cable repaired",
                                state="repaired")

    @property
    def impair(self) -> Optional[Callable[..., Iterable[int]]]:
        """Per-frame impairment (assignable): ``None``, or ``fn(sender,
        frame)`` returning the delays in ns after which a copy of the
        frame enters the wire.

        ``()`` drops the frame, ``(0,)`` passes it, ``(0, 0)`` duplicates
        it, ``(2_000_000,)`` holds it back 2 ms.  Each copy then queues,
        draws for loss and meets a cut like any offered frame; a dropped
        frame costs no wire time and no RNG draw.  The setter bumps
        ``World.net_epoch``, like :attr:`loss_rate`.
        """
        return self._impair

    @impair.setter
    def impair(self, fn: Optional[Callable[..., Iterable[int]]]) -> None:
        self._impair = fn
        self._world.net_epoch += 1

    # ------------------------------------------------------------- transmit

    def transmit(self, sender: CableEndpoint, frame: EthernetFrame) -> None:
        """Offer a frame for transmission from ``sender`` toward the far end.

        Never blocks: queueing is expressed as added delay.  Loss and cuts
        silently drop — exactly what real Ethernet does.
        """
        if self._impair is not None:
            for delay in self._impair(sender, frame):
                if delay:
                    self._sim.post(delay, self._offer, sender, frame,
                                   label=self._deliver_label)
                else:
                    self._offer(sender, frame)
            return
        self._offer(sender, frame)

    def _offer(self, sender: CableEndpoint, frame: EthernetFrame) -> None:
        """Put one copy on the wire, past the impairment hook."""
        plan = self.plan_transmit(sender, frame)
        if plan is not None:
            self._sim.post(plan[0], self._deliver, plan[1], frame,
                           label=self._deliver_label)

    def plan_transmit(self, sender: CableEndpoint,
                      frame: EthernetFrame) -> "tuple[int, CableEndpoint] | None":
        """What :meth:`transmit` does to the wire, without the scheduling.

        Returns ``(arrival_delay_ns, receiver)`` when the frame will arrive,
        or ``None`` when it is dropped (cut or random loss).  Every side
        effect of a transmission happens here — FIFO serialization state,
        loss counters, the per-cable RNG draw — so a caller that batches
        several planned deliveries into one event (see
        ``Switch._forward``) produces the same wire-level behaviour as
        per-frame ``transmit`` calls.  The caller must invoke
        :meth:`deliver_planned` at ``now + arrival_delay_ns``.
        """
        if self._cut:
            self.frames_lost += 1
            return None
        ends = self._ends
        direction = 0 if sender is ends[0] else 1
        if direction and sender is not ends[1]:
            raise ValueError(f"{sender!r} is not attached to {self.name}")
        now = self._sim._now  # slot access: this runs once per flooded port
        free_at = self._tx_free_at[direction]
        start = now if now >= free_at else free_at
        tx_time = (frame.size_bytes * 8 * 1_000_000_000) // self.bandwidth_bps
        self._tx_free_at[direction] = start + tx_time
        arrival_delay = (start - now) + tx_time + self.propagation_delay_ns
        if self._loss_rate > 0.0 and self._rng.random() < self._loss_rate:
            self.frames_lost += 1
            self._world.probes.fire("eth.frame_lost", self.name, "frame lost",
                                    size=frame.size_bytes)
            return None
        return arrival_delay, ends[1 - direction]

    def deliver_planned(self, receiver: CableEndpoint,
                        frame: EthernetFrame) -> None:
        """Complete a delivery planned by :meth:`plan_transmit` (re-checks
        the cut state, as a cut may have happened while in flight)."""
        self._deliver(receiver, frame)

    def _deliver(self, receiver: CableEndpoint, frame: EthernetFrame) -> None:
        if self._cut:  # cut while the frame was in flight
            self.frames_lost += 1
            return
        self.frames_delivered += 1
        self.bytes_delivered += frame.size_bytes
        receiver.receive_frame(frame)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "CUT" if self._cut else "up"
        return f"<Cable {self.name} {self.bandwidth_bps / 1e6:.0f}Mbps {state}>"
