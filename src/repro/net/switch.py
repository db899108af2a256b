"""A learning Ethernet switch.

Forwarding rules (exactly what the ST-TCP testbed relies on):

* unicast to a learned MAC → forward out that port only;
* unicast to an unknown MAC → flood;
* multicast / broadcast destination → flood to every port except ingress.

Because the client's static ARP entry maps ``serviceIP`` to a *multicast*
Ethernet address, every client→server frame is flooded and thus received
by both the primary's and the backup's NIC (Figure 2 of the paper).
"""

from __future__ import annotations

from typing import Optional

from repro.net.addresses import MacAddress
from repro.net.cable import Cable
from repro.net.frame import EthernetFrame
from repro.net.nic import Nic
from repro.net.pool import release_frame, retain
from repro.sim.world import World

__all__ = ["Switch", "SwitchPort"]


class SwitchPort:
    """One port of a switch — a cable endpoint that hands frames inward."""

    __slots__ = ("switch", "index", "name", "_cable")

    def __init__(self, switch: "Switch", index: int):
        self.switch = switch
        self.index = index
        self.name = f"{switch.name}.p{index}"
        self._cable: Optional[Cable] = None

    @property
    def cable(self) -> Optional[Cable]:
        """The cable plugged into this port (assignable)."""
        return self._cable

    @cable.setter
    def cable(self, cable: Optional[Cable]) -> None:
        self._cable = cable
        self.switch._flood_cache.clear()

    def receive_frame(self, frame: EthernetFrame) -> None:
        """Cable-side entry: hand the frame to the switch fabric."""
        self.switch._ingress(self, frame)

    def transmit(self, frame: EthernetFrame) -> None:
        """Send a frame out of this port's cable."""
        if self._cable is not None:
            self._cable.transmit(self, frame)


class Switch:
    """A store-and-forward learning switch with a fixed forwarding latency.

    Floods are *batched*: instead of scheduling one delivery event per
    egress port, the switch plans every egress cable's arrival time
    (:meth:`Cable.plan_transmit`), groups ports whose frame arrives at the
    same instant, and schedules one event per group.  Per-frame timing,
    loss draws and counters are identical to per-port scheduling — only
    the event count drops (the merged micro-events are credited via
    ``sim.credit_events`` so throughput metrics stay comparable).

    ``egress_filtering`` (opt-in, default off) is the IGMP-snooping
    analogue for fleet-scale testbeds: a flooded frame is not sent down a
    cable whose far-end NIC would filter it anyway (wrong unicast MAC, not
    a subscribed multicast group, not promiscuous).  This skips the
    quadratic deliver-then-discard work of large client fleets.  It is off
    by default because it changes per-cable loss-RNG consumption and NIC
    filter counters, i.e. it is a different (documented) configuration,
    not a transparent optimisation; see docs/scheduler.md.
    """

    __slots__ = ("_world", "name", "forwarding_delay_ns", "egress_filtering",
                 "ports", "_mac_table", "_mac_by_value", "_mirror_port",
                 "frames_forwarded", "frames_flooded", "frames_mirrored",
                 "frames_egress_filtered", "_fwd_label", "_flood_label",
                 "_flood_cache", "_cache_net_epoch", "__weakref__")

    #: counters.json key -> the attribute that counts it (summed over
    #: ``World.switches`` by an ObsSession; no probe repeats these counts).
    COUNTED = {"eth.forward": "frames_forwarded",
               "eth.flood": "frames_flooded"}

    def __init__(self, world: World, name: str = "switch",
                 forwarding_delay_ns: int = 2_000,
                 egress_filtering: bool = False):
        if forwarding_delay_ns < 0:
            raise ValueError(f"forwarding delay must be non-negative, "
                             f"got {forwarding_delay_ns}")
        self._world = world
        self.name = name
        self.forwarding_delay_ns = forwarding_delay_ns
        self.egress_filtering = egress_filtering
        self.ports: list[SwitchPort] = []
        self._mac_table: dict[MacAddress, SwitchPort] = {}
        # Demux fast path: the same learned ports keyed by the raw 48-bit
        # int.  Hashing an int beats calling MacAddress.__hash__/__eq__
        # (Python-level) once per frame crossing the fabric; _mac_table
        # is kept in step for the mac_table API.
        self._mac_by_value: dict[int, SwitchPort] = {}
        # SPAN/mirror port: receives a copy of every forwarded unicast
        # frame.  Used by the old-architecture ablation, where the backup
        # also taps the primary->client traffic (paper Sec. 3).
        self._mirror_port: Optional[SwitchPort] = None
        self.frames_forwarded = 0
        self.frames_flooded = 0
        self.frames_mirrored = 0
        self.frames_egress_filtered = 0
        self._fwd_label = f"{name}.fwd"
        self._flood_label = f"{name}.flood"
        # Flood target lists, cached per (ingress port, destination):
        # (targets, egress_filtered_count).  Invalidated on topology
        # changes (new port, cable swap) and — when filtering — on NIC
        # address-filter changes (tracked by World.net_epoch).
        self._flood_cache: dict = {}
        self._cache_net_epoch = -1
        world.switches.append(self)

    def new_port(self) -> SwitchPort:
        """Allocate a fresh port (call before cabling a device to it)."""
        port = SwitchPort(self, len(self.ports))
        self.ports.append(port)
        self._flood_cache.clear()
        return port

    @property
    def mac_table(self) -> dict[MacAddress, SwitchPort]:
        """Read-only view of what the switch has learned (for tests)."""
        return dict(self._mac_table)

    def set_mirror_port(self, port: Optional[SwitchPort]) -> None:
        """Mirror all forwarded unicast traffic to ``port`` (SPAN)."""
        self._mirror_port = port

    def _ingress(self, port: SwitchPort, frame: EthernetFrame) -> None:
        # Learn the source unless it is (bogusly) multicast.  The bit
        # test and the already-learned check are inlined (keep in sync
        # with MacAddress.is_multicast): in steady state every frame's
        # source is known, so this is one int-dict probe per frame.
        src_value = frame.src._value
        if not (src_value >> 40) & 0x01 and \
                self._mac_by_value.get(src_value) is not port:
            self._mac_by_value[src_value] = port
            self._mac_table[frame.src] = port
        # The frame outlives the delivering event (the fabric holds it
        # until _forward runs), so take the switch's own claim on pooled
        # frames; _forward settles it.  Forwards are never cancelled: a
        # kernel-owned event record.
        retain(frame)
        self._world.sim.post(self.forwarding_delay_ns, self._forward,
                             port, frame, label=self._fwd_label)

    def _forward(self, ingress: SwitchPort, frame: EthernetFrame) -> None:
        probes = self._world.probes
        # The pcap tap: every frame crossing the fabric, exactly once.
        if probes.wants_map["eth.frame"]:
            probes.fire("eth.frame", self.name, frame=frame,
                        ingress=ingress.index)
        dst = frame.dst
        dst_value = dst._value
        if not (dst_value >> 40) & 0x01:  # is_multicast inlined
            learned = self._mac_by_value.get(dst_value)
            if learned is not None and learned is not ingress:
                self.frames_forwarded += 1
                # SwitchPort.transmit inlined (keep in sync): one call
                # per forwarded unicast frame.  Claims: the fabric's claim
                # transfers into cable.transmit; a SPAN copy needs its own
                # (taken *before* the main transmit, which may drop and
                # recycle the frame).
                cable = learned._cable
                mirror = self._mirror_port
                if (mirror is not None and mirror is not learned
                        and mirror is not ingress):
                    if cable is not None:
                        retain(frame)
                        cable.transmit(learned, frame)
                    self.frames_mirrored += 1
                    mirror.transmit(frame)
                elif cable is not None:
                    cable.transmit(learned, frame)
                else:
                    release_frame(frame)
                return
            if learned is ingress:
                release_frame(frame)
                return  # destination is on the ingress segment; drop
        # Multicast, broadcast, or unknown unicast: flood (batched).
        self.frames_flooded += 1
        # Sink classification below depends on the far-end address
        # filters, so the cache is destination-keyed and epoch-checked in
        # both modes (net_epoch covers multicast joins/leaves and
        # promiscuous flips; topology changes clear the dict directly).
        epoch = self._world.net_epoch
        if epoch != self._cache_net_epoch:
            self._flood_cache.clear()
            self._cache_net_epoch = epoch
        key = (ingress.index, dst_value)
        cached = self._flood_cache.get(key)
        if cached is None:
            cached = self._flood_cache[key] = \
                self._build_flood_targets(ingress, dst)
        targets, sinks, filtered = cached
        self.frames_egress_filtered += filtered
        # The per-target transmission plan below is Cable.plan_transmit
        # inlined (keep the two in sync) — at fleet scale this loop is the
        # hottest code in the network layer, so it pays to hoist `now` and
        # the wire size out and skip a function call per port.
        sim = self._world.sim
        now = sim._now
        size = frame.size_bytes
        size_bits_scaled = size * 8 * 1_000_000_000
        # The fleet's cables share one or two bandwidth classes and (when
        # idle) one arrival time, so consecutive ports almost always repeat
        # the previous port's serialization time and delay group — track
        # the last-seen values in locals instead of a dict hit per port.
        last_bw = -1
        tx_time = 0
        last_delay = -1
        group: list = []
        groups: dict[int, list] = {}
        for cable, direction, free_at, prop, bandwidth, pair in targets:
            if cable._cut:
                cable.frames_lost += 1
                continue
            if bandwidth != last_bw:
                tx_time = size_bits_scaled // bandwidth
                last_bw = bandwidth
            free = free_at[direction]
            start = now if now >= free else free
            free_at[direction] = start + tx_time
            delay = start - now + tx_time + prop
            if cable._loss_rate > 0.0 and cable._rng.random() < cable._loss_rate:
                cable.frames_lost += 1
                probes.fire("eth.frame_lost", cable.name, "frame lost",
                            size=size)
                continue
            if delay != last_delay:
                g = groups.get(delay)
                if g is None:
                    groups[delay] = g = []
                group = g
                last_delay = delay
            group.append(pair)
        # Sink fast lane: ports whose far-end NIC's address filter is
        # known to reject ``dst``.  Their delivery has no observable
        # effect beyond counters, so the wire-side effects (FIFO
        # serialization, loss draw, cut) and the accounting both run
        # eagerly here and the deliver-then-discard event is skipped
        # entirely.  Per-cable RNG consumption is unchanged (each cable
        # appears in exactly one of the two lists).  Anything unusual —
        # a cut, lossy or impaired cable — falls back to a real scheduled
        # delivery.
        delivered_sinks = 0
        for cable, free_at, direction, receiver, bandwidth, odd in sinks:
            # One credited sink delivery per iteration: this loop is the
            # hottest code at fleet scale (a multicast heartbeat floods to
            # every client port, all of them sinks), so the per-frame
            # validation is one truthiness test.  ``odd`` was resolved at
            # cache-build time (cut / lossy / impaired); every mutation of
            # that state bumps ``World.net_epoch`` and rebuilds this list.
            # It routes through the full-semantics slow path, which
            # re-checks everything properly.
            if odd:
                self._plan_slow_target(cable, direction, frame, groups)
                continue
            if bandwidth != last_bw:
                tx_time = size_bits_scaled // bandwidth
                last_bw = bandwidth
            free = free_at[direction]
            free_at[direction] = (now if now >= free else free) + tx_time
            cable.frames_delivered += 1
            cable.bytes_delivered += size
            delivered_sinks += 1
            if receiver.host_up and not receiver._failed:
                receiver.frames_filtered += 1
        if delivered_sinks:
            # The skipped deliveries are still logical events (see
            # credit_events): throughput metrics stay apples-to-apples.
            sim.credit_events(delivered_sinks)
        # One kernel-owned event per arrival-time group (usually a single
        # group per flooded frame).  Claims: every group event takes its
        # own claim (_deliver_flood releases it), then the fabric drops
        # the one _ingress took — with no groups that recycles the frame.
        for delay, group in groups.items():
            retain(frame)
            sim.post(delay, self._deliver_flood, group, frame,
                     label=self._flood_label)
        release_frame(frame)

    def _plan_slow_target(self, cable, direction, frame, groups) -> None:
        """Full wire semantics for an ``odd`` flood target (cut, lossy,
        impaired): plan the delivery with :meth:`Cable.plan_transmit` and
        append it to the arrival-time groups.  An impaired cable decides
        per frame how many copies leave and when, so it gets the frame
        through :meth:`Cable.transmit`, with a claim of its own."""
        sender = cable._ends[direction]   # the switch-port end
        if cable._impair is not None:
            retain(frame)
            cable.transmit(sender, frame)
            return
        plan = cable.plan_transmit(sender, frame)
        if plan is not None:
            delay, receiver = plan
            groups.setdefault(delay, []).append((cable, receiver))

    def _build_flood_targets(self, ingress: SwitchPort,
                             dst: MacAddress) -> tuple[list, list, int]:
        """Resolve the egress set for a flood from ``ingress`` as
        ``(targets, sinks, filtered)``.

        ``targets`` holds every other cabled port whose far end might act
        on the frame: (cable, direction, plus the cable's
        construction-time constants — its ``_tx_free_at`` list,
        propagation delay and bandwidth — plus a prebuilt (cable,
        receiver) delivery pair, pre-fetched so the per-frame loop skips
        the attribute lookups and tuple allocation).  ``sinks`` holds the
        ports whose far end is a plain NIC whose address filter rejects
        ``dst``: their delivery is pure accounting, handled eagerly by
        ``_forward`` without a scheduled event (filter changes bump
        ``World.net_epoch``, which invalidates this cache) — and, flagged
        ``odd``, every impaired cable, whatever its far end.  When
        :attr:`egress_filtering` is on, would-be-filtered ports are
        dropped entirely instead; the filtered count rides along so the
        counter stays per-frame."""
        targets = []
        sinks = []
        filtered = 0
        for port in self.ports:
            if port is ingress:
                continue
            cable = port._cable
            if cable is None:
                continue
            direction = cable._direction(port)
            receiver = cable._ends[1 - direction]
            if self.egress_filtering:
                accepts = getattr(receiver, "accepts", None)
                if accepts is not None and not accepts(dst):
                    filtered += 1
                    continue
            impaired = cable._impair is not None
            if impaired or (type(receiver) is Nic
                            and not receiver._promiscuous
                            and dst._value not in receiver._accept_values):
                # ``odd`` pre-resolves the cut/lossy/impaired test: all
                # three mutate only through hooks that bump World.net_epoch
                # (Cable.cut/repair, the loss_rate and impair setters),
                # which rebuilds this cache, so the per-frame sink loop
                # needs no attribute checks.
                odd = impaired or cable._cut or cable._loss_rate > 0.0
                sinks.append((cable, cable._tx_free_at, direction, receiver,
                              cable.bandwidth_bps, odd))
                continue
            targets.append((cable, direction, cable._tx_free_at,
                            cable.propagation_delay_ns, cable.bandwidth_bps,
                            (cable, receiver)))
        return targets, sinks, filtered

    def _deliver_flood(self, group: list, frame: EthernetFrame) -> None:
        """Deliver one arrival-time group of a flooded frame.  One
        scheduled event stands in for ``len(group)`` per-port deliveries;
        the merged ones are credited so ``events_processed`` still counts
        logical deliveries.  The body of ``Cable._deliver`` is inlined —
        at fleet scale this loop runs once per (flood, port) pair."""
        if len(group) > 1:
            self._world.sim.credit_events(len(group) - 1)
        size = frame.size_bytes
        dst_value = frame.dst._value
        for cable, receiver in group:
            if cable._cut:  # cut while the frame was in flight
                cable.frames_lost += 1
                continue
            cable.frames_delivered += 1
            cable.bytes_delivered += size
            # Inline Nic.receive_frame's reject paths (keep in sync): with
            # egress filtering off, most flood deliveries end right here at
            # the far-end NIC's address filter, and skipping the call per
            # port is worth the duplication.  Anything unusual —
            # promiscuous mode, non-NIC endpoint, or an accepted frame —
            # takes the full method.
            if type(receiver) is Nic and not receiver._promiscuous:
                if receiver._failed or not receiver.host_up:
                    continue
                if dst_value not in receiver._accept_values:
                    receiver.frames_filtered += 1
                    continue
            receiver.receive_frame(frame)
        # All group deliveries ran synchronously above: drop this group
        # event's claim (receivers that kept the segment retained it).
        release_frame(frame)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Switch {self.name} ports={len(self.ports)}>"
