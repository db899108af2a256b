"""The runtime invariant oracle.

:class:`InvariantOracle` subscribes to a :class:`~repro.sim.world.World`'s
probe bus and checks every firing against the catalogue in
:mod:`repro.check.invariants`.  It is pure observer: attaching it changes
no timing and no behaviour, and detaching restores the zero-overhead idle
path.  (Emitters build a probe's fields only while something is
subscribed to it, so the oracle's seven subscriptions do make those
emitters do that work.)

Every invariant is evaluated on every event it applies to and counted in
:attr:`InvariantOracle.checks`; what is lazy is the *evidence*.  The
``conn``/``detail`` strings of a :class:`Violation` are formatted only
when a check fails, and a wire-layer violation stores the decoded
``describe_frame`` row of the offending frame, not the frame, so a
violation is plain data that prints and compares without the frame's
wrapper chain (a sender-state violation, likewise, the connection's
name).

Three front doors, all documented in ``docs/invariants.md``:

* :class:`CheckedRun` — a context manager that attaches an oracle and
  raises :class:`InvariantViolationError` on exit if anything tripped
  (``scenarios/runner.py`` exposes it as ``check=True``);
* ``--check`` on every CLI demo (``repro.cli``);
* the autouse pytest fixture in ``tests/conftest.py`` (``REPRO_CHECK=1``),
  via :mod:`repro.check.autocheck`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.check.invariants import INVARIANTS
from repro.net.addresses import MacAddress
from repro.net.packet import IPPacket
from repro.obs.bus import ProbeEvent
from repro.obs.export import describe_frame
from repro.sim.core import millis
from repro.tcp.segment import TcpFlags, TcpSegment
from repro.tcp.seq import seq_add, seq_sub

__all__ = ["CheckTopology", "Violation", "InvariantViolationError",
           "InvariantOracle", "CheckedRun"]

# Largest believable on-wire sequence jump within one flow direction:
# far above any window (64 KiB + retain allowance), far below the random
# ~2^31 distance a wrong-ISN takeover produces.
_SEQ_BAND = 1 << 24

# In-flight allowance for wire.primary-silent: frames the primary queued
# on its cable before STONITH may still drain into the switch briefly.
_TAKEOVER_GRACE_NS = millis(200)


@dataclass(frozen=True)
class CheckTopology:
    """Wire-layer hints: who is who on the switch (Figure 2)."""

    primary_mac: str
    backup_mac: str
    service_port: int = 80

    @classmethod
    def from_testbed(cls, tb) -> "CheckTopology":
        """Derive the hints from a built scenario testbed."""
        service_port = (tb.pair.config.service_port
                        if tb.pair is not None else 80)
        return cls(primary_mac=str(tb.addresses.primary_mac),
                   backup_mac=str(tb.addresses.backup_mac),
                   service_port=service_port)


@dataclass(frozen=True)
class Violation:
    """One invariant breach, with everything needed to debug it."""

    invariant: str        # id into repro.check.invariants.INVARIANTS
    time: int             # virtual ns of the offending probe event
    conn: str             # connection / flow / service identifier
    detail: str           # human-readable specifics (observed vs expected)
    #: The probe record itself; a ``frame`` field holds the decoded row
    #: (:func:`~repro.obs.export.describe_frame`), not the frame,
    #: and a ``conn`` field the connection's name, not the connection.
    event: Optional[ProbeEvent] = None

    def __str__(self) -> str:
        return (f"[{self.time / 1e9:12.6f}s] {self.invariant}: {self.conn}: "
                f"{self.detail}")


class InvariantViolationError(AssertionError):
    """Raised by :class:`CheckedRun` when a run broke the catalogue."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        shown = "\n".join(f"  {v}" for v in violations[:20])
        more = len(violations) - 20
        super().__init__(
            f"{len(violations)} invariant violation(s):\n{shown}"
            + (f"\n  ... and {more} more" if more > 0 else ""))


@dataclass
class _EndpointState:
    """Per-connection sender/receiver tracking (keyed by probe source)."""

    una: int = 0
    rcv_nxt: int = 0
    deliver_next: int = 0


@dataclass
class _FlowDirState:
    """Per (src_ip, sport, dst_ip, dport) wire-direction tracking."""

    hi_seq: Optional[int] = None   # running max sequence number (mod 2^32)
    hi_ack: Optional[int] = None   # running max ack number (mod 2^32)
    max_end: Optional[int] = None  # highest seq end incl. SYN/FIN phantoms


class InvariantOracle:
    """Checks probe traffic against the invariant catalogue.

    Violations are collected, not raised — callers decide (``CheckedRun``
    raises at exit, the pytest fixture asserts at teardown).  ``checks``
    counts evaluations per invariant so "ran clean" is distinguishable
    from "never looked".
    """

    def __init__(self, world, topology: Optional[CheckTopology] = None,
                 max_recorded: int = 200):
        self.world = world
        self.topology = topology
        self._primary_mac = self._backup_mac = None
        if topology is not None:
            self._primary_mac = MacAddress(topology.primary_mac).value
            self._backup_mac = MacAddress(topology.backup_mac).value
        self.max_recorded = max_recorded
        self.violations: list[Violation] = []
        self.violation_count = 0           # keeps counting past the cap
        self.checks: dict[str, int] = {inv: 0 for inv in INVARIANTS}
        self._endpoints: dict[str, _EndpointState] = {}
        self._flows: dict[tuple, _FlowDirState] = {}
        self._hb_seq: dict[str, int] = {}
        self._hb_progress: dict[tuple, tuple] = {}
        self._takeover_at: Optional[int] = None
        self._takeover_sources: set[str] = set()
        self._nonft_sources: set[str] = set()
        self._subs: list = []
        self._attached = False

    # ------------------------------------------------------------ plumbing

    def attach(self) -> "InvariantOracle":
        """Subscribe to the probes the catalogue needs (idempotent)."""
        if self._attached:
            return self
        self._subs = self.world.probes.attach(
            (("tcp.segment_tx", self._on_segment_tx),
             ("tcp.deliver", self._on_deliver),
             ("eth.frame", self._on_frame),
             ("hb.state", self._on_heartbeat),
             ("sttcp.takeover", self._on_takeover),
             ("sttcp.non-ft-mode", self._on_non_ft),
             ("sttcp.conn-replicated", self._on_replicated)))
        self._attached = True
        return self

    def detach(self) -> None:
        """Stop observing (collected violations stay queryable)."""
        self.world.probes.unsubscribe(*self._subs)
        self._subs.clear()
        self._attached = False

    def _fail(self, invariant: str, event: Optional[ProbeEvent], conn: str,
              detail: str) -> None:
        self.violation_count += 1
        if len(self.violations) < self.max_recorded:
            self.violations.append(Violation(
                invariant, event.time if event else self.world.now,
                conn, detail, event))

    def _fail_wire(self, invariant: str, ev: ProbeEvent, packet: IPPacket,
                   detail: str) -> None:
        """A wire-layer breach: filed under the packet's flow direction,
        with the frame decoded into its row."""
        seg = packet.payload
        decoded = {**ev.fields, "frame": describe_frame(ev.fields["frame"])}
        self._fail(invariant, ev._replace(fields=decoded),
                   f"{packet.src}:{seg.src_port}->{packet.dst}:{seg.dst_port}",
                   detail)

    def _fail_tx(self, invariant: str, ev: ProbeEvent, detail: str) -> None:
        """A sender-state breach, filed under the connection's name in
        place of the live connection, which moves on."""
        named = ev._replace(fields={**ev.fields, "conn": ev.source})
        self._fail(invariant, named, ev.source, detail)

    def report(self) -> str:
        """Human-readable summary: per-invariant check/violation counts."""
        lines = [f"invariant oracle: {self.violation_count} violation(s)"]
        for inv_id in INVARIANTS:
            lines.append(f"  {inv_id:28s} checked {self.checks[inv_id]:>9d}")
        for violation in self.violations:
            lines.append(f"  VIOLATION {violation}")
        return "\n".join(lines)

    # ------------------------------------------------- tcp-endpoint layer

    def _on_segment_tx(self, ev: ProbeEvent) -> None:
        f = ev.fields
        conn = f["conn"]
        una, nxt = conn.snd_una_off, conn.snd_nxt_off
        rcv_nxt = conn.last_byte_received
        flags = f["flags"]
        state = self._endpoints.get(ev.source)
        if state is None or flags & TcpFlags.SYN:
            # First sighting, or a new incarnation reusing the name.
            state = self._endpoints[ev.source] = _EndpointState(
                una=una, rcv_nxt=rcv_nxt)
        checks = self.checks
        checks["tcp.snd-una-le-nxt"] += 1
        if una > nxt:
            self._fail_tx("tcp.snd-una-le-nxt", ev,
                          f"snd_una={una} > snd_nxt={nxt}")
        checks["tcp.snd-una-monotone"] += 1
        if una < state.una:
            self._fail_tx("tcp.snd-una-monotone", ev,
                          f"snd_una retreated {state.una} -> {una}")
        else:
            state.una = una
        mss = conn.config.mss
        cwnd, ssthresh = conn.cc.cwnd, conn.cc.ssthresh
        checks["tcp.cwnd-floor"] += 1
        if cwnd < mss:
            self._fail_tx("tcp.cwnd-floor", ev,
                          f"cwnd={cwnd} < 1 MSS ({mss})")
        checks["tcp.ssthresh-floor"] += 1
        if ssthresh < 2 * mss:
            self._fail_tx("tcp.ssthresh-floor", ev,
                          f"ssthresh={ssthresh} < 2 MSS ({2 * mss})")
        iss = conn.iss
        if iss is not None and not flags & (TcpFlags.SYN | TcpFlags.RST):
            # (RSTs are exempt: a reset for a bogus handshake ack echoes
            # the offender's ack field as its seq, per RFC 793.)
            off = seq_sub(f["seq"], seq_add(iss, 1))
            checks["tcp.seq-in-window"] += 1
            if not una <= off <= nxt:
                self._fail_tx("tcp.seq-in-window", ev,
                              f"segment offset {off} outside [una={una}, "
                              f"nxt={nxt}]")
        checks["tcp.rcv-nxt-monotone"] += 1
        if rcv_nxt < state.rcv_nxt:
            self._fail_tx("tcp.rcv-nxt-monotone", ev,
                          f"rcv_next retreated {state.rcv_nxt} -> {rcv_nxt}")
        else:
            state.rcv_nxt = rcv_nxt

    def _on_deliver(self, ev: ProbeEvent) -> None:
        off, length = ev.fields.get("off"), ev.fields.get("len", 0)
        if off is None:
            return
        state = self._endpoints.setdefault(ev.source, _EndpointState())
        if off == 0 and state.deliver_next > 0:
            state.deliver_next = 0   # new incarnation reusing the name
        self.checks["tcp.deliver-contiguous"] += 1
        if off != state.deliver_next:
            self._fail("tcp.deliver-contiguous", ev, ev.source,
                       f"delivery at offset {off}, expected "
                       f"{state.deliver_next} (gap or re-delivery)")
        state.deliver_next = off + length

    # --------------------------------------------------------- wire layer

    def _on_frame(self, ev: ProbeEvent) -> None:
        frame = ev.fields.get("frame")
        packet = getattr(frame, "payload", None)
        if not isinstance(packet, IPPacket):
            return
        seg = packet.payload
        if not isinstance(seg, TcpSegment):
            return
        # Flow directions are keyed by the addresses' integer values;
        # _fail_wire renders the key for a violation.
        src, dst = packet.src._value, packet.dst._value
        sport, dport = seg.src_port, seg.dst_port
        fkey = (src, sport, dst, dport)
        flags = seg.flags
        syn, rst = flags & TcpFlags.SYN, flags & TcpFlags.RST
        flow = self._flows.get(fkey)
        if flow is None or syn:
            # New flow direction, or a new incarnation (a SYN legitimately
            # restarts the sequence space; ST-TCP takeover never SYNs).
            flow = self._flows[fkey] = _FlowDirState()
        if (self.topology is not None
                and self.topology.service_port in (sport, dport)):
            self._check_topology(ev, frame.src._value, packet)
        checks = self.checks
        seq = seg.seq
        end = seq_add(seq, len(seg.payload) + (1 if syn else 0)
                      + (1 if flags & TcpFlags.FIN else 0))
        if not rst:
            hi_seq = flow.hi_seq
            if hi_seq is None:
                flow.hi_seq = seq
            else:
                jump = seq_sub(seq, hi_seq)
                checks["wire.seq-continuity"] += 1
                if abs(jump) >= _SEQ_BAND:
                    self._fail_wire("wire.seq-continuity", ev, packet,
                                    f"seq {seq} is {jump:+d} from the running "
                                    f"max {hi_seq} (discontinuous space)")
                if jump > 0:
                    flow.hi_seq = seq
        if flow.max_end is None or seq_sub(end, flow.max_end) > 0:
            flow.max_end = end
        if flags & TcpFlags.ACK and not rst:
            ack = seg.ack
            hi_ack = flow.hi_ack
            if hi_ack is None:
                flow.hi_ack = ack
            else:
                retreat = seq_sub(ack, hi_ack)
                checks["wire.ack-monotone"] += 1
                if retreat < 0:
                    self._fail_wire("wire.ack-monotone", ev, packet,
                                    f"ack retreated {hi_ack} -> {ack} "
                                    f"({retreat:+d})")
                if retreat > 0:
                    flow.hi_ack = ack
            reverse = self._flows.get((dst, dport, src, sport))
            if reverse is not None and reverse.max_end is not None:
                beyond = seq_sub(ack, reverse.max_end)
                checks["wire.ack-beyond-data"] += 1
                if beyond > 0:
                    self._fail_wire("wire.ack-beyond-data", ev, packet,
                                    f"ack {ack} is {beyond:+d} beyond the "
                                    f"peer's highest sent byte "
                                    f"{reverse.max_end}")

    def _check_topology(self, ev: ProbeEvent, src_mac: int,
                        packet: IPPacket) -> None:
        """Wire-role checks on one service-flow frame from ``src_mac``."""
        takeover_at = self._takeover_at
        if src_mac == self._backup_mac:
            self.checks["wire.backup-silent"] += 1
            if takeover_at is None or ev.time < takeover_at:
                self._fail_wire("wire.backup-silent", ev, packet,
                                "backup emitted a service-flow frame before "
                                "takeover (output suppression breached)")
        elif src_mac == self._primary_mac and takeover_at is not None:
            self.checks["wire.primary-silent"] += 1
            if ev.time > takeover_at + _TAKEOVER_GRACE_NS:
                self._fail_wire("wire.primary-silent", ev, packet,
                                f"primary emitted a service-flow frame "
                                f"{(ev.time - takeover_at) / 1e6:.1f} ms "
                                f"after takeover (dual active)")

    # ---------------------------------------------------- heartbeat layer

    def _on_heartbeat(self, ev: ProbeEvent) -> None:
        hb = ev.fields.get("hb")
        if hb is None:
            return
        prev_seq = self._hb_seq.get(ev.source)
        if prev_seq is not None:
            self.checks["hb.seq-monotone"] += 1
            if hb.seq <= prev_seq:
                self._fail("hb.seq-monotone", ev, ev.source,
                           f"heartbeat seq {hb.seq} after {prev_seq}")
        self._hb_seq[ev.source] = hb.seq
        for progress in hb.connections:
            key = (ev.source, progress.key)
            counters = (progress.last_byte_received,
                        progress.last_ack_received,
                        progress.last_app_byte_written,
                        progress.last_app_byte_read)
            prev = self._hb_progress.get(key)
            if prev is not None:
                self.checks["hb.progress-monotone"] += 1
                if any(now < before for now, before in zip(counters, prev)):
                    self._fail("hb.progress-monotone", ev,
                               f"{ev.source}:{progress.key}",
                               f"progress counters retreated {prev} -> "
                               f"{counters}")
            self._hb_progress[key] = counters

    # -------------------------------------------------------- sttcp layer

    def _on_takeover(self, ev: ProbeEvent) -> None:
        if "key" in ev.fields:
            return   # per-connection logger-recovery completion, not a
                     # second engine-level takeover
        if self._takeover_at is None:
            self._takeover_at = ev.time
        self.checks["sttcp.single-active"] += 1
        if self._takeover_sources and ev.source not in self._takeover_sources:
            self._fail("sttcp.single-active", ev, ev.source,
                       f"second takeover (already taken over by "
                       f"{sorted(self._takeover_sources)})")
        if self._nonft_sources:
            self._fail("sttcp.single-active", ev, ev.source,
                       f"takeover after non-FT mode on "
                       f"{sorted(self._nonft_sources)} (split brain)")
        self._takeover_sources.add(ev.source)

    def _on_non_ft(self, ev: ProbeEvent) -> None:
        self.checks["sttcp.single-active"] += 1
        if self._takeover_sources:
            self._fail("sttcp.single-active", ev, ev.source,
                       f"non-FT mode after takeover by "
                       f"{sorted(self._takeover_sources)} (split brain)")
        self._nonft_sources.add(ev.source)

    def _on_replicated(self, ev: ProbeEvent) -> None:
        key = ev.fields.get("key")
        if key is None:
            return
        # A fresh replica announcement restarts the progress space for
        # that connection key (e.g. a client port reused after close).
        for tracked in [t for t in self._hb_progress if t[1] == key]:
            del self._hb_progress[tracked]


class CheckedRun:
    """Attach an oracle for the duration of a ``with`` block and raise
    :class:`InvariantViolationError` on exit if anything tripped.

    ::

        with CheckedRun(tb.world, CheckTopology.from_testbed(tb)):
            tb.run_until(60)
    """

    def __init__(self, world, topology: Optional[CheckTopology] = None,
                 raise_on_violation: bool = True):
        self.oracle = InvariantOracle(world, topology)
        self.raise_on_violation = raise_on_violation

    def __enter__(self) -> InvariantOracle:
        return self.oracle.attach()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.oracle.detach()
        if (exc_type is None and self.raise_on_violation
                and self.oracle.violations):
            raise InvariantViolationError(self.oracle.violations)
