"""The catalogue of runtime-checked protocol invariants.

Every invariant the :class:`~repro.check.oracle.InvariantOracle` enforces
is declared here, with the RFC or paper section it comes from.  The
catalogue is rendered for humans in ``docs/invariants.md``
(``tests/check/test_catalogue.py`` keeps the two in sync), and each
:class:`~repro.check.oracle.Violation` names the invariant it broke by
its ``id``.

Layers
------

* ``tcp-endpoint`` — checked from the ``tcp.segment_tx`` /
  ``tcp.deliver`` probes, per connection, against that endpoint's own
  sender/receiver state (read off the live connection the
  ``tcp.segment_tx`` fire hands over);
* ``wire`` — checked from ``eth.frame`` at the switch, per TCP flow
  direction, so they hold across *whichever* machine is emitting
  (primary before failover, backup after — the ST-TCP headline claim);
* ``heartbeat`` — checked from the ``hb.state`` payload tap;
* ``sttcp`` — engine-level mode decisions (``sttcp.takeover`` /
  ``sttcp.non-ft-mode``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Invariant", "INVARIANTS", "LAYERS"]

LAYERS = ("tcp-endpoint", "wire", "heartbeat", "sttcp")


@dataclass(frozen=True)
class Invariant:
    """One checked protocol property."""

    id: str
    layer: str
    title: str
    anchor: str       # the RFC section / paper section it reproduces
    description: str


_ALL = [
    # ------------------------------------------------------- tcp-endpoint
    Invariant(
        "tcp.snd-una-le-nxt", "tcp-endpoint",
        "send window ordering",
        "RFC 793 Sec. 3.2",
        "snd_una <= snd_nxt at every emitted segment: a connection never "
        "acknowledges-away bytes it has not yet sent (flight size is "
        "never negative)."),
    Invariant(
        "tcp.snd-una-monotone", "tcp-endpoint",
        "cumulative ack point never retreats",
        "RFC 793 Sec. 3.4",
        "snd_una is non-decreasing over a connection's lifetime; an ack "
        "cannot un-acknowledge data."),
    Invariant(
        "tcp.seq-in-window", "tcp-endpoint",
        "emitted sequence numbers stay in the send window",
        "RFC 793 Sec. 3.7",
        "every non-SYN segment starts at a stream offset in "
        "[snd_una, snd_nxt] (mod 2^32): retransmissions start at or above "
        "the ack point, new data exactly at snd_nxt."),
    Invariant(
        "tcp.cwnd-floor", "tcp-endpoint",
        "congestion window floor",
        "RFC 5681 Sec. 3.1",
        "cwnd >= 1 MSS always — even after an RTO collapse the sender "
        "may keep one segment in flight."),
    Invariant(
        "tcp.ssthresh-floor", "tcp-endpoint",
        "slow-start threshold floor",
        "RFC 5681 Sec. 3.1 eq. (4)",
        "ssthresh >= 2 MSS after any loss event (the initial 'infinite' "
        "value also satisfies this)."),
    Invariant(
        "tcp.rcv-nxt-monotone", "tcp-endpoint",
        "in-order receive point never retreats",
        "RFC 793 Sec. 3.4",
        "rcv_next (the receiver's delivered-prefix length) is "
        "non-decreasing: delivered bytes are never taken back."),
    Invariant(
        "tcp.deliver-contiguous", "tcp-endpoint",
        "exactly-once, gapless in-order delivery",
        "ST-TCP paper Sec. 2",
        "each tcp.deliver event starts exactly where the previous one "
        "ended (from offset 0): the application-visible byte stream has "
        "no gaps and no re-delivery — across failover included."),
    # --------------------------------------------------------------- wire
    Invariant(
        "wire.seq-continuity", "wire",
        "one continuous sequence space per flow direction",
        "ST-TCP paper Sec. 2",
        "successive on-wire sequence numbers of a flow direction stay "
        "within a window-sized band (mod 2^32) of the running maximum; "
        "a post-takeover backup continuing with a different ISN than the "
        "primary's would jump by a random 32-bit distance."),
    Invariant(
        "wire.ack-monotone", "wire",
        "on-wire ack numbers never retreat",
        "RFC 793 Sec. 3.4 / ST-TCP paper Sec. 3",
        "per flow direction the ack field is non-decreasing (mod 2^32), "
        "including across the primary-to-backup handoff: the backup may "
        "not ack less than the primary already acked (RST segments are "
        "exempt; their ack field is incidental)."),
    Invariant(
        "wire.ack-beyond-data", "wire",
        "never ack data the peer has not sent",
        "RFC 793 Sec. 3.4",
        "an ack number never exceeds the highest sequence number (plus "
        "SYN/FIN phantom bytes) observed from the opposite direction of "
        "the flow — the receiver cannot acknowledge bytes that were "
        "never on the wire."),
    Invariant(
        "wire.backup-silent", "wire",
        "backup emits nothing before takeover",
        "ST-TCP paper Sec. 2",
        "no service-flow TCP frame sourced from the backup's MAC may "
        "enter the switch before sttcp.takeover fires: output "
        "suppression must be total (requires topology hints)."),
    Invariant(
        "wire.primary-silent", "wire",
        "no dual-active senders after takeover",
        "ST-TCP paper Sec. 2 (STONITH ordering)",
        "after sttcp.takeover (plus an in-flight grace window) no "
        "service-flow TCP frame sourced from the primary's MAC may "
        "enter the switch: STONITH-before-unsuppress means at most one "
        "live server (requires topology hints)."),
    # ---------------------------------------------------------- heartbeat
    Invariant(
        "hb.seq-monotone", "heartbeat",
        "heartbeat sequence numbers increase",
        "ST-TCP paper Sec. 3",
        "each HeartbeatService emits strictly increasing heartbeat "
        "sequence numbers (out-of-schedule FIN-notice heartbeats "
        "included)."),
    Invariant(
        "hb.progress-monotone", "heartbeat",
        "per-connection progress counters are monotone",
        "ST-TCP paper Sec. 3",
        "LastByteReceived, LastAckReceived, LastAppByteWritten and "
        "LastAppByteRead carried in successive heartbeats for one "
        "connection never decrease (they are cumulative stream "
        "offsets)."),
    # -------------------------------------------------------------- sttcp
    Invariant(
        "sttcp.single-active", "sttcp",
        "no split brain",
        "ST-TCP paper Sec. 4",
        "a run never sees both a backup takeover and the primary "
        "declaring non-FT mode, and never two engine-level takeovers: "
        "exactly one side may claim the service."),
]

#: id -> Invariant; the authoritative catalogue.
INVARIANTS: dict[str, Invariant] = {inv.id: inv for inv in _ALL}

if len(INVARIANTS) != len(_ALL):  # pragma: no cover - catalogue bug guard
    raise AssertionError("duplicate invariant id in catalogue")
for _inv in INVARIANTS.values():  # pragma: no branch
    if _inv.layer not in LAYERS:  # pragma: no cover
        raise AssertionError(f"invariant {_inv.id} has unknown layer "
                             f"{_inv.layer}")
