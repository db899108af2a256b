"""The probe-point registry — every observable event, defined exactly once.

This table is the single source of truth for instrumentation names:

* **probe points** (``tcp.segment_tx``, ``hb.miss``, ``sttcp.takeover``...)
  are stable, documented identifiers that components fire on the
  :class:`~repro.obs.bus.ProbeBus`;
* **categories** (``tcp``, ``hb``, ``sttcp``...) are the coarse grouping
  :attr:`World.trace <repro.sim.world.World.trace>` is selected by —
  every probe belongs to exactly one category.

``tests/obs/test_registry_sync.py`` statically scans ``src/`` and fails if
any fired probe is missing from this module, and
``docs/observability.md`` renders this table for humans; keep all three in
sync (the test checks that too).

Naming conventions
------------------

* probe names are ``<category>.<event>``, lower-case; the event part uses
  ``_`` for multi-word events fired directly (``tcp.segment_tx``) and
  ``-`` for events mirrored from the ST-TCP engine event log, whose kinds
  are historically dash-separated (``sttcp.takeover``,
  ``sttcp.non-ft-mode``);
* counters derived from probes are named ``<category>.<noun>_total``;
  gauges ``<area>.<quantity>_<unit>``; histograms ``<area>.<quantity>``;
* ``emitted_by`` is the dotted path of the code that fires the probe;
  ``a.B.m1/m2`` names two methods of one owner and `` / `` separates
  full paths (every alternative must import and resolve).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ProbeSpec", "PROBES", "CATEGORIES", "UnknownProbeError"]


class UnknownProbeError(KeyError):
    """Raised when a component fires a probe that is not registered."""


@dataclass(frozen=True)
class ProbeSpec:
    """One stable probe point.

    ``traced=True`` marks a milestone: a world that keeps the probe's
    category appends every fire to ``World.trace``.  ``traced=False``
    marks pure instrumentation taps (high-volume packet / counter probes)
    that only reach explicit subscribers, so keeping a whole category
    never costs one list entry per segment.
    """

    name: str
    category: str
    description: str
    emitted_by: str
    traced: bool = True


#: Category registry: every probe's category must appear here.
CATEGORIES: dict[str, str] = {
    "sim": "simulation kernel (run markers)",
    "eth": "switch and cable frame events",
    "arp": "ARP requests/replies and static entries",
    "ip": "IP forwarding and errors",
    "icmp": "echo requests/replies",
    "tcp": "segment send/receive, state transitions, retransmits",
    "hb": "ST-TCP heartbeat send/receive/miss",
    "sttcp": "ST-TCP engine decisions (suppression, takeover...)",
    "detect": "failure-detector verdicts and watchdog suspicions",
    "fault": "fault injector actions and failure symptoms",
    "app": "application-level milestones",
    "power": "power-control (STONITH) actions",
}


def _spec(name: str, description: str, emitted_by: str,
          traced: bool = True) -> ProbeSpec:
    return ProbeSpec(name, name.split(".", 1)[0], description, emitted_by,
                     traced)


_ALL_PROBES = [
    # ------------------------------------------------------------- kernel
    _spec("sim.run", "one Simulator.run episode finished",
          "repro.sim.world.World.run", traced=False),
    # ----------------------------------------------------------- ethernet
    _spec("eth.frame", "a frame entered the switch fabric (pcap tap; "
          "fields: frame — live, valid only during the callback — and "
          "ingress)",
          "repro.net.switch.Switch._forward", traced=False),
    _spec("eth.frame_lost", "cable dropped a frame (injected loss)",
          "repro.net.cable.Cable"),
    # ------------------------------------------------------ arp / ip / icmp
    _spec("arp.static", "a permanent ARP entry was installed "
          "(the serviceIP -> multiEA trick)",
          "repro.net.arp.ArpTable.add_static"),
    _spec("arp.request", "an ARP request was broadcast",
          "repro.net.arp.ArpTable._send_request"),
    _spec("arp.reply", "an ARP request for one of our addresses was answered",
          "repro.net.arp.ArpTable.handle_frame"),
    _spec("ip.unroutable", "a packet was dropped for want of a route",
          "repro.net.ip.IpStack._send_slow"),
    _spec("ip.no-handler", "an accepted packet named a protocol nobody "
          "registered",
          "repro.net.ip.IpStack.receive_frame/_deliver_up"),
    _spec("icmp.echo-reply", "an echo request was answered",
          "repro.net.icmp.IcmpLayer.handle_packet"),
    # ---------------------------------------------------------------- tcp
    _spec("tcp.segment_tx", "a connection emitted a segment (fields: "
          "conn — the live TcpConnection, valid only during the callback "
          "— and seq/ack/flags (int)/len/win)",
          "repro.tcp.connection.TcpConnection._fire_segment_tx", traced=False),
    _spec("tcp.retransmit", "a retransmission was decided (kind: rto — "
          "the timer fired, go-back-N follows; head — the earliest "
          "unacknowledged segment or FIN is resent on a fast retransmit "
          "or NewReno partial ack)",
          "repro.tcp.connection.TcpConnection", traced=False),
    _spec("tcp.deliver", "in-order bytes became readable "
          "(fields: off/len — the exactly-once delivery tap)",
          "repro.tcp.connection.TcpConnection", traced=False),
    _spec("tcp.accept", "a listener accepted a new connection",
          "repro.tcp.stack.TcpStack._accept", traced=False),
    _spec("tcp.rst", "an RST was emitted for a segment matching no endpoint",
          "repro.tcp.stack.TcpStack._send_rst_for"),
    _spec("tcp.state", "a connection changed state (fields: state)",
          "repro.tcp.connection.TcpConnection"),
    _spec("tcp.peer-fin", "the peer's FIN was first seen (fields: off)",
          "repro.tcp.connection.TcpConnection._check_fin"),
    _spec("tcp.rst-received", "an RST at RCV.NXT arrived (in SYN_SENT: "
          "one that acks our SYN)",
          "repro.tcp.connection.TcpConnection._check_rst/_handle_syn_sent"),
    _spec("tcp.window-probe", "one byte was sent into a zero window",
          "repro.tcp.connection.TcpConnection._on_persist_timeout"),
    _spec("tcp.give-up", "the retransmission limit was exceeded",
          "repro.tcp.connection.TcpConnection._on_rtx_timeout"),
    _spec("tcp.closed", "a connection reached CLOSED (fields: reason)",
          "repro.tcp.connection.TcpConnection._enter_closed"),
    # ------------------------------------------------------------- ST-TCP
    _spec("hb.send", "a heartbeat was transmitted (UDP and/or serial)",
          "repro.sttcp.heartbeat.HeartbeatService._tick"),
    _spec("hb.recv", "a heartbeat arrived on one link",
          "repro.sttcp.heartbeat.HeartbeatService._receive"),
    _spec("hb.state", "full heartbeat payload tap (fields: hb — the "
          "Heartbeat object with its per-connection progress counters)",
          "repro.sttcp.heartbeat.HeartbeatService._tick", traced=False),
    _spec("hb.miss", "a heartbeat link went stale (freshness transition)",
          "repro.sttcp.engine.SttcpEngine.check_links", traced=False),
    _spec("sttcp.retain", "the primary copied in-order client bytes into "
          "its retain buffer",
          "repro.sttcp.primary.ManagedPrimaryConn.tap", traced=False),
    _spec("detect.verdict", "a lag tracker's failure criterion fired",
          "repro.sttcp.detector.LagTracker.verdict", traced=False),
    _spec("detect.watchdog", "the application watchdog missed a deadline",
          "repro.apps.watchdog.ApplicationWatchdog"),
    # -------------------------------------------------------------- faults
    _spec("fault.inject", "the injector fired a scheduled fault",
          "repro.faults.injector.FaultInjector._fire"),
    _spec("fault.nic", "a NIC failure was injected or repaired",
          "repro.net.nic.Nic.fail/repair"),
    _spec("fault.link", "a cable or the serial link was cut or repaired "
          "(fields: state)",
          "repro.net.cable.Cable / repro.net.serial_link.SerialLink"),
    _spec("fault.host-down", "a host went silent: HW crash, OS crash or "
          "STONITH (fields: reason)",
          "repro.host.host.Host.power_off"),
    _spec("fault.os-crash", "a host's operating system crashed",
          "repro.host.osmodel.OperatingSystem.crash"),
    _spec("fault.app-crash", "an application crashed or hung "
          "(fields: cleanup)",
          "repro.host.app.Application.crash"),
    _spec("power.down-requested", "the power strip was told to cut a host "
          "(fields: target)",
          "repro.host.power.PowerStrip.power_down"),
    _spec("app.corruption", "a stream client read a byte that breaks the "
          "pattern (fields: at)",
          "repro.apps.streaming.StreamClient._on_data"),
]

# One probe per ST-TCP engine event kind (repro.sttcp.events.EventKind);
# SttcpEngine.emit fires ``sttcp.<kind>``, so the engine event vocabulary
# and the probe registry cannot drift (tests/obs/test_registry_sync.py
# asserts the mapping is exhaustive).
_ENGINE_EVENT_PROBES = {
    "hb-ip-link-down": "the IP heartbeat link was declared stale",
    "hb-serial-link-down": "the serial heartbeat link was declared stale",
    "hb-link-recovered": "a stale heartbeat link became fresh again",
    "peer-crash-detected": "both HB links silent: peer machine crashed "
                           "(Table 1 row 1)",
    "app-failure-detected": "application lag criteria met (Table 1 rows 2-3)",
    "nic-failure-detected": "NIC failure attributed to the peer "
                            "(Table 1 row 4)",
    "takeover": "the backup took the connections over",
    "non-ft-mode": "the primary carries on alone (backup declared failed)",
    "stonith": "the peer was powered down out-of-band",
    "conn-replicated": "a new service connection was announced to the backup",
    "fin-held": "a locally generated FIN/RST is being delayed (Sec. 4.2.2)",
    "fin-released": "a held FIN/RST was let out to the client",
    "fin-suppressed": "the backup suppressed a replica FIN",
    "fetch-requested": ("the backup asked the primary (or, with via=logger, "
                        "the stream logger) for missed bytes"),
    "fetch-recovered": "a missed-byte fetch completed",
    "unrecoverable": ("a connection is missing client bytes that neither "
                      "the primary nor the logger can re-supply (once per "
                      "connection)"),
    "retain-overflow": "the primary's retain buffer filled up",
    "ping-probing": "gateway-ping disambiguation started (Sec. 4.3)",
}
for _kind, _desc in _ENGINE_EVENT_PROBES.items():
    _ALL_PROBES.append(_spec(f"sttcp.{_kind}", _desc,
                             "repro.sttcp.engine.SttcpEngine.emit"))

#: name -> spec; the authoritative probe-point table.
PROBES: dict[str, ProbeSpec] = {spec.name: spec for spec in _ALL_PROBES}

if len(PROBES) != len(_ALL_PROBES):  # pragma: no cover - registry bug guard
    raise AssertionError("duplicate probe name in registry")
for _probe_spec in PROBES.values():  # registry self-consistency
    if _probe_spec.category not in CATEGORIES:  # pragma: no cover
        raise AssertionError(
            f"probe {_probe_spec.name} has unregistered category "
            f"{_probe_spec.category}")
