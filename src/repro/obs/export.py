"""Observation sessions and exporters.

:class:`ObsSession` attaches to a :class:`~repro.sim.world.World`'s probe
bus and accumulates three artifacts:

* a **counter/gauge/histogram snapshot** (always),
* a **per-connection TCP timeline** — seq/ack/cwnd over virtual time,
  one JSONL row per transmitted or retransmitted segment
  (``level="timeline"`` and up),
* a **pcap-style frame export** — one JSONL row per frame crossing the
  switch, with decoded IP/TCP/UDP/ICMP/ARP summaries
  (``level="frames"``).

Rows are *captured* when the probe fires and *decoded* when somebody asks
for them.  The two fixed-shape, high-volume rows — a TCP/IP frame and a
transmitted segment — are captured as one flat tuple of scalars and
immutable address objects, copied out of the pooled frame or the live
connection (never a reference to either: the frame is recycled and the
connection moves on as soon as the callback returns); everything else is
rare and is decoded on the spot.  :attr:`ObsSession.frames` and
:attr:`ObsSession.tcp_rows` turn the captures into the documented dict
rows, and :meth:`ObsSession.write` renders the fixed-shape captures
straight to their JSON text.

Four ``counters.json`` keys are not probes at all: ``nic.tx``, ``nic.rx``,
``eth.forward`` and ``eth.flood`` are what the world's NICs and switches
counted (their ``COUNTED`` attributes) between attach and detach.

Every export is deterministic: rows carry only virtual time and
seed-derived values, JSON keys are sorted, and row order is fire order —
so two runs with the same seed produce byte-identical files (the
determinism guard in ``tests/obs/test_export_determinism.py`` relies on
this).  Formats are documented in ``docs/observability.md``.
"""

from __future__ import annotations

import functools
import json
import os
from typing import Any, Callable, Iterable, Optional

from repro.net.frame import EthernetFrame
from repro.net.packet import IPPacket
from repro.obs.bus import ProbeEvent
from repro.obs.metrics import (MetricsRegistry, format_snapshot_json,
                               format_snapshot_text)
from repro.obs.registry import PROBES
from repro.tcp.congestion import DEFAULT_CC
from repro.tcp.segment import TcpFlags, TcpSegment
from repro.tcp.seq import seq_add, seq_sub

__all__ = ["ObsSession", "OBS_LEVELS", "describe_frame", "jsonl_line"]

#: Cumulative observation levels, cheapest first.
OBS_LEVELS = ("counters", "timeline", "frames")

#: Probes worth echoing into the scenario summary's event list.
_SUMMARY_PROBES = frozenset(
    ["fault.inject", "fault.nic", "fault.link", "fault.host-down",
     "fault.os-crash", "fault.app-crash", "power.down-requested",
     "app.corruption", "detect.verdict", "detect.watchdog", "hb.miss"]
    + [f"sttcp.{kind}" for kind in
       ("peer-crash-detected", "app-failure-detected",
        "nic-failure-detected", "takeover", "non-ft-mode", "stonith",
        "fin-held", "fin-released", "retain-overflow", "unrecoverable",
        "ping-probing")])

#: Probes whose every fire also bumps a derived ``*_total`` counter.
_TOTALS = {
    "eth.frame": "eth.frames_total",
    "tcp.segment_tx": "tcp.segments_sent_total",
    "tcp.retransmit": "tcp.retransmissions_total",
    "tcp.segment_rx": "tcp.segments_received_total",
    "hb.send": "hb.sent_total",
    "hb.recv": "hb.received_total",
    "sttcp.suppress": "sttcp.suppressed_segments_total",
}


def jsonl_line(row: dict) -> str:
    """One canonical JSONL row: sorted keys, compact, newline-terminated."""
    return json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"


def _layer_counts(world) -> dict[str, int]:
    """Every ``COUNTED`` attribute of the world's NICs and switches,
    summed by its counters.json key."""
    counts: dict[str, int] = {}
    for device in (*world.nics, *world.switches):
        for key, attr in device.COUNTED.items():
            counts[key] = counts.get(key, 0) + getattr(device, attr)
    return counts


# ------------------------------------------------------------- frame rows
#
# A captured TCP/IP frame is the flat tuple
#   (src, dst, ethertype, bytes,  ip src, ip dst, protocol, ttl,
#    sport, dport, seq, ack, flags (int), window, payload length)
# and the session prefixes (t, ingress).  _tcp_frame_body and
# _TCP_FRAME_JSON are its two renderings; tests/obs/test_lazy_rows.py
# holds them to each other.

def _capture_tcp_frame(frame: EthernetFrame) -> Optional[tuple]:
    """The scalars of a TCP-in-IP frame, or None for any other frame."""
    packet = frame.payload
    if isinstance(packet, IPPacket):
        segment = packet.payload
        if isinstance(segment, TcpSegment):
            return (frame.src, frame.dst, frame.ethertype, frame.size_bytes,
                    packet.src, packet.dst, packet.protocol, packet.ttl,
                    segment.src_port, segment.dst_port, segment.seq,
                    segment.ack, segment.flags, segment.window,
                    len(segment.payload))
    return None


def _tcp_frame_body(captured: tuple) -> dict:
    (src, dst, ethertype, size, ip_src, ip_dst, protocol, ttl,
     sport, dport, seq, ack, flags, window, length) = captured
    return {"src": str(src), "dst": str(dst), "type": ethertype,
            "bytes": size,
            "ip": {"src": str(ip_src), "dst": str(ip_dst),
                   "proto": protocol, "ttl": ttl},
            "tcp": {"sport": sport, "dport": dport, "seq": seq, "ack": ack,
                    "flags": TcpFlags.describe(flags), "win": window,
                    "len": length}}


_TCP_FRAME_JSON = (
    '{"bytes":%d,"dst":"%s","ingress":%s,'
    '"ip":{"dst":"%s","proto":%s,"src":"%s","ttl":%d},'
    '"src":"%s","t":%d,'
    '"tcp":{"ack":%d,"dport":%d,"flags":"%s","len":%d,"seq":%d,"sport":%d,'
    '"win":%d},"type":%s}\n')


def describe_frame(frame: EthernetFrame) -> dict:
    """Decode a frame into a JSON-ready dict (the pcap-row body)."""
    captured = _capture_tcp_frame(frame)
    if captured is not None:
        return _tcp_frame_body(captured)
    row: dict[str, Any] = {"src": str(frame.src), "dst": str(frame.dst),
                           "type": frame.ethertype,
                           "bytes": frame.size_bytes}
    payload = frame.payload
    if isinstance(payload, IPPacket):
        row["ip"] = {"src": str(payload.src), "dst": str(payload.dst),
                     "proto": payload.protocol, "ttl": payload.ttl}
        inner = payload.payload
        if payload.protocol == "udp":
            row["udp"] = {"sport": getattr(inner, "src_port", None),
                          "dport": getattr(inner, "dst_port", None),
                          "payload": type(getattr(inner, "payload",
                                                  None)).__name__,
                          "len": getattr(inner, "size_bytes", 0)}
        elif payload.protocol == "icmp":
            row["icmp"] = {"kind": type(inner).__name__,
                           "len": getattr(inner, "size_bytes", 0)}
    else:  # ARP and friends: duck-typed summary
        row["arp"] = {"op": getattr(payload, "op", type(payload).__name__),
                      "target": str(getattr(payload, "target_ip", ""))}
    return row


def _frame_row(captured) -> dict:
    """The documented ``frames.jsonl`` row of one capture."""
    if type(captured) is dict:
        return captured
    row = _tcp_frame_body(captured[2:])
    row["t"], row["ingress"] = captured[:2]
    return row


def _frames_text(captures: Iterable) -> str:
    """``frames.jsonl``: byte-for-byte ``jsonl_line`` of every row."""
    quote = functools.cache(json.dumps)
    lines = []
    for captured in captures:
        if type(captured) is dict:
            lines.append(jsonl_line(captured))
            continue
        (t, ingress, src, dst, ethertype, size, ip_src, ip_dst, protocol,
         ttl, sport, dport, seq, ack, flags, window, length) = captured
        lines.append(_TCP_FRAME_JSON % (
            size, dst, "null" if ingress is None else ingress,
            ip_dst, quote(protocol), ip_src, ttl, src, t,
            ack, dport, TcpFlags.describe(flags), length, seq, sport,
            window, quote(ethertype)))
    return "".join(lines)


# ---------------------------------------------------------- timeline rows
#
# A captured transmission is (t, conn name) + the values of exactly these
# keys: the segment's five ``tcp.segment_tx`` fields (flags as the int),
# then the sender state read off the live ``conn`` during the fire.  A row
# with one more key (``cc``, a non-default congestion controller) and
# every retransmission is decoded on the spot instead.

_TX_KEYS = ("seq", "ack", "flags", "len", "win", "cwnd", "flight", "off",
            "una", "nxt", "rcv_nxt", "mss", "ssthresh")


def _capture_tx(event: ProbeEvent) -> tuple:
    """``(t, conn name) + _TX_KEYS`` of one ``tcp.segment_tx`` fire."""
    f = event.fields
    conn, seq = f["conn"], f["seq"]
    cc, iss = conn.cc, conn.iss
    return (event.time, event.source, seq, f["ack"], f["flags"], f["len"],
            f["win"], cc.cwnd, conn.flight_size,
            seq_sub(seq, seq_add(iss, 1)) if iss is not None else None,
            conn.snd_una_off, conn.snd_nxt_off, conn.last_byte_received,
            conn.config.mss, cc.ssthresh)


_TX_JSON = (
    '{"ack":%d,"conn":%s,"cwnd":%d,"ev":"tx","flags":%s,"flight":%d,'
    '"len":%d,"mss":%d,"nxt":%d,"off":%s,"rcv_nxt":%d,"seq":%d,'
    '"ssthresh":%d,"t":%d,"una":%d,"win":%d}\n')


def _tcp_row(captured) -> dict:
    """The documented ``tcp_timeline.jsonl`` row of one capture."""
    if type(captured) is dict:
        return captured
    row = {"t": captured[0], "conn": captured[1], "ev": "tx"}
    row.update(zip(_TX_KEYS, captured[2:]))
    row["flags"] = TcpFlags.describe(row["flags"])
    return row


def _timeline_text(captures: Iterable) -> str:
    """``tcp_timeline.jsonl``: byte-for-byte ``jsonl_line`` of every row."""
    quote = functools.cache(json.dumps)
    lines = []
    for captured in captures:
        if type(captured) is dict:
            lines.append(jsonl_line(captured))
            continue
        (t, conn, seq, ack, flags, length, window, cwnd, flight, off,
         una, nxt, rcv_nxt, mss, ssthresh) = captured
        lines.append(_TX_JSON % (
            ack, quote(conn), cwnd, quote(TcpFlags.describe(flags)), flight,
            length, mss, nxt, "null" if off is None else off, rcv_nxt, seq,
            ssthresh, t, una, window))
    return "".join(lines)


class ObsSession:
    """One scenario's worth of observation, attached to a world's bus.

    Levels are cumulative: ``counters`` < ``timeline`` < ``frames``.  The
    session subscribes one pre-bound handler per registered probe —
    what a fire of that probe has to do is decided here, once, not per
    event — and detaching them (:meth:`detach`) restores the
    zero-overhead idle path.
    """

    def __init__(self, world, level: str = "frames"):
        if level not in OBS_LEVELS:
            raise ValueError(f"obs level {level!r} not in {OBS_LEVELS}")
        self.world = world
        self.level = level
        self.metrics = MetricsRegistry()
        self.events: list[dict] = []
        self._frames: list = []     # captures, see "frame rows" above
        self._tcp_rows: list = []   # captures, see "timeline rows" above
        self._last_hb_rx: Optional[int] = None
        self._subs = world.probes.attach(
            (probe, self._handler(probe)) for probe in PROBES)
        # What the layers had counted at attach; None once detached.
        self._layer_base: Optional[dict] = _layer_counts(world)

    def detach(self) -> None:
        """Stop observing (the collected data stays queryable)."""
        self._fold_layer_counts()
        self._layer_base = None
        self.world.probes.unsubscribe(*self._subs)
        self._subs.clear()

    @property
    def frames(self) -> list[dict]:
        """The ``frames.jsonl`` rows so far, decoded (a fresh list)."""
        return [_frame_row(captured) for captured in self._frames]

    @property
    def tcp_rows(self) -> list[dict]:
        """The ``tcp_timeline.jsonl`` rows so far, decoded (a fresh list)."""
        return [_tcp_row(captured) for captured in self._tcp_rows]

    # -------------------------------------------------------- accumulation
    #
    # Counters are created on a probe's first fire, not when its handler
    # is bound, so counters.json lists exactly the probes that fired.

    def _handler(self, probe: str) -> Callable[[ProbeEvent], None]:
        """The one callback this session attaches to ``probe``."""
        if probe == "eth.frame":
            return self._frame_handler()
        if probe == "tcp.segment_tx":
            return self._segment_tx_handler()
        metrics = self.metrics
        total = _TOTALS.get(probe)
        then = self._follow_up(probe)
        fired = derived = None

        def handle(event: ProbeEvent) -> None:
            nonlocal fired, derived
            if fired is None:
                fired = metrics.counter(probe)
                if total is not None:
                    derived = metrics.counter(total)
            fired.value += 1
            if derived is not None:
                derived.value += 1
            if then is not None:
                then(event)
        return handle

    def _follow_up(self, probe: str) -> Optional[Callable[[ProbeEvent], None]]:
        """What a fire of ``probe`` does besides being counted."""
        if probe == "tcp.retransmit" and self.level == "counters":
            return None
        return {"tcp.retransmit": self._keep_retransmit,
                "hb.recv": self._hb_interarrival,
                "sttcp.retain": self._retained,
                "sttcp.takeover": self._takeover,
                }.get(probe, self._summarize
                      if probe in _SUMMARY_PROBES else None)

    def _frame_handler(self) -> Callable[[ProbeEvent], None]:
        metrics = self.metrics
        keep = self._frames.append if self.level == "frames" else None
        fired = total = octets = None

        def handle(event: ProbeEvent) -> None:
            nonlocal fired, total, octets
            if fired is None:
                fired = metrics.counter("eth.frame")
                total = metrics.counter(_TOTALS["eth.frame"])
                octets = metrics.counter("eth.bytes_total")
            fields = event.fields
            frame = fields["frame"]
            fired.value += 1
            total.value += 1
            octets.inc(frame.size_bytes)
            if keep is not None:
                prefix = (event.time, fields.get("ingress"))
                captured = _capture_tcp_frame(frame)
                if captured is not None:
                    keep(prefix + captured)
                else:
                    row = describe_frame(frame)
                    row["t"], row["ingress"] = prefix
                    keep(row)
        return handle

    def _segment_tx_handler(self) -> Callable[[ProbeEvent], None]:
        metrics = self.metrics
        keep = self._tcp_rows.append if self.level != "counters" else None
        fired = total = octets = cwnd_bytes = None

        def handle(event: ProbeEvent) -> None:
            nonlocal fired, total, octets, cwnd_bytes
            if fired is None:
                fired = metrics.counter("tcp.segment_tx")
                total = metrics.counter(_TOTALS["tcp.segment_tx"])
                octets = metrics.counter("tcp.bytes_sent_total")
                cwnd_bytes = metrics.histogram("tcp.cwnd_bytes")
            fields = event.fields
            cc = fields["conn"].cc
            fired.value += 1
            total.value += 1
            octets.value += fields["len"]
            cwnd_bytes.observe(cc.cwnd)
            if keep is not None:
                captured = _capture_tx(event)
                if cc.name == DEFAULT_CC:
                    keep(captured)
                else:   # absent means the default (docs/congestion.md)
                    row = _tcp_row(captured)
                    row["cc"] = cc.name
                    keep(row)
        return handle

    def _keep_retransmit(self, event: ProbeEvent) -> None:
        row = {"t": event.time, "conn": event.source, "ev": "rtx"}
        row.update({k: _jsonable(v) for k, v in event.fields.items()})
        self._tcp_rows.append(row)

    def _hb_interarrival(self, event: ProbeEvent) -> None:
        now = event.time
        if self._last_hb_rx is not None:
            self.metrics.histogram("hb.interarrival_ns").observe(
                now - self._last_hb_rx)
        self._last_hb_rx = now

    def _retained(self, event: ProbeEvent) -> None:
        self.metrics.counter("sttcp.retained_bytes_total").inc(
            event.fields.get("len", 0))

    def _takeover(self, event: ProbeEvent) -> None:
        self.metrics.gauge("sttcp.takeover_at_ns").set(event.time)
        self._summarize(event)

    def _summarize(self, event: ProbeEvent) -> None:
        self.events.append({
            "t": event.time, "probe": event.probe, "source": event.source,
            "message": event.message,
            "fields": {k: _jsonable(v) for k, v in event.fields.items()}})

    # ----------------------------------------------------------- finishing

    def _fold_layer_counts(self) -> None:
        """Set each layer counter to what the devices counted since
        attach (idempotent; frozen once detached).  Like a probe that
        never fired, a count that did not move lists no key."""
        if self._layer_base is None:
            return
        for key, value in _layer_counts(self.world).items():
            moved = value - self._layer_base.get(key, 0)
            if moved:
                self.metrics.counter(key).value = moved

    def finalize(self, timeline=None, extra: Optional[dict] = None) -> None:
        """Fold end-of-run results in: the failover timeline's latencies
        become gauges (``sttcp.failover_latency_ns`` is the paper's
        headline number), the kernel totals are stamped and the layer
        counters are read."""
        self._fold_layer_counts()
        sim = self.world.sim
        self.metrics.gauge("sim.virtual_time_ns").set(sim.now)
        self.metrics.gauge("sim.events_processed_total").set(
            sim.events_processed)
        if timeline is not None:
            gauges = {
                "sttcp.fault_at_ns": timeline.fault_at,
                "sttcp.detected_at_ns": timeline.detected_at,
                "sttcp.detection_latency_ns": timeline.detection_latency_ns,
                "sttcp.failover_latency_ns": timeline.failover_time_ns,
                "sttcp.backoff_residue_ns": timeline.backoff_residue_ns,
            }
            for name, value in gauges.items():
                if value is not None:
                    self.metrics.gauge(name).set(value)
        if extra:
            for name, value in extra.items():
                self.metrics.gauge(name).set(value)

    def summary(self) -> dict:
        """The scenario-level summary: snapshot + notable events."""
        return {"level": self.level,
                "snapshot": self.metrics.snapshot(),
                "events": self.events}

    @staticmethod
    def gc_report() -> dict:
        """Interpreter-GC and recycle-pool counters
        (:func:`repro.sim.gcctl.stats`).  Process-local wall-clock-ish
        state — **never** part of the exported artifacts, which must stay
        byte-identical across runs; callers that want the churn picture
        (the allocation benchmark, capacity dashboards) fetch it
        explicitly."""
        from repro.sim import gcctl
        return gcctl.stats()

    # -------------------------------------------------------------- export

    def write(self, out_dir: str) -> dict[str, str]:
        """Write every artifact the level calls for; returns name->path.

        Always: ``counters.json`` and ``summary.txt``.  ``timeline`` adds
        ``tcp_timeline.jsonl``; ``frames`` adds ``frames.jsonl``.
        """
        os.makedirs(out_dir, exist_ok=True)
        paths: dict[str, str] = {}

        def _write(name: str, content: str) -> None:
            path = os.path.join(out_dir, name)
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(content)
            paths[name] = path

        snapshot = self.metrics.snapshot()
        _write("counters.json", format_snapshot_json(snapshot))
        _write("summary.txt", self._summary_text(snapshot))
        _write("summary.json", jsonl_line(self.summary()))
        if self.level in ("timeline", "frames"):
            _write("tcp_timeline.jsonl", _timeline_text(self._tcp_rows))
        if self.level == "frames":
            _write("frames.jsonl", _frames_text(self._frames))
        return paths

    def _summary_text(self, snapshot: dict) -> str:
        lines = [f"observability summary (level={self.level})", ""]
        lines.append(format_snapshot_text(snapshot).rstrip("\n"))
        if self.events:
            lines.append("")
            lines.append("events:")
            for ev in self.events:
                detail = " ".join(f"{k}={v}" for k, v in ev["fields"].items())
                lines.append(f"  [{ev['t'] / 1e9:12.6f}s] {ev['probe']:28s} "
                             f"{ev['source']:24s} {ev['message']}"
                             + (f" | {detail}" if detail else ""))
        return "\n".join(lines) + "\n"


def _jsonable(value: Any) -> Any:
    """Coerce a probe field into something JSON-serializable, stably."""
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)
