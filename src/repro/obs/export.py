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
transmitted segment — are captured as one fixed-width row of int64s in a
:class:`~repro.obs.metrics.PackedRows` history, copied out of the frame
or the live connection (never a reference to either: a packed row is a
fraction of the frame's wrapper chain, and the connection moves on as
soon as the callback returns).
Addresses are stored by their integer value, the ethertype, the IP
protocol and the connection name by a per-session code, and ``None`` by
:data:`_NONE`.  Everything else is rare: it is decoded on the spot and
kept, at its place in fire order, as its ``jsonl_line`` text.
:attr:`ObsSession.frames` and :attr:`ObsSession.tcp_rows` turn the
captures into the documented dict rows, and :meth:`ObsSession.write`
streams the fixed-shape captures straight to their JSON text, a line at
a time.

Eight ``counters.json`` keys are not probes at all: ``nic.tx``,
``nic.rx``, ``eth.forward`` and ``eth.flood`` are what the world's NICs
and switches counted, and ``tcp.segment_rx``,
``tcp.segments_received_total``, ``sttcp.suppress`` and
``sttcp.suppressed_segments_total`` what the world itself counted (each
one's ``COUNTED`` attribute), between attach and detach.

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
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.net.addresses import IPAddress, MacAddress
from repro.net.frame import EthernetFrame
from repro.net.packet import IPPacket
from repro.obs.bus import ProbeEvent
from repro.obs.metrics import (MetricsRegistry, PackedRows,
                               format_snapshot_json, format_snapshot_text)
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
    "hb.send": "hb.sent_total",
    "hb.recv": "hb.received_total",
}

#: What a packed row stores for ``None`` (no ingress port, no ISN yet).
_NONE = -1 << 63


def jsonl_line(row: dict) -> str:
    """One canonical JSONL row: sorted keys, compact, newline-terminated."""
    return json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"


def _layer_counts(world) -> dict[str, int]:
    """Every ``COUNTED`` attribute of the world's NICs and switches and
    of the world itself, summed by its counters.json key."""
    counts: dict[str, int] = {}
    for device in (*world.nics, *world.switches, world):
        for key, attr in device.COUNTED.items():
            counts[key] = counts.get(key, 0) + getattr(device, attr)
    return counts


class _Codes(dict):
    """A per-session code table: each distinct value (an ethertype, an IP
    protocol, a connection name) gets the next small int the first time
    it is looked up, and ``names[code]`` gives the value back."""

    def __init__(self):
        super().__init__()
        self.names: list = []

    def __missing__(self, value) -> int:
        code = self[value] = len(self.names)
        self.names.append(value)
        return code


# ------------------------------------------------------------- frame rows
#
# A packed TCP/IP frame row is, in this order,
#   (t, ingress, src, dst, ethertype, bytes,  ip src, ip dst, protocol,
#    ttl,  sport, dport, seq, ack, flags (int), window, payload length)
# with the addresses as their integer values and ethertype and protocol
# as codes.  _decoded_frames gives the fields back as values, and
# _tcp_frame_body and _TCP_FRAME_JSON are their two renderings;
# tests/obs/test_lazy_rows.py holds them to each other.

_FRAME_FIELDS = 17


def _decoded_frames(rows: PackedRows, names: list) -> Iterator:
    """Every captured frame row with its values decoded: the packed ones
    as tuples in packed field order, the rest as the text they are."""
    mac = functools.cache(lambda value: str(MacAddress(value)))
    ip = functools.cache(lambda value: str(IPAddress(value)))
    for row in rows:
        if type(row) is str:
            yield row
            continue
        (t, ingress, src, dst, ethertype, size, ip_src, ip_dst, protocol,
         ttl, *tcp) = row
        yield (t, None if ingress == _NONE else ingress, mac(src), mac(dst),
               names[ethertype], size, ip(ip_src), ip(ip_dst),
               names[protocol], ttl, *tcp)


def _tcp_frame_body(src, dst, ethertype, size, ip_src, ip_dst, protocol, ttl,
                    sport, dport, seq, ack, flags, window, length) -> dict:
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
    packet = frame.payload
    if not isinstance(packet, IPPacket):  # ARP and friends: duck-typed
        return {"src": str(frame.src), "dst": str(frame.dst),
                "type": frame.ethertype, "bytes": frame.size_bytes,
                "arp": {"op": getattr(packet, "op", type(packet).__name__),
                        "target": str(getattr(packet, "target_ip", ""))}}
    inner = packet.payload
    if isinstance(inner, TcpSegment):
        return _tcp_frame_body(
            frame.src, frame.dst, frame.ethertype, frame.size_bytes,
            packet.src, packet.dst, packet.protocol, packet.ttl,
            inner.src_port, inner.dst_port, inner.seq, inner.ack,
            inner.flags, inner.window, len(inner.payload))
    row: dict[str, Any] = {"src": str(frame.src), "dst": str(frame.dst),
                           "type": frame.ethertype,
                           "bytes": frame.size_bytes,
                           "ip": {"src": str(packet.src),
                                  "dst": str(packet.dst),
                                  "proto": packet.protocol,
                                  "ttl": packet.ttl}}
    if packet.protocol == "udp":
        row["udp"] = {"sport": getattr(inner, "src_port", None),
                      "dport": getattr(inner, "dst_port", None),
                      "payload": type(getattr(inner, "payload",
                                              None)).__name__,
                      "len": getattr(inner, "size_bytes", 0)}
    elif packet.protocol == "icmp":
        row["icmp"] = {"kind": type(inner).__name__,
                       "len": getattr(inner, "size_bytes", 0)}
    return row


def _frame_row(decoded) -> dict:
    """The documented ``frames.jsonl`` row of one decoded capture."""
    if type(decoded) is str:
        return json.loads(decoded)
    row = _tcp_frame_body(*decoded[2:])
    row["t"], row["ingress"] = decoded[:2]
    return row


def _frames_lines(decoded_rows: Iterable) -> Iterator[str]:
    """``frames.jsonl``, a line at a time: byte-for-byte ``jsonl_line``
    of every row."""
    quote = functools.cache(json.dumps)
    for decoded in decoded_rows:
        if type(decoded) is str:
            yield decoded
            continue
        (t, ingress, src, dst, ethertype, size, ip_src, ip_dst, protocol,
         ttl, sport, dport, seq, ack, flags, window, length) = decoded
        yield _TCP_FRAME_JSON % (
            size, dst, "null" if ingress is None else ingress,
            ip_dst, quote(protocol), ip_src, ttl, src, t,
            ack, dport, TcpFlags.describe(flags), length, seq, sport,
            window, quote(ethertype))


# ---------------------------------------------------------- timeline rows
#
# A packed transmission row is (t, conn name code) + the values of exactly
# these keys: the segment's five ``tcp.segment_tx`` fields (flags as the
# int), then the sender state read off the live ``conn`` during the fire.
# A row with one more key (``cc``, a non-default congestion controller)
# and every retransmission is decoded on the spot and kept as text.

_TX_KEYS = ("seq", "ack", "flags", "len", "win", "cwnd", "flight", "off",
            "una", "nxt", "rcv_nxt", "mss", "ssthresh")
_TX_OFF = 2 + _TX_KEYS.index("off")


def _decoded_tx(row: tuple, names: list) -> tuple:
    """A packed transmission row with the name and ``off`` decoded."""
    row = list(row)
    row[1] = names[row[1]]
    if row[_TX_OFF] == _NONE:
        row[_TX_OFF] = None
    return tuple(row)


def _decoded_timeline(rows: PackedRows, names: list) -> Iterator:
    """Every captured timeline row: the packed ones decoded as by
    :func:`_decoded_tx`, the rest as the text they are."""
    for row in rows:
        yield row if type(row) is str else _decoded_tx(row, names)


_TX_JSON = (
    '{"ack":%d,"conn":%s,"cwnd":%d,"ev":"tx","flags":%s,"flight":%d,'
    '"len":%d,"mss":%d,"nxt":%d,"off":%s,"rcv_nxt":%d,"seq":%d,'
    '"ssthresh":%d,"t":%d,"una":%d,"win":%d}\n')


def _tcp_row(decoded) -> dict:
    """The documented ``tcp_timeline.jsonl`` row of one decoded capture."""
    if type(decoded) is str:
        return json.loads(decoded)
    row = {"t": decoded[0], "conn": decoded[1], "ev": "tx"}
    row.update(zip(_TX_KEYS, decoded[2:]))
    row["flags"] = TcpFlags.describe(row["flags"])
    return row


def _timeline_lines(decoded_rows: Iterable) -> Iterator[str]:
    """``tcp_timeline.jsonl``, a line at a time: byte-for-byte
    ``jsonl_line`` of every row."""
    quote = functools.cache(json.dumps)
    for decoded in decoded_rows:
        if type(decoded) is str:
            yield decoded
            continue
        (t, conn, seq, ack, flags, length, window, cwnd, flight, off,
         una, nxt, rcv_nxt, mss, ssthresh) = decoded
        yield _TX_JSON % (
            ack, quote(conn), cwnd, quote(TcpFlags.describe(flags)), flight,
            length, mss, nxt, "null" if off is None else off, rcv_nxt, seq,
            ssthresh, t, una, window)


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
        self._frames = PackedRows(_FRAME_FIELDS)   # see "frame rows"
        self._tcp_rows = PackedRows(2 + len(_TX_KEYS))   # "timeline rows"
        self._codes = _Codes()
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
        return [_frame_row(decoded) for decoded
                in _decoded_frames(self._frames, self._codes.names)]

    @property
    def tcp_rows(self) -> list[dict]:
        """The ``tcp_timeline.jsonl`` rows so far, decoded (a fresh list)."""
        return [_tcp_row(decoded) for decoded
                in _decoded_timeline(self._tcp_rows, self._codes.names)]

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
        rows = self._frames if self.level == "frames" else None
        if rows is not None:
            extend, room = rows.open()
            code = self._codes
        fired = total = octets = None

        def handle(event: ProbeEvent) -> None:
            nonlocal fired, total, octets, extend, room
            if fired is None:
                fired = metrics.counter("eth.frame")
                total = metrics.counter(_TOTALS["eth.frame"])
                octets = metrics.counter("eth.bytes_total")
            fields = event.fields
            frame = fields["frame"]
            fired.value += 1
            total.value += 1
            octets.inc(frame.size_bytes)
            if rows is None:
                return
            ingress = fields.get("ingress")
            packet = frame.payload
            if (isinstance(packet, IPPacket)
                    and isinstance(packet.payload, TcpSegment)):
                # Packed here, not in a helper: this runs once per frame.
                segment = packet.payload
                extend((event.time, _NONE if ingress is None else ingress,
                        frame.src._value, frame.dst._value,
                        code[frame.ethertype], frame.size_bytes,
                        packet.src._value, packet.dst._value,
                        code[packet.protocol], packet.ttl,
                        segment.src_port, segment.dst_port, segment.seq,
                        segment.ack, segment.flags, segment.window,
                        len(segment.payload)))
                room -= 1
                if not room:
                    extend, room = rows.open()
            else:
                row = describe_frame(frame)
                row["t"], row["ingress"] = event.time, ingress
                rows.keep(jsonl_line(row))
        return handle

    def _segment_tx_handler(self) -> Callable[[ProbeEvent], None]:
        metrics = self.metrics
        rows = self._tcp_rows if self.level != "counters" else None
        if rows is not None:
            extend, room = rows.open()
            code = self._codes
        fired = total = octets = cwnd_bytes = None

        def handle(event: ProbeEvent) -> None:
            nonlocal fired, total, octets, cwnd_bytes, extend, room
            if fired is None:
                fired = metrics.counter("tcp.segment_tx")
                total = metrics.counter(_TOTALS["tcp.segment_tx"])
                octets = metrics.counter("tcp.bytes_sent_total")
                cwnd_bytes = metrics.histogram("tcp.cwnd_bytes")
            fields = event.fields
            conn = fields["conn"]
            cc = conn.cc
            fired.value += 1
            total.value += 1
            octets.value += fields["len"]
            cwnd_bytes.observe(cc.cwnd)
            if rows is None:
                return
            seq, iss = fields["seq"], conn.iss
            packed = (event.time, code[event.source], seq, fields["ack"],
                      fields["flags"], fields["len"], fields["win"], cc.cwnd,
                      conn.flight_size,
                      _NONE if iss is None else seq_sub(seq, seq_add(iss, 1)),
                      conn.snd_una_off, conn.snd_nxt_off,
                      conn.last_byte_received, conn.config.mss, cc.ssthresh)
            if cc.name == DEFAULT_CC:
                extend(packed)
                room -= 1
                if not room:
                    extend, room = rows.open()
            else:   # absent means the default (docs/congestion.md)
                row = _tcp_row(_decoded_tx(packed, code.names))
                row["cc"] = cc.name
                rows.keep(jsonl_line(row))
        return handle

    def _keep_retransmit(self, event: ProbeEvent) -> None:
        row = {"t": event.time, "conn": event.source, "ev": "rtx"}
        row.update({k: _jsonable(v) for k, v in event.fields.items()})
        self._tcp_rows.keep(jsonl_line(row))

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
        """Interpreter-GC counters (:func:`repro.sim.gcctl.stats`).
        Process-local wall-clock-ish state — **never** part of the
        exported artifacts, which must stay byte-identical across runs;
        callers that want the churn picture (the allocation benchmark,
        capacity dashboards) fetch it explicitly."""
        from repro.sim import gcctl
        return gcctl.stats()

    # -------------------------------------------------------------- export

    def write(self, out_dir: str) -> dict[str, str]:
        """Write every artifact the level calls for; returns name->path.

        Always: ``counters.json`` and ``summary.txt``.  ``timeline`` adds
        ``tcp_timeline.jsonl``; ``frames`` adds ``frames.jsonl``.  The
        two JSONL files are streamed a line at a time, never built whole.
        """
        os.makedirs(out_dir, exist_ok=True)
        paths: dict[str, str] = {}

        def _write(name: str, lines: Iterable[str]) -> None:
            path = os.path.join(out_dir, name)
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(lines)
            paths[name] = path

        snapshot = self.metrics.snapshot()
        _write("counters.json", [format_snapshot_json(snapshot)])
        _write("summary.txt", [self._summary_text(snapshot)])
        _write("summary.json", [jsonl_line(self.summary())])
        if self.level in ("timeline", "frames"):
            _write("tcp_timeline.jsonl", _timeline_lines(
                _decoded_timeline(self._tcp_rows, self._codes.names)))
        if self.level == "frames":
            _write("frames.jsonl", _frames_lines(
                _decoded_frames(self._frames, self._codes.names)))
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
