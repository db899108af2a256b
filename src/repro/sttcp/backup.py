"""The backup-side ST-TCP engine.

The backup *taps* the client→server traffic (the switch floods it, because
the client's static ARP maps serviceIP to a multicast Ethernet address) and
runs a full replica of each service connection:

* client segments destined to a not-yet-replicated flow are buffered until
  the primary's ConnInit names the ISN; the replica connection is then
  created with that ISN and the buffered segments are replayed;
* every segment the replica's TCP would send is *suppressed* — the engine
  holds the connection's output gate shut, so each one is counted and
  advances congestion/retransmission state while nothing reaches the wire
  (paper Sec. 2);
* client ACKs genuinely arrive (multicast) and drive the replica's send
  side; acks for bytes the slightly-lagging replica application has not
  produced yet are tolerated and applied on write;
* missed client bytes are fetched from the primary's extra receive buffer
  (Table 1 row 5);
* failures of the primary — machine crash, application lag, NIC failure —
  trigger takeover: power the primary down, open the gates, and let the
  already-running TCP machinery resume the stream with the same IP, port
  and sequence numbers (paper Secs. 2, 4).
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Any, Optional

from repro.net.addresses import IPAddress
from repro.sim.timers import Timer
from repro.tcp.connection import TcpConfig, TcpConnection
from repro.tcp.extension import TcpExtension
from repro.tcp.segment import TcpFlags, TcpSegment
from repro.tcp.sockets import Socket
from repro.sttcp.control import (AppFailureNotice, ConnClosed, ConnInit,
                                 FetchReply, FetchRequest)
from repro.sttcp.engine import MODE_ACTIVE, MODE_FT, ManagedConn, SttcpEngine
from repro.sttcp.events import EventKind
from repro.sttcp.state import ConnKey, ROLE_BACKUP

__all__ = ["BackupEngine", "ManagedBackupConn"]

# Bound on buffered pre-ConnInit segments per flow (SYN + early data).
_MAX_BUFFERED_SEGMENTS = 256

# A disposed replica's extension: gate shut, nothing counted.
_DISPOSED = TcpExtension()
_DISPOSED.gated = True


@lru_cache(maxsize=8)
def _tap_config(base: TcpConfig, extra_recv_bytes: int) -> TcpConfig:
    """``base`` with ``extra_recv_bytes`` more receive buffer — one frozen
    config shared by every replica connection built from the same base."""
    return replace(base, recv_buffer_bytes=base.recv_buffer_bytes
                   + extra_recv_bytes)


class ManagedBackupConn(ManagedConn):
    """Backup-side per-connection replica state."""

    def __init__(self, engine: "BackupEngine", conn: TcpConnection,
                 socket: Socket, key: ConnKey):
        super().__init__(engine, conn, socket, key)
        world = engine.world
        self.gated = True  # opened at takeover (paper Sec. 2)
        self.future_ack_off = 0
        self.suppressed_segments = 0
        self.suppressed_fin = False
        # Missed-byte fetch state.
        self.fetch_outstanding = False
        self.fetch_expected_end = 0
        self.fetch_lag_since: Optional[int] = None
        self.fetch_retry_timer = Timer(world.sim, self._fetch_retry,
                                       label="fetch-retry")
        self.recovering_via_logger = False
        self.unrecoverable = False
        self.last_round_at: Optional[int] = None
        # Post-takeover gap bookkeeping (output-commit handling).
        self.gap_since: Optional[int] = None
        self.last_logger_fetch = 0

    def hold(self, length: int, flags: int) -> None:
        """The replica's shut output gate: count one segment that did not
        leave."""
        self.suppressed_segments += 1
        engine = self.engine
        engine.world.segments_suppressed += 1
        if flags & TcpFlags.FIN and not self.suppressed_fin:
            self.suppressed_fin = True
            engine.emit(EventKind.FIN_SUPPRESSED, key=self.key)

    def accept_future_ack(self, ack_off: int) -> bool:
        """The client acked bytes the replica app has not written yet:
        remember, and apply on write."""
        self.future_ack_off = max(self.future_ack_off, ack_off)
        return True

    def intercept_abort(self, socket: Socket) -> bool:
        """The replica app reset: its RST goes behind the gate, and an HB
        tells the primary at once (Sec. 4.2.2), before the closed replica
        can be disposed of and drop out of the HBs."""
        engine = self.engine
        if engine.mode == MODE_FT:
            self.abort_requested = True
            engine.hb.send_now()
        return False

    def _fetch_retry(self) -> None:
        self.fetch_outstanding = False
        self.engine.check_fetch(self)


class BackupEngine(SttcpEngine):
    """ST-TCP on the backup server."""

    LOGGER_REPLY_PORT = 7080

    def __init__(self, *args, **kwargs):
        super().__init__(*args, role=ROLE_BACKUP, **kwargs)
        self._pending_segments: dict[ConnKey, list[TcpSegment]] = {}
        self.takeover_at: Optional[int] = None
        self.takeover_reason: Optional[str] = None
        # Optional logger fallback (paper Sec. 4.3: the output-commit
        # problem).  When set, bytes the primary can no longer re-supply
        # are fetched from the stream logger instead.
        self.logger_ip: Optional[IPAddress] = None
        self._logger_port: Optional[int] = None

    def use_logger(self, logger_ip, logger_port: int = 7079) -> None:
        """Enable the Sec. 4.3 logger fallback for missed-byte recovery."""
        self.logger_ip = IPAddress(logger_ip)
        self._logger_port = logger_port
        self.host.udp.bind(self.LOGGER_REPLY_PORT, self._on_logger_reply)

    def _on_host_down(self) -> None:
        super()._on_host_down()
        for mc in self.conns.values():
            mc.fetch_retry_timer.stop()

    # ---------------------------------------------------------- tap filter

    filters = True

    def filter_segment(self, segment: TcpSegment, src_ip: IPAddress,
                       dst_ip: IPAddress) -> bool:
        """Swallow service-port segments that have no replica yet.

        Once the replica exists, normal stack demux delivers segments to
        it; after takeover the filter disengages entirely so new clients
        are accepted by the (now live) listener."""
        if self.mode != MODE_FT:
            return False
        if segment.dst_port != self.config.service_port:
            return False
        if dst_ip != self.service_ip:
            return False
        if self.host.tcp.connection_by_value(
                dst_ip._value, segment.dst_port,
                src_ip._value, segment.src_port) is not None:
            return False
        key: ConnKey = (src_ip._value, segment.src_port)
        queue = self._pending_segments.setdefault(key, [])
        if len(queue) < _MAX_BUFFERED_SEGMENTS:
            queue.append(segment)
        return True

    # -------------------------------------------------------------- control

    def _on_control(self, message: Any) -> None:
        if isinstance(message, ConnInit):
            self._on_conn_init(message)
        elif isinstance(message, FetchReply):
            self._on_fetch_reply(message)
        elif isinstance(message, ConnClosed):
            self._dispose(message.key)
        elif isinstance(message, AppFailureNotice):
            if message.location == "primary" and self.mode == MODE_FT:
                self.emit(EventKind.APP_FAILURE_DETECTED, location="primary",
                          symptom="application watchdog report from primary")
                self.take_over("primary application failure "
                               "(watchdog report)")

    def watchdog_suspects(self, _app) -> None:
        """The local watchdog suspects the replica application: the
        primary is told to run non-FT."""
        if self.mode == MODE_FT:
            self.hb.send(AppFailureNotice("backup"), also_serial=True)

    def _on_conn_init(self, init: ConnInit) -> None:
        if self.mode != MODE_FT or init.key in self.conns:
            return  # duplicate (IP + serial copies) or engine not tapping
        client_ip = IPAddress(init.key[0])
        client_port = init.key[1]
        listener = self.host.tcp.find_listener(self.service_ip,
                                               init.service_port)
        if listener is None:
            # Replica application is not listening: nothing to attach the
            # connection to.  The primary will keep re-announcing; the app
            # may simply not have started yet.
            return
        # The replica must never trim client data the primary accepted:
        # the client obeys the *primary's* advertised window, and during
        # missed-byte recovery the backup's rcv_next can lag by up to the
        # retain allowance.  Size the tap connection's receive buffer to
        # cover both.
        tap_config = _tap_config(listener.config or self.host.tcp.config,
                                 self.config.retain_buffer_bytes)
        conn, socket = self.host.tcp.create_tap_connection(
            self.service_ip, init.service_port, client_ip, client_port,
            isn=init.isn, config=tap_config)
        mc = ManagedBackupConn(self, conn, socket, init.key)
        self.conns[init.key] = mc
        self.emit(EventKind.CONN_REPLICATED, key=init.key, isn=init.isn)
        # Hand the socket to the replica application, then replay whatever
        # the tap buffered (starting with the client's SYN).
        listener.accepted_count += 1
        listener.on_accept(socket)
        for segment in self._pending_segments.pop(init.key, []):
            conn.segment_arrived(segment)

    # --------------------------------------------------- missed-byte fetch

    def peer_progress_arrived(self, mc: ManagedBackupConn) -> None:
        self.check_fetch(mc)

    def check_fetch(self, mc: ManagedBackupConn) -> None:
        """Request client bytes the primary has but we are missing
        (Table 1 row 5: temporary local network failure at the backup)."""
        if self.mode != MODE_FT or mc.fetch_outstanding:
            return
        progress = mc.peer_progress
        if progress is None:
            return
        rcv = mc.conn.recv_buffer
        lagging = (progress.last_byte_received > rcv.rcv_next
                   or rcv.has_gap)
        if not lagging:
            mc.fetch_lag_since = None
            return
        now = self.world.sim.now
        if not rcv.has_gap:
            # Pure tail lag may just be data in flight: debounce one HB
            # period before asking.  A *hole* below buffered OOO data is
            # never in flight (the client has moved past it) — fetch it
            # immediately.
            if mc.fetch_lag_since is None:
                mc.fetch_lag_since = now
                return
            if now - mc.fetch_lag_since < self.config.hb_period_ns:
                return
        # Gaps below buffered out-of-order data, then the tail between our
        # highest buffered byte and the primary's high-water mark, up to
        # the per-round budget (catch-up bandwidth).
        budget = self.config.fetch_max_bytes_per_round
        ranges = []
        for start, end in rcv.missing_ranges():
            if budget <= 0:
                break
            take = min(end - start, budget)
            ranges.append((start, start + take))
            budget -= take
        tail_start = rcv.highest_received
        if progress.last_byte_received > tail_start and budget > 0:
            tail_end = min(progress.last_byte_received, tail_start + budget)
            ranges.append((tail_start, tail_end))
        if not ranges:
            return
        interval = self.config.fetch_round_interval_ns
        if interval and mc.last_round_at is not None:
            elapsed = now - mc.last_round_at
            if elapsed < interval:
                # Throttled: let the retry timer re-trigger this check.
                if not mc.fetch_retry_timer.armed:
                    mc.fetch_retry_timer.start(interval - elapsed)
                return
        mc.last_round_at = now
        mc.fetch_outstanding = True
        mc.fetch_expected_end = max(end for _start, end in ranges)
        mc.fetch_retry_timer.start(self.config.fetch_retry_ns)
        self.emit(EventKind.FETCH_REQUESTED, key=mc.key,
                  ranges=tuple(ranges))
        self.hb.send(FetchRequest(mc.key, tuple(ranges)))

    def _on_fetch_reply(self, reply: FetchReply) -> None:
        mc = self.conns.get(reply.key)
        if mc is None:
            return
        if reply.unavailable:
            # Paper Sec. 4.3: bytes already acked to the client and gone
            # from the primary — unrecoverable for this connection.
            mc.fetch_retry_timer.stop()
            mc.fetch_outstanding = False
            self._declare_unrecoverable(
                mc, "primary cannot re-supply missed bytes")
            return
        before = mc.conn.recv_buffer.rcv_next
        mc.conn.inject_stream_bytes(reply.offset, reply.data)
        after = mc.conn.recv_buffer.rcv_next
        if after > before:
            self.emit(EventKind.FETCH_RECOVERED, key=reply.key,
                      offset=reply.offset, bytes=len(reply.data),
                      advanced=after - before)
        mc.fetch_lag_since = None
        # The round completes when the last requested byte is on board;
        # the retry timer backstops lost replies.
        if mc.conn.recv_buffer.highest_received >= mc.fetch_expected_end:
            mc.fetch_retry_timer.stop()
            mc.fetch_outstanding = False
            self.check_fetch(mc)

    # ----------------------------------------------------------- detection

    def _tick(self) -> None:
        if self.mode == MODE_ACTIVE:
            self._manage_post_takeover_gaps()
        else:
            super()._tick()

    def housekeep(self) -> None:
        self._collect_closed()

    def _collect_closed(self) -> None:
        for key in [k for k, mc in self.conns.items()
                    if mc.conn.state.value == "CLOSED"]:
            self._dispose(key)

    def _dispose(self, key: ConnKey) -> None:
        mc = self.conns.pop(key, None)
        if mc is not None:
            mc.fetch_retry_timer.stop()
            if mc.conn.state.value != "CLOSED":
                # Drop the replica quietly: its RST stays behind a shut
                # gate that counts nothing — it is not output suppressed
                # for a live peer.
                mc.conn.ext = _DISPOSED
                mc.conn.abort()
        self._pending_segments.pop(key, None)

    # ------------------------------------------------------------ takeover

    def take_over(self, reason: str) -> None:
        """Become the live server (Table 1 recovery action).

        Order per paper Sec. 2: power the primary down *first* (no dual
        active servers), then stop suppressing output.  By default the TCP
        stream restarts at the next (backed-off) retransmission — exactly
        the behaviour Demo 2 measures; ``kick_on_takeover`` forces an
        immediate retransmit instead.
        """
        if self.mode != MODE_FT:
            return
        self.mode = MODE_ACTIVE
        self.takeover_at = self.world.sim.now
        self.takeover_reason = reason
        self.stonith_peer(reason)
        unrecoverable = []
        for mc in self.conns.values():
            gap = (mc.peer_progress is not None
                   and mc.peer_progress.last_byte_received
                   > mc.conn.recv_buffer.rcv_next)
            if gap or mc.conn.recv_buffer.has_gap:
                if self.logger_ip is not None:
                    # Sec. 4.3 extension: recover the acked-but-missed
                    # bytes from the stream logger, then go live.
                    mc.recovering_via_logger = True
                    self._fetch_from_logger(mc)
                    continue
                # Paper Sec. 4.3: primary died while we were still missing
                # bytes it had acked — unrecoverable for this connection.
                unrecoverable.append(mc)
                continue
            mc.gated = False
            if self.config.kick_on_takeover:
                mc.conn.kick_output()
        self.emit(EventKind.TAKEOVER, reason=reason,
                  connections=len(self.conns),
                  unrecoverable=len(unrecoverable))
        for mc in unrecoverable:
            self._declare_unrecoverable(
                mc, "missed bytes unavailable after primary crash")
            mc.gated = False
            mc.conn.abort()
        self.hb.stop()
        self._stop_probing()
        self.host.tcp.ext = None  # new clients reach the live listener

    recover = take_over

    def _manage_post_takeover_gaps(self) -> None:
        """After takeover, a hole below the dead primary's ack point can
        never be filled by client retransmission (the client's snd_una is
        past it).  With a logger we re-supply it; without one, the paper
        classes the connection as unrecoverable once the hole persists."""
        now = self.world.sim.now
        for mc in list(self.conns.values()):
            if mc.conn.state.value == "CLOSED":
                continue
            rcv = mc.conn.recv_buffer
            hole = (rcv.has_gap
                    or mc.conn.peer_data_high > rcv.highest_received
                    or mc.recovering_via_logger)
            if not hole:
                mc.gap_since = None
                continue
            if mc.gap_since is None:
                mc.gap_since = now
            if self.logger_ip is not None:
                if now - mc.last_logger_fetch >= self.config.fetch_retry_ns:
                    mc.last_logger_fetch = now
                    self._fetch_from_logger(mc)
            elif now - mc.gap_since >= self.config.unrecoverable_gap_ns:
                self._declare_unrecoverable(
                    mc, "receive gap below the dead primary's ack point "
                        "(output-commit problem)")
                mc.conn.abort()

    def _declare_unrecoverable(self, mc: ManagedBackupConn,
                               reason: str) -> None:
        """Paper Sec. 4.3: bytes the client will not resend are gone —
        said once per connection, however many replies or ticks find it."""
        if not mc.unrecoverable:
            mc.unrecoverable = True
            self.emit(EventKind.UNRECOVERABLE, key=mc.key, reason=reason)

    # ------------------------------------------------- logger fallback

    def _fetch_from_logger(self, mc: ManagedBackupConn) -> None:
        """Ask the stream logger for everything we are missing."""
        rcv = mc.conn.recv_buffer
        ranges = list(rcv.missing_ranges())
        target = max(
            mc.peer_progress.last_byte_received
            if mc.peer_progress is not None else rcv.rcv_next,
            mc.conn.peer_data_high)
        if target > rcv.highest_received:
            ranges.append((rcv.highest_received, target))
        if not ranges:
            self._finish_logger_recovery(mc)
            return
        self.emit(EventKind.FETCH_REQUESTED, key=mc.key,
                  ranges=tuple(ranges), via="logger")
        self.host.udp.send(self.logger_ip, self._logger_port,
                           self.LOGGER_REPLY_PORT,
                           FetchRequest(mc.key, tuple(ranges)),
                           src_ip=self.local_ip)

    def _on_logger_reply(self, payload, _src_ip, _src_port) -> None:
        if not isinstance(payload, FetchReply):
            return
        mc = self.conns.get(payload.key)
        if mc is None:
            return
        if payload.unavailable:
            self._declare_unrecoverable(
                mc, "logger cannot re-supply missed bytes")
            if mc.recovering_via_logger:
                mc.recovering_via_logger = False
                mc.gated = False
                mc.conn.abort()
            return
        before = mc.conn.recv_buffer.rcv_next
        mc.conn.inject_stream_bytes(payload.offset, payload.data)
        after = mc.conn.recv_buffer.rcv_next
        if after > before:
            self.emit(EventKind.FETCH_RECOVERED, key=payload.key,
                      offset=payload.offset, bytes=len(payload.data),
                      advanced=after - before, via="logger")
            if not mc.recovering_via_logger:
                # Connection already live: tell the client where we are.
                mc.conn.kick_output()
        self._finish_logger_recovery(mc)

    def _finish_logger_recovery(self, mc: ManagedBackupConn) -> None:
        """Once the stream is whole again, let the replica go live (if a
        takeover was waiting on this recovery)."""
        if not mc.recovering_via_logger:
            return
        rcv = mc.conn.recv_buffer
        target = (mc.peer_progress.last_byte_received
                  if mc.peer_progress is not None else rcv.rcv_next)
        if rcv.has_gap or rcv.rcv_next < target:
            return  # more replies still in flight
        mc.recovering_via_logger = False
        mc.gated = False
        mc.conn.kick_output()
        self.emit(EventKind.TAKEOVER, key=mc.key,
                  reason="logger recovery complete", connections=1,
                  unrecoverable=0)
