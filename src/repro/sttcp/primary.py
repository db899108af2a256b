"""The primary-side ST-TCP engine.

Responsibilities (paper Secs. 2-4):

* replicate every accepted service connection to the backup (ConnInit with
  the chosen ISN, so the backup's replica is byte-aligned);
* copy in-order client bytes into the *extra receive buffer* and release
  them only once the backup's heartbeat confirms receipt; serve the
  backup's missed-byte fetches from it (Sec. 2, Sec. 4.3);
* intercept application/OS socket closes and delay the FIN per the
  MaxDelayFIN disagreement rules (Sec. 4.2.2);
* detect backup failures — machine crash (both HB links silent), backup
  application lag (AppMaxLagBytes / AppMaxLagTime), backup NIC failure
  (IP HB down + client-byte/ack lag or gateway-ping asymmetry), retain
  buffer exhaustion — and respond by powering the backup down and running
  in non-fault-tolerant mode (Table 1).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.sim.timers import Timer
from repro.tcp.buffers import RetainBuffer
from repro.tcp.connection import TcpConnection
from repro.tcp.sockets import Listener, Socket
from repro.sttcp.control import (AppFailureNotice, ConnClosed, ConnInit,
                                 FetchReply, FetchRequest)
from repro.sttcp.engine import MODE_FT, MODE_NON_FT, ManagedConn, SttcpEngine
from repro.sttcp.events import EventKind
from repro.sttcp.state import ConnKey, ConnProgress, ROLE_PRIMARY

__all__ = ["PrimaryEngine", "ManagedPrimaryConn"]


class ManagedPrimaryConn(ManagedConn):
    """Primary-side per-connection replication state."""

    def __init__(self, engine: "PrimaryEngine", conn: TcpConnection,
                 socket: Socket, key: ConnKey):
        super().__init__(engine, conn, socket, key)
        config = engine.config
        world = engine.world
        self.retain = RetainBuffer(config.retain_buffer_bytes)
        self.taps = True
        self.created_at = world.sim.now
        self.init_resent = 0
        # The backup reports the client's acks too (Sec. 4.3).
        self.nic_ack_tracker = self.lag_tracker("nic-ack")
        self.nic_trackers = (self.nic_rx_tracker, self.nic_ack_tracker)
        # FIN/RST disagreement state (Sec. 4.2.2).
        self.fin_held = False
        self.fin_release_timer = Timer(world.sim, self._fin_deadline,
                                       label="max-delay-fin")
        self.backup_fin_at: Optional[int] = None

    def absorb(self, progress: ConnProgress) -> None:
        """Fold the backup's latest HB entry into every tracker, release
        the retained bytes it confirms, and note its FIN."""
        super().absorb(progress)
        # Release retained client bytes the backup has confirmed.
        self.retain.release_to(progress.last_byte_received)
        if progress.fin_generated and self.backup_fin_at is None:
            self.backup_fin_at = self.engine.world.sim.now
            if self.fin_held:
                # Both sides generated a FIN: normal socket closure.
                self.engine.release_fin(self, "backup also generated FIN")

    def tap(self, offset: int, data: bytes) -> None:
        """Copy in-order client bytes into the retain buffer (and let
        observers count them via the sttcp.retain probe)."""
        self.retain.append(offset, data)
        engine = self.engine
        engine.world.probes.fire("sttcp.retain", engine.name,
                                 off=offset, len=len(data))

    def intercept_close(self, socket: Socket) -> bool:
        """Socket.close() gate: implement the Sec. 4.2.2 decision table.

        Returns True when the close (FIN) is being *held*; False lets the
        socket proceed to a normal TCP close immediately.
        """
        engine = self.engine
        if engine.mode != MODE_FT:
            return False
        if self.close_requested:
            return True  # already being handled
        self.close_requested = True
        # "a server generating a FIN should immediately communicate the FIN
        # to the other server through the HB"
        engine.hb.send_now()
        if self.conn.peer_fin_consumed:
            # "the primary always immediately sends out a FIN if it has
            # already received a FIN from the client"
            return False
        if self.backup_fin_at is not None:
            # Both sides agree: normal closure, no delay.
            return False
        self.fin_held = True
        self.fin_release_timer.start(engine.config.max_delay_fin_ns)
        engine.emit(EventKind.FIN_HELD, key=self.key,
                    max_delay_s=engine.config.max_delay_fin_ns / 1e9)
        return True

    def intercept_abort(self, socket: Socket) -> bool:
        """Socket.abort() gate: RSTs get the same disagreement treatment."""
        engine = self.engine
        if engine.mode != MODE_FT:
            return False
        if self.abort_requested:
            return True
        self.abort_requested = True
        engine.hb.send_now()
        if self.peer_progress is not None and self.peer_progress.rst_generated:
            return False
        self.fin_held = True  # reuse the same hold machinery
        self.fin_release_timer.start(engine.config.max_delay_fin_ns)
        engine.emit(EventKind.FIN_HELD, key=self.key, kind="rst")
        return True

    def fold_nic(self, progress: ConnProgress) -> None:
        super().fold_nic(progress)
        self.nic_ack_tracker.update(self.conn.last_ack_received,
                                    progress.last_ack_received)

    def fin_verdict(self) -> Optional[str]:
        """Sec. 4.2.2 case "backup generates FIN, primary does not":
        resolved at MaxDelayFIN if no failure verdict arrived earlier."""
        if (self.backup_fin_at is not None and not self.close_requested
                and not self.conn.fin_queued
                and (self.engine.world.sim.now - self.backup_fin_at
                     >= self.engine.config.max_delay_fin_ns)):
            return "backup FIN without primary FIN, unresolved at MaxDelayFIN"
        return None

    # --------------------------------------------------- FIN gate internals

    def _fin_deadline(self) -> None:
        # MaxDelayFIN expired without a failure verdict: assume our own
        # behaviour is correct and let the FIN out (Sec. 4.2.2).
        self.engine.release_fin(self, "MaxDelayFIN expired")


class PrimaryEngine(SttcpEngine):
    """ST-TCP on the primary server."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, role=ROLE_PRIMARY, **kwargs)

    def _on_host_down(self) -> None:
        super()._on_host_down()
        for mc in self.conns.values():
            mc.fin_release_timer.stop()

    # -------------------------------------------------------------- accept

    def accepted(self, conn: TcpConnection, socket: Socket,
                 listener: Listener) -> None:
        """Replicate each service connection accepted in FT mode."""
        if conn.local_port != self.config.service_port or self.mode != MODE_FT:
            return
        key: ConnKey = (conn.remote_ip.value, conn.remote_port)
        mc = ManagedPrimaryConn(self, conn, socket, key)
        self.conns[key] = mc
        self.emit(EventKind.CONN_REPLICATED, key=key, isn=conn.iss)
        self._send_conn_init(mc)

    def _send_conn_init(self, mc: ManagedPrimaryConn) -> None:
        self.hb.send(ConnInit(mc.key, self.config.service_port, mc.conn.iss),
                     also_serial=True)

    # -------------------------------------------------------------- control

    def _on_control(self, message: Any) -> None:
        if isinstance(message, FetchRequest):
            self._serve_fetch(message)
        elif isinstance(message, AppFailureNotice):
            if message.location == "backup" and self.mode == MODE_FT:
                self.emit(EventKind.APP_FAILURE_DETECTED, location="backup",
                          symptom="application watchdog suspicion")
                self.enter_non_ft("backup application failure "
                                  "(watchdog report)")

    def watchdog_suspects(self, _app) -> None:
        """The local watchdog suspects the service application: record it
        and tell the backup, which takes over."""
        if self.mode == MODE_FT:
            self.emit(EventKind.APP_FAILURE_DETECTED, location="primary",
                      symptom="application watchdog suspicion (local)")
            self.hb.send(AppFailureNotice("primary"), also_serial=True)

    def _serve_fetch(self, request: FetchRequest) -> None:
        """Re-supply client bytes from the extra receive buffer."""
        mc = self.conns.get(request.key)
        if mc is None:
            self.hb.send(FetchReply(request.key, 0, unavailable=True))
            return
        for start, end in request.ranges:
            # Retained bytes are released only when the backup's own HB
            # confirms it holds them, so a range start below the retain
            # base means this request raced such a heartbeat: the backup
            # already has [start, base).  Serve the still-retained suffix
            # instead of declaring the whole range unavailable (which
            # would falsely mark the connection unrecoverable).
            offset = max(start, mc.retain.base_offset)
            while offset < end:
                length = min(self.config.fetch_chunk_bytes, end - offset)
                data = mc.retain.get_range(offset, length)
                if data is None or data == b"":
                    # Released or never received: cannot re-supply.
                    self.hb.send(FetchReply(request.key, offset,
                                            unavailable=True))
                    break
                self.hb.send(FetchReply(request.key, offset, data))
                offset += len(data)

    # ----------------------------------------------------------- FIN gate

    def release_fin(self, mc: ManagedPrimaryConn, reason: str) -> None:
        """Let a held FIN/RST out to the client."""
        if not mc.fin_held:
            return
        mc.fin_held = False
        mc.fin_release_timer.stop()
        self.emit(EventKind.FIN_RELEASED, key=mc.key, reason=reason)
        if mc.abort_requested:
            mc.conn.abort()
        else:
            mc.conn.close()

    # ---------------------------------------------------------- housekeeping

    def housekeep(self) -> None:
        self._check_retain_overflow()
        self._resend_missing_inits()
        self._collect_closed()

    def _check_retain_overflow(self) -> None:
        for mc in self.conns.values():
            if mc.retain.overflowed:
                # Sec. 4.3: the backup cannot catch up and the extra buffer
                # filled; the primary considers the backup failed.
                self.emit(EventKind.RETAIN_OVERFLOW, key=mc.key)
                self.enter_non_ft("retain buffer exhausted: backup "
                                  "cannot catch up")
                return

    def _resend_missing_inits(self) -> None:
        """Re-announce connections the backup's HBs never mention."""
        now = self.world.sim.now
        for mc in self.conns.values():
            if (mc.peer_progress is None and mc.init_resent < 5
                    and now - mc.created_at
                    > (mc.init_resent + 2) * self.config.hb_period_ns):
                mc.init_resent += 1
                self._send_conn_init(mc)

    def _collect_closed(self) -> None:
        for key in [k for k, mc in self.conns.items()
                    if mc.conn.state.value == "CLOSED"]:
            self.hb.send(ConnClosed(key))
            mc = self.conns.pop(key)
            mc.fin_release_timer.stop()

    # ------------------------------------------------------------ non-FT

    def enter_non_ft(self, reason: str) -> None:
        """Backup declared failed: shut it down, carry on alone (Table 1)."""
        if self.mode != MODE_FT:
            return
        self.mode = MODE_NON_FT
        self.emit(EventKind.NON_FT_MODE, reason=reason)
        self.stonith_peer(reason)
        self.stop()
        # Any held FINs are no longer waiting on backup agreement.
        for mc in list(self.conns.values()):
            if mc.fin_held:
                self.release_fin(mc, f"non-FT mode: {reason}")
            mc.conn.ext = None  # plain TCP from here: no retain, no FIN gate

    recover = enter_non_ft
