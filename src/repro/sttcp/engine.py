"""Shared machinery for the primary and backup ST-TCP engines.

Each server runs one engine.  The base class owns the plumbing common to
both roles: the dual-link heartbeat service (which also carries the
control messages), the gateway-ping scoreboard for NIC-failure
disambiguation (Sec. 4.3), the periodic detector tick that turns Table
1's one :func:`~repro.sttcp.detector.classify` into the role's recovery,
and STONITH.  :class:`ManagedConn` is what both roles keep per replicated
connection: the peer's latest progress and the lag trackers it feeds.
Both are the TCP extension (:mod:`repro.tcp.extension`): the engine is
its host's ``TcpStack.ext``, each managed connection its ``conn.ext``.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.net.addresses import IPAddress
from repro.net.icmp import Pinger
from repro.net.serial_link import SerialPort
from repro.sim.core import millis
from repro.sim.timers import PeriodicTimer
from repro.sim.world import World
from repro.host.host import Host
from repro.host.power import PowerStrip
from repro.tcp.connection import TcpConnection
from repro.tcp.extension import TcpExtension
from repro.tcp.sockets import Socket
from repro.sttcp.config import SttcpConfig
from repro.sttcp.detector import LagTracker, PingScoreboard, Verdict, classify
from repro.sttcp.events import EngineEventLog, EventKind
from repro.sttcp.heartbeat import HeartbeatService
from repro.sttcp.state import (ConnKey, ConnProgress, Heartbeat, ROLE_BACKUP,
                               ROLE_PRIMARY)

__all__ = ["SttcpEngine", "ManagedConn", "MODE_FT", "MODE_NON_FT",
           "MODE_ACTIVE", "MODE_STOPPED"]

MODE_FT = "fault-tolerant"      # normal replicated operation
MODE_NON_FT = "non-fault-tolerant"  # primary alone (backup declared failed)
MODE_ACTIVE = "active"          # backup after takeover
MODE_STOPPED = "stopped"        # engine's own host is down

#: detector -> (event, symptom as emitted, recovery reason); ``{peer}`` is
#: the failed peer's role, ``{symptom}`` the verdict's.
_RESPONSES = {
    "hb-silence": (EventKind.PEER_CRASH_DETECTED, "{symptom}",
                   "{peer} HB failure on both links"),
    "nic-lag": (EventKind.NIC_FAILURE_DETECTED, "{symptom}",
                "{peer} NIC failure: {symptom}"),
    "ping-asymmetry": (EventKind.NIC_FAILURE_DETECTED, "{peer} {symptom}",
                       "{peer} NIC failure: gateway ping asymmetry"),
    "app-lag": (EventKind.APP_FAILURE_DETECTED, "{symptom}",
                "{peer} application failure: {symptom}"),
    "fin-disagreement": (EventKind.APP_FAILURE_DETECTED, "{symptom}",
                         "{peer} FIN disagreement at MaxDelayFIN"),
}


class ManagedConn(TcpExtension):
    """One replicated connection: the peer's progress and the trackers
    that watch it (Sec. 4.2.1 app lag, Sec. 4.3 client-byte lag).  It is
    the connection's ``ext`` from replication until non-FT mode."""

    # The application asked to close / abort (Sec. 4.2.2).  The primary
    # intercepts both; the backup notes its replica's abort.
    close_requested = False
    abort_requested = False

    def __init__(self, engine: "SttcpEngine", conn: TcpConnection,
                 socket: Socket, key: ConnKey):
        self.engine = engine
        self.conn = conn
        self.socket = socket
        self.key = key
        conn.ext = self
        self.peer_progress: Optional[ConnProgress] = None
        self.read_tracker = self.lag_tracker("app-read")
        self.write_tracker = self.lag_tracker("app-write")
        # Client bytes the peer reports receiving vs what we received.
        self.nic_rx_tracker = self.lag_tracker("nic-rx")
        self.app_trackers = (self.read_tracker, self.write_tracker)
        self.nic_trackers: tuple[LagTracker, ...] = (self.nic_rx_tracker,)

    def lag_tracker(self, kind: str) -> LagTracker:
        """An ``app-*`` or ``nic-*`` tracker with that family's thresholds."""
        config = self.engine.config
        if kind.startswith("app-"):
            limits = (config.app_max_lag_bytes, config.app_max_lag_time_ns,
                      config.app_lag_confirm_ns)
        else:
            limits = (config.nic_max_lag_bytes, config.nic_max_lag_time_ns,
                      config.nic_lag_confirm_ns)
        return LagTracker(self.engine.world, *limits,
                          name=f"{self.key}:{kind}")

    def progress(self) -> ConnProgress:
        """Snapshot of the live connection's HB progress counters."""
        conn = self.conn
        return ConnProgress(
            key=self.key,
            last_byte_received=conn.last_byte_received,
            last_ack_received=conn.last_ack_received,
            last_app_byte_written=conn.last_app_byte_written,
            last_app_byte_read=conn.last_app_byte_read,
            fin_generated=self.close_requested or conn.fin_queued,
            rst_generated=self.abort_requested or conn.rst_sent)

    def absorb(self, progress: ConnProgress) -> None:
        """Fold the peer's latest HB entry into every tracker."""
        self.peer_progress = progress
        conn = self.conn
        self.read_tracker.update(conn.last_app_byte_read,
                                 progress.last_app_byte_read)
        self.write_tracker.update(conn.last_app_byte_written,
                                  progress.last_app_byte_written)
        self.fold_nic(progress)

    def fold_nic(self, progress: ConnProgress) -> None:
        """Fold the peer's progress into the NIC trackers only."""
        self.nic_rx_tracker.update(self.conn.last_byte_received,
                                   progress.last_byte_received)

    def refresh_nic(self) -> None:
        """Keep the NIC trackers current between peer HBs: our own counters
        advance as the client keeps sending."""
        if self.peer_progress is not None:
            self.fold_nic(self.peer_progress)

    def refresh_app(self) -> None:
        """Re-absorb the peer's latest progress before asking app lag."""
        if self.peer_progress is not None:
            self.absorb(self.peer_progress)

    def fin_verdict(self) -> Optional[str]:
        """FIN disagreement past MaxDelayFIN; only the primary holds FINs."""
        return None


class SttcpEngine(TcpExtension):
    """Base class: everything role-independent."""

    def __init__(self, world: World, host: Host, config: SttcpConfig,
                 role: str, local_ip: IPAddress, peer_ip: IPAddress,
                 service_ip: IPAddress, gateway_ip: IPAddress,
                 power_strip: PowerStrip, peer_host: Host,
                 serial_port: Optional[SerialPort] = None):
        config.validate()
        self.world = world
        self.host = host
        self.config = config
        self.role = role
        self.local_ip = local_ip
        self.peer_ip = peer_ip
        self.service_ip = service_ip
        self.gateway_ip = gateway_ip
        self.power_strip = power_strip
        self.peer_host = peer_host
        self.peer_role = ROLE_BACKUP if role == ROLE_PRIMARY else ROLE_PRIMARY
        self.name = f"{host.name}.sttcp"
        self.mode = MODE_FT
        self.events = EngineEventLog()
        self.conns: dict[ConnKey, ManagedConn] = {}

        self.hb = HeartbeatService(
            world, config, role, host.udp, local_ip, peer_ip,
            build_heartbeat=self._build_heartbeat,
            on_heartbeat=self._on_heartbeat, on_control=self._on_control,
            serial_port=serial_port, name=f"{self.name}.hb")

        tick = max(config.hb_period_ns // 4, millis(10))
        self._tick_timer = PeriodicTimer(world.sim, self._tick, tick,
                                         label=f"{self.name}.tick")
        self.ping_board = PingScoreboard(config.ping_fail_threshold)
        self._pinger: Optional[Pinger] = None
        self._ping_timer: Optional[PeriodicTimer] = None
        self._probing = False
        self._last_ping_ok: Optional[bool] = None
        self._ip_was_up = True
        self._serial_was_up = True
        host.on_power_off.append(self._on_host_down)
        host.tcp.ext = self

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Begin heartbeating and failure detection."""
        self.hb.start()
        self._tick_timer.start()

    def stop(self) -> None:
        """Stop heartbeating, detection and probing."""
        self.hb.stop()
        self._tick_timer.stop()
        self._stop_probing()

    def _on_host_down(self) -> None:
        self.mode = MODE_STOPPED
        self.stop()

    # ------------------------------------------------------- event plumbing

    def emit(self, kind: str, /, **detail: Any):
        """Record an engine event and fire its ``sttcp.<kind>`` probe.
        Every :class:`~repro.sttcp.events.EventKind` has a registered
        probe, so an unregistered kind fails loudly instead of drifting."""
        event = self.events.emit(self.world.sim.now, kind, **detail)
        self.world.probes.fire(f"sttcp.{kind}", self.name, kind, **detail)
        return event

    def attach_watchdog(self, app, period_ns: int = 100_000_000,
                        miss_threshold: int = 3):
        """Sec. 4.2.2 extension: a watchdog on the local service
        application; its suspicion goes to the role's
        ``watchdog_suspects``, which tells the peer directly, so the pair
        acts even when the connection is idle."""
        from repro.apps.watchdog import ApplicationWatchdog

        watchdog = ApplicationWatchdog(self.world, app,
                                       self.watchdog_suspects,
                                       period_ns=period_ns,
                                       miss_threshold=miss_threshold)
        watchdog.start()
        return watchdog

    def stonith_peer(self, reason: str) -> None:
        """Power the peer down (out-of-band) before acting alone."""
        self.emit(EventKind.STONITH, target=self.peer_host.name, reason=reason)
        self.power_strip.power_down(self.peer_host, initiator=self.name)

    # -------------------------------------------------------- HB assembly

    def _build_heartbeat(self) -> tuple:
        return (tuple(self.connection_progress()), self._probing,
                self._last_ping_ok)

    def connection_progress(self) -> list[ConnProgress]:
        """HB payload: one entry per managed connection."""
        return [mc.progress() for mc in self.conns.values()]

    def _on_heartbeat(self, hb: Heartbeat, link: str) -> None:
        """Record the peer's ping outcome and fold its progress entries
        into the matching connections' trackers."""
        if hb.ping_probing:
            self.ping_board.record_peer(hb.ping_ok)
        if hb.sender_role == self.role:
            return  # misconfiguration guard
        for progress in hb.connections:
            mc = self.conns.get(progress.key)
            if mc is not None:
                mc.absorb(progress)
                self.peer_progress_arrived(mc)

    def peer_progress_arrived(self, mc: ManagedConn) -> None:
        """Role hook, after a peer HB entry was absorbed."""

    def _on_control(self, message: Any) -> None:
        raise NotImplementedError

    # ----------------------------------------------------------- detection

    def _tick(self) -> None:
        """Table 1: classify what the links and trackers show, and either
        recover from the verdict or run the role's housekeeping."""
        if self.mode != MODE_FT:
            return
        ip_up, serial_up = self.check_links()
        if ip_up:
            self._stop_probing()
        elif serial_up:
            # Sec. 4.3: a network failure somewhere; pings help find whose.
            self._ensure_probing()
        verdict = classify(ip_up, serial_up, self.peer_hb_fresh(),
                           self.ping_board.peer_nic_failed(),
                           self.peer_evidence_time(), self.conns.values())
        if verdict is None:
            self.housekeep()
        else:
            self.respond(verdict)

    def respond(self, verdict: Verdict) -> None:
        """Emit the verdict's detection event and run the role's recovery."""
        kind, symptom, reason = _RESPONSES[verdict.detector]
        peer = self.peer_role
        detail: dict[str, Any] = {} if verdict.key is None \
            else {"key": verdict.key}
        detail["symptom"] = symptom.format(peer=peer, symptom=verdict.symptom)
        if kind == EventKind.APP_FAILURE_DETECTED:
            detail["location"] = peer
        self.emit(kind, **detail)
        self.recover(reason.format(peer=peer, symptom=verdict.symptom))

    def recover(self, reason: str) -> None:
        """Role-specific: act alone without the failed peer (Table 1)."""
        raise NotImplementedError

    def housekeep(self) -> None:
        """Role-specific per-tick upkeep when no verdict was reached."""
        raise NotImplementedError

    # ------------------------------------------------- gateway-ping probing

    def _ensure_probing(self) -> None:
        """Start pinging the gateway (entered when the IP HB is down but the
        serial HB survives — paper Sec. 4.3)."""
        if self._probing:
            return
        self._probing = True
        self.emit(EventKind.PING_PROBING, gateway=str(self.gateway_ip))
        if self._pinger is None:
            self._pinger = Pinger(self.world, self.host.icmp, self.gateway_ip,
                                  timeout_ns=self.config.ping_interval_ns // 2,
                                  name=f"{self.name}.ping")
        self._ping_timer = PeriodicTimer(self.world.sim, self._do_ping,
                                         self.config.ping_interval_ns,
                                         label=f"{self.name}.ping")
        self._ping_timer.start(fire_immediately=True)

    def _stop_probing(self) -> None:
        if not self._probing:
            return
        self._probing = False
        self._last_ping_ok = None
        if self._ping_timer is not None:
            self._ping_timer.stop()
            self._ping_timer = None
        self.ping_board.reset()

    def _do_ping(self) -> None:
        if self._pinger is not None and self.host.is_up:
            self._pinger.ping(self._on_ping_result)

    def _on_ping_result(self, ok: bool) -> None:
        self._last_ping_ok = ok
        self.ping_board.record_local(ok)

    # ------------------------------------------------------- link watching

    def peer_evidence_time(self) -> Optional[int]:
        """Instant of the latest heartbeat from the peer on any link —
        the most recent proof the peer machine was alive."""
        return self.hb.last_heard_at()

    def peer_hb_fresh(self) -> bool:
        """True when a heartbeat arrived recently enough (on either link)
        for the peer's progress counters to be meaningful.  The Sec. 4.2
        application-failure criteria only apply while "HB between the
        servers also stays up" — when HBs stop entirely, stale counters
        must not masquerade as application lag (that is a crash, row 1)."""
        last = self.hb.last_heard_at()
        # No HB yet: fresh during the startup grace period.
        return (last is None
                or self.world.sim.now - last <= 2 * self.config.hb_period_ns)

    def check_links(self) -> tuple[bool, bool]:
        """(ip_up, serial_up), emitting events on state transitions."""
        ip_up = self.hb.ip_link_up()
        serial_up = self.hb.serial_link_up()
        if ip_up != self._ip_was_up:
            if not ip_up:
                self.world.probes.fire("hb.miss", self.name, link="ip")
            self.emit(EventKind.HB_IP_LINK_DOWN if not ip_up
                      else EventKind.HB_LINK_RECOVERED, link="ip")
            self._ip_was_up = ip_up
        if serial_up != self._serial_was_up:
            if not serial_up:
                self.world.probes.fire("hb.miss", self.name, link="serial")
            self.emit(EventKind.HB_SERIAL_LINK_DOWN if not serial_up
                      else EventKind.HB_LINK_RECOVERED, link="serial")
            self._serial_was_up = serial_up
        return ip_up, serial_up

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} mode={self.mode}>"
