"""The TCP connection state machine.

This is a faithful (though simplified) user-space TCP: 3-way handshake,
cumulative acks, flow control, Reno congestion control, RTO with
exponential backoff, fast retransmit, persist probes, FIN/RST teardown and
TIME_WAIT.  It is the substrate every ST-TCP mechanism acts on.

ST-TCP integration points (used by :mod:`repro.sttcp`):

* :attr:`TcpConnection.ext` is the one hook: ``None`` on every plain
  connection, else a :class:`~repro.tcp.extension.TcpExtension` (the
  engine's per-connection record).  Through it the backup holds the
  output gate shut — the replica's segments are counted and advance every
  piece of sender state, but never leave, and on the two hot paths (data,
  pure ack) are never even built (paper Sec. 2) — and accepts client acks
  for bytes its lagging replica application has not written yet; the
  primary taps in-order client bytes into its retain buffer (Sec. 4.3).
* :meth:`open_passive` accepts an ISN override so the backup's replica
  connection uses the primary's ISN (paper Sec. 2).
* Progress counters :attr:`last_byte_received`, :attr:`last_ack_received`,
  :attr:`last_app_byte_written`, :attr:`last_app_byte_read` are exactly
  the four quantities the ST-TCP heartbeat carries (paper Sec. 3).
* :meth:`inject_stream_bytes` lets the backup insert bytes fetched from
  the primary (Table 1 row 5).

Internally all data positions are *stream offsets* (plain ints, byte 0 =
first data byte); translation to 32-bit wire sequence numbers happens only
at segment build/parse time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ConnectionClosedError
from repro.sim.core import millis, seconds
from repro.sim.timers import DeadlineTimer, Timer
from repro.sim.world import World
from repro.tcp.buffers import ReceiveBuffer, SendBuffer
from repro.tcp.congestion import (CC_ALGORITHMS, DEFAULT_CC,
                                  make_congestion_control)
from repro.tcp.rtt import RttEstimator
from repro.tcp.segment import TcpFlags, TcpSegment
from repro.tcp.seq import SEQ_MASK, SEQ_MOD, seq_add, seq_sub

SEQ_HALF = 1 << 31
from repro.tcp.states import TcpState

__all__ = ["TcpConfig", "TcpConnection"]


@dataclass(frozen=True)
class TcpConfig:
    """Tunables for one TCP endpoint (Linux-flavoured defaults).

    Frozen: a stack hands its own (or its listener's) config to every
    connection it opens, so a change is a new config
    (``dataclasses.replace``), never a write through one of them."""

    mss: int = 1460
    send_buffer_bytes: int = 65536
    recv_buffer_bytes: int = 65536
    initial_rto_ns: int = seconds(1)
    min_rto_ns: int = millis(200)
    max_rto_ns: int = seconds(60)
    max_retransmits: int = 15
    max_syn_retransmits: int = 6
    delayed_ack: bool = False
    delayed_ack_timeout_ns: int = millis(40)
    msl_ns: int = seconds(10)
    initial_window_segments: int = 10
    persist_min_ns: int = millis(500)
    persist_max_ns: int = seconds(60)
    cc: str = DEFAULT_CC

    def validate(self) -> None:
        """Raise ValueError on inconsistent settings."""
        if self.mss <= 0:
            raise ValueError(f"mss must be positive: {self.mss}")
        if self.send_buffer_bytes < self.mss or self.recv_buffer_bytes < self.mss:
            raise ValueError("buffers must hold at least one MSS")
        if self.cc not in CC_ALGORITHMS:
            raise ValueError(f"unknown congestion control {self.cc!r}; "
                             f"registered: {', '.join(sorted(CC_ALGORITHMS))}")


class TcpConnection:
    """One end of a TCP connection."""

    __slots__ = (
        "world", "name", "local_ip", "local_port", "remote_ip", "remote_port",
        "config", "_transmit", "ext", "state", "iss", "irs",
        "send_buffer", "recv_buffer", "snd_una_off", "snd_nxt_off",
        "peer_window", "fin_queued", "fin_off", "fin_sent", "fin_acked",
        "peer_fin_off", "peer_fin_consumed", "rst_sent", "cc",
        "rtt", "_rtx_timer", "_persist_timer", "_delack_timer",
        "_timewait_timer", "_persist_interval", "_last_sent_window",
        "_rtx_count", "_syn_rtx_count", "_timed_end", "_timed_at",
        "_syn_sent_at", "on_established", "on_data_available", "on_peer_fin",
        "on_closed", "on_reset", "on_writable", "peer_data_high",
        "segments_sent", "segments_received", "bytes_sent", "retransmissions",
        "dupacks_received", "acks_sent", "established_at", "closed_at")

    def __init__(self, world: World, name: str,
                 local_ip, local_port: int, remote_ip, remote_port: int,
                 config: Optional[TcpConfig] = None,
                 transmit: Optional[Callable[[TcpSegment], None]] = None):
        self.world = world
        self.name = name
        self.local_ip = local_ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.config = config or TcpConfig()
        self.config.validate()
        # Set once: the stack's wire for this 4-tuple.  A connection whose
        # output must not leave is gated through ``ext``, never rewired.
        self._transmit: Callable[[TcpSegment], None] = \
            transmit or (lambda seg: None)
        self.ext = None  # the loaded repro.tcp.extension.TcpExtension

        self.state = TcpState.CLOSED
        self.iss: Optional[int] = None
        self.irs: Optional[int] = None

        self.send_buffer = SendBuffer(self.config.send_buffer_bytes)
        self.recv_buffer = ReceiveBuffer(self.config.recv_buffer_bytes)
        self.snd_una_off = 0
        self.snd_nxt_off = 0
        self.peer_window = self.config.mss  # until first real window arrives

        self.fin_queued = False
        self.fin_off: Optional[int] = None
        self.fin_sent = False
        self.fin_acked = False
        self.peer_fin_off: Optional[int] = None
        self.peer_fin_consumed = False
        self.rst_sent = False

        self.cc = make_congestion_control(self.config.cc, self.config.mss,
                                          self.config.initial_window_segments,
                                          clock=world.sim)
        self.rtt = RttEstimator(self.config.initial_rto_ns,
                                self.config.min_rto_ns, self.config.max_rto_ns)
        # The RTO timer is restarted on every new ack; DeadlineTimer makes
        # that restart a field write instead of a cancel + schedule pair
        # (see repro.sim.timers — the firing instant is unchanged).
        self._rtx_timer = DeadlineTimer(world.sim, self._on_rtx_timeout,
                                        label=f"{name}.rtx")
        self._persist_timer = Timer(world.sim, self._on_persist_timeout,
                                    label=f"{name}.persist")
        self._delack_timer = Timer(world.sim, self._send_pure_ack,
                                   label=f"{name}.delack")
        self._timewait_timer = Timer(world.sim, self._on_timewait_expired,
                                     label=f"{name}.timewait")
        self._persist_interval = self.config.persist_min_ns
        self._last_sent_window = self.config.recv_buffer_bytes
        self._rtx_count = 0
        self._syn_rtx_count = 0
        # RTT timing (Karn's rule: invalidated on any retransmission).
        self._timed_end: Optional[int] = None
        self._timed_at = 0
        self._syn_sent_at = 0

        # --- application callbacks (installed by the socket layer) ---
        self.on_established: Callable[[], None] = lambda: None
        self.on_data_available: Callable[[], None] = lambda: None
        self.on_peer_fin: Callable[[], None] = lambda: None
        self.on_closed: Callable[[], None] = lambda: None
        self.on_reset: Callable[[str], None] = lambda reason: None
        self.on_writable: Callable[[], None] = lambda: None

        # Highest stream offset the peer has *attempted* to send us, even
        # if the data was trimmed at the window edge.  The ST-TCP backup
        # uses this to recognize an unfillable hole after takeover (data
        # beyond a gap wider than the receive window never enters the
        # buffer, so has_gap alone cannot see it).
        self.peer_data_high = 0

        # --- statistics ---
        self.segments_sent = 0
        self.segments_received = 0
        self.bytes_sent = 0            # payload bytes, incl. retransmits
        self.retransmissions = 0
        self.dupacks_received = 0
        self.acks_sent = 0
        self.established_at: Optional[int] = None
        self.closed_at: Optional[int] = None

    # ------------------------------------------------------------ open/close

    def open_active(self, isn: int) -> None:
        """Client-side open: send SYN."""
        if self.state is not TcpState.CLOSED:
            raise ConnectionClosedError(f"{self.name}: open on {self.state}")
        self.iss = isn & 0xFFFFFFFF
        self.state = TcpState.SYN_SENT
        self._syn_sent_at = self.world.sim.now
        self.world.probes.fire("tcp.state", self.name, state="SYN_SENT")
        self._send_syn()

    def open_passive(self, isn: int) -> None:
        """Server-side open: wait for SYN from the (fixed) peer.

        ``isn`` is our ISN to use in the SYN-ACK; the ST-TCP backup passes
        the primary's ISN here to keep the replica byte-aligned.
        """
        if self.state is not TcpState.CLOSED:
            raise ConnectionClosedError(f"{self.name}: open on {self.state}")
        self.iss = isn & 0xFFFFFFFF
        self.state = TcpState.LISTEN
        self.world.probes.fire("tcp.state", self.name, state="LISTEN")

    def close(self) -> None:
        """Graceful close: queue a FIN after all pending data."""
        if self.state in (TcpState.CLOSED, TcpState.TIME_WAIT,
                          TcpState.LAST_ACK, TcpState.CLOSING,
                          TcpState.FIN_WAIT_1, TcpState.FIN_WAIT_2):
            return
        if self.state in (TcpState.LISTEN, TcpState.SYN_SENT):
            self._enter_closed("local close")
            return
        if self.fin_queued:
            return
        self.fin_queued = True
        self.fin_off = self.send_buffer.end_offset
        if self.state is TcpState.ESTABLISHED or self.state is TcpState.SYN_RCVD:
            self.state = TcpState.FIN_WAIT_1
        elif self.state is TcpState.CLOSE_WAIT:
            self.state = TcpState.LAST_ACK
        self.world.probes.fire("tcp.state", self.name,
                               state=self.state.value, fin_off=self.fin_off)
        self._try_send()

    def abort(self) -> None:
        """Hard close: emit RST and drop all state."""
        if self.state.is_synchronized or self.state is TcpState.SYN_RCVD:
            self._emit(self._make_segment(
                flags=TcpFlags.RST | TcpFlags.ACK,
                seq=self._seq_of(self.snd_nxt_off)))
            self.rst_sent = True
        self._enter_closed("local abort")

    # --------------------------------------------------------------- app I/O

    def write(self, data: bytes) -> int:
        """Queue application bytes for transmission; returns count accepted.

        Writes during connection setup (SYN_SENT / SYN_RCVD) are queued
        and flushed once the handshake completes, like a real socket."""
        if self.fin_queued:
            raise ConnectionClosedError(f"{self.name}: write after close")
        writable = (self.state.can_send_data
                    or self.state in (TcpState.SYN_SENT, TcpState.SYN_RCVD,
                                      TcpState.LISTEN))
        if not writable:
            raise ConnectionClosedError(
                f"{self.name}: write in state {self.state}")
        accepted = self.send_buffer.write(data)
        ext = self.ext
        if ext is not None and ext.future_ack_off > self.snd_una_off:
            # The peer acked these bytes before they were written: they
            # count as sent and acked.
            target = min(ext.future_ack_off, self.send_buffer.end_offset)
            if target > self.snd_una_off:
                self.send_buffer.ack_to(target)
                self.snd_una_off = target
                self.snd_nxt_off = max(self.snd_nxt_off, target)
                if self._all_acked():
                    self._rtx_timer.stop()
        self._try_send()
        return accepted

    def read(self, max_bytes: Optional[int] = None) -> bytes:
        """Consume in-order received bytes (may be empty)."""
        data = self.recv_buffer.read(max_bytes)
        if self.peer_fin_consumed and not self.recv_buffer.readable:
            self.recv_buffer.discard()  # nothing can arrive or be read now
        if data and self.state.is_synchronized:
            # Window-update ack, but only when the peer may be stalled: the
            # last window we advertised was under one MSS and reading has
            # reopened at least one MSS of space.
            if (self._last_sent_window < self.config.mss
                    and self.recv_buffer.window >= self.config.mss):
                self._send_pure_ack()
        return data

    @property
    def readable_bytes(self) -> int:
        """In-order bytes the application can read now."""
        return self.recv_buffer.readable

    @property
    def writable_bytes(self) -> int:
        """Send-buffer space available to the application."""
        return 0 if self.fin_queued else self.send_buffer.free_space

    # ------------------------------------------------- ST-TCP progress view

    @property
    def last_byte_received(self) -> int:
        """In-order bytes received from the peer (HB field A / item 1)."""
        return self.recv_buffer.rcv_next

    @property
    def last_ack_received(self) -> int:
        """Bytes of ours the peer has acked (HB item 2)."""
        return self.snd_una_off

    @property
    def last_app_byte_written(self) -> int:
        """Bytes the application wrote to the send buffer (HB item 3)."""
        return self.send_buffer.end_offset

    @property
    def last_app_byte_read(self) -> int:
        """Bytes the application read from the receive buffer (HB item 4)."""
        return self.recv_buffer.bytes_read

    @property
    def flight_size(self) -> int:
        """Bytes sent but not yet acknowledged."""
        return self.snd_nxt_off - self.snd_una_off

    def inject_stream_bytes(self, offset: int, data: bytes) -> None:
        """ST-TCP: insert client bytes fetched from the primary, as if they
        had arrived on the wire (no ack is generated — the backup's output
        is suppressed anyway)."""
        before = self.recv_buffer.rcv_next
        newly = self.recv_buffer.receive(offset, data)
        if newly:
            probes = self.world.probes
            if probes.wants_map["tcp.deliver"]:
                probes.fire("tcp.deliver", self.name, off=before, len=newly)
            ext = self.ext
            if ext is not None and ext.taps:
                ext.tap(before, self.recv_buffer.peek_tail(newly))
        self._maybe_consume_peer_fin()
        if self.recv_buffer.readable:
            self.on_data_available()

    def kick_output(self) -> None:
        """Force an immediate retransmission + ack (used by the optional
        ``kick_on_takeover`` failover acceleration, an ablation knob —
        the paper's system waits for the next backed-off retransmission)."""
        if not self.state.is_synchronized:
            return
        self._send_pure_ack()
        if self.flight_size > 0 or (self.fin_sent and not self.fin_acked):
            self._retransmit_head()
            self._rtx_timer.start(self.rtt.rto_ns)

    # ---------------------------------------------------------- segment input

    def segment_arrived(self, segment: TcpSegment) -> None:
        """Demultiplexed entry point for one inbound segment."""
        self.segments_received += 1
        self.world.segments_received += 1
        state = self.state
        flags = segment.flags
        if state is TcpState.CLOSED:
            return
        if flags & TcpFlags.RST:
            self._handle_rst(segment)
            return
        if state is TcpState.LISTEN:
            self._handle_listen(segment)
            return
        if state is TcpState.SYN_SENT:
            self._handle_syn_sent(segment)
            return
        if flags & TcpFlags.SYN:
            # Retransmitted SYN on a SYN_RCVD connection: re-send SYN-ACK.
            if self.state is TcpState.SYN_RCVD:
                self._send_syn_ack()
            elif self.state.is_synchronized:
                # Challenge-ack a stray SYN (RFC 5961 flavour).  Covers the
                # lost-final-ACK handshake case: the peer retransmits its
                # SYN-ACK and our ack re-completes its handshake even if
                # we have no data to send.
                self._send_pure_ack()
            return
        if self.state is TcpState.TIME_WAIT:
            if flags & TcpFlags.FIN:
                self._send_pure_ack()
            return
        if flags & TcpFlags.ACK:
            self._process_ack(segment)
            if self.state is TcpState.CLOSED:
                return
        if segment.payload:
            self._process_payload(segment)
        if flags & TcpFlags.FIN:
            self._note_peer_fin(segment)
        self._maybe_consume_peer_fin()

    # -------------------------------------------------------- handshake paths

    def _handle_listen(self, segment: TcpSegment) -> None:
        if not segment.syn or segment.ack_flag:
            return
        self.irs = segment.seq
        self.peer_window = segment.window
        self.state = TcpState.SYN_RCVD
        self._syn_sent_at = self.world.sim.now
        self.world.probes.fire("tcp.state", self.name, state="SYN_RCVD",
                               irs=self.irs)
        self._send_syn_ack()

    def _handle_syn_sent(self, segment: TcpSegment) -> None:
        if not segment.syn:
            return
        if segment.ack_flag:
            if seq_sub(segment.ack, seq_add(self.iss, 1)) != 0:
                # Bogus ack of our SYN: reset per RFC 793.
                self._emit(TcpSegment(self.local_port, self.remote_port,
                                      seq=segment.ack, ack=0,
                                      flags=TcpFlags.RST, window=0))
                return
            self.irs = segment.seq
            self.peer_window = segment.window
            self.snd_una_off = 0
            # RFC 6298: the SYN/SYN-ACK exchange provides the first RTT
            # sample (Karn: only if the SYN was not retransmitted).
            if self._syn_rtx_count == 0:
                self.rtt.on_sample(self.world.sim.now - self._syn_sent_at)
            self._establish()
            self._send_pure_ack()
        # (simultaneous open is not modelled)

    def _establish(self) -> None:
        self.state = TcpState.ESTABLISHED
        self.established_at = self.world.sim.now
        self._rtx_count = 0
        self._syn_rtx_count = 0
        self._rtx_timer.stop()
        self.world.probes.fire("tcp.state", self.name, state="ESTABLISHED")
        self.on_established()
        self._try_send()

    # ------------------------------------------------------------ ack handling

    def _process_ack(self, segment: TcpSegment) -> None:
        if self.state is TcpState.SYN_RCVD:
            if seq_sub(segment.ack, seq_add(self.iss, 1)) >= 0:
                self.peer_window = segment.window
                if self._syn_rtx_count == 0:
                    self.rtt.on_sample(self.world.sim.now - self._syn_sent_at)
                self._establish()
            else:
                return
        # seq_sub(segment.ack, seq_add(self.iss, 1)) inlined (keep in
        # sync): two helper calls per inbound ack are measurable.
        diff = (segment.ack - self.iss - 1) & SEQ_MASK
        ack_off = diff - SEQ_MOD if diff >= SEQ_HALF else diff
        if ack_off < 0:
            return  # old ack from before our ISN; ignore
        fin_ack_off = (self.fin_off + 1) if self.fin_off is not None else None
        ack_covers_fin = (fin_ack_off is not None and ack_off >= fin_ack_off
                          and self.fin_sent)
        data_ack_off = min(ack_off, self.fin_off) if self.fin_off is not None \
            else ack_off
        stream_end = self.send_buffer.end_offset
        if data_ack_off > stream_end:
            # Ack for data we never sent: a protocol violation, ignored —
            # unless the extension takes it (a backup replica whose app
            # lags the client; it is applied on write).
            ext = self.ext
            if ext is None or not ext.accept_future_ack(data_ack_off):
                return
            data_ack_off = stream_end

        newly_acked = data_ack_off - self.snd_una_off
        if newly_acked > 0:
            self.send_buffer.ack_to(data_ack_off)
            self.snd_una_off = data_ack_off
            self.snd_nxt_off = max(self.snd_nxt_off, self.snd_una_off)
            self._rtx_count = 0
            # RTT sample: the timed range resolves at most once per
            # flight, but the check runs per ack.
            timed_end = self._timed_end
            if timed_end is not None and data_ack_off >= timed_end:
                self.rtt.on_sample(self.world.sim._now - self._timed_at)
                self._timed_end = None
            partial_rtx = self.cc.on_new_ack(newly_acked, self.snd_una_off)
            # reset_backoff's no-backoff early-exit inlined (keep in
            # sync): the dirty flag is false on virtually every ack.
            rtt = self.rtt
            if rtt._backoff_dirty:
                rtt.reset_backoff()
            if self._all_acked():
                self._rtx_timer.stop()
            else:
                self._rtx_timer.start(rtt._rto)
            self.peer_window = segment.window
            if partial_rtx and not self._all_acked():
                # NewReno partial ack: the hole just past snd_una is
                # presumed lost; retransmit it without leaving recovery
                # (RFC 6582 Sec. 3.2) and re-arm the RTO from it.
                self._retransmit_head()
                self._rtx_timer.start(self.rtt.rto_ns)
            self.on_writable()
        else:
            prev_window = self.peer_window
            self.peer_window = segment.window
            # RFC 5681: a duplicate ack must also leave the advertised
            # window unchanged — an equal ack with a new window is a
            # window update, not evidence of loss.
            if (ack_off == self.snd_una_off and not segment.payload
                    and not segment.flags & (TcpFlags.SYN | TcpFlags.FIN)
                    and segment.window == prev_window
                    and self.flight_size > 0):
                self.dupacks_received += 1
                if self.cc.on_dupack(self.flight_size, self.snd_nxt_off):
                    self._retransmit_head()
                    # RFC 6298 (S5.3 discipline): the retransmission opens
                    # a new loss-recovery epoch, so the RTO clock measures
                    # from it.  Without this restart the timer armed at
                    # the *last new ack* fires while the fast-retransmitted
                    # head is still in flight, spuriously collapsing cwnd.
                    self._rtx_timer.start(self.rtt.rto_ns)
        if ack_covers_fin and not self.fin_acked:
            self.fin_acked = True
            self.send_buffer.discard()  # nothing left to retransmit
            self._rtx_timer.stop()
            self._on_fin_acked()
        # The ack may have opened send-window room for queued data.
        self._try_send()

    def _all_acked(self) -> bool:
        if self.snd_una_off < self.snd_nxt_off:
            return False
        if self.fin_sent and not self.fin_acked:
            return False
        return True

    def _on_fin_acked(self) -> None:
        if self.state is TcpState.FIN_WAIT_1:
            self.state = TcpState.FIN_WAIT_2
            self.world.probes.fire("tcp.state", self.name,
                                   state="FIN_WAIT_2")
        elif self.state is TcpState.CLOSING:
            self._enter_time_wait()
        elif self.state is TcpState.LAST_ACK:
            self._enter_closed("closed cleanly")

    # ------------------------------------------------------------ data input

    def _process_payload(self, segment: TcpSegment) -> None:
        irs = self.irs
        if irs is None:
            return
        payload = segment.payload
        recv_buffer = self.recv_buffer
        off = seq_sub(segment.seq, (irs + 1) & SEQ_MASK)
        end = off + len(payload)
        peer_fin_off = self.peer_fin_off
        if peer_fin_off is not None and end > peer_fin_off:
            # RFC 9293 3.10.7.4: text at or past the peer's FIN is ignored
            # (the stream has ended; its receive ring may be gone).
            if off >= peer_fin_off:
                self._send_pure_ack()
                return
            payload = payload[:peer_fin_off - off]
            end = peer_fin_off
        if end > self.peer_data_high:
            self.peer_data_high = end
        if end <= recv_buffer.rcv_next:
            # Entirely old data: pure duplicate, re-ack it.
            self._send_pure_ack()
            return
        before = recv_buffer.rcv_next
        newly = recv_buffer.receive(off, payload)
        if newly:
            probes = self.world.probes
            if probes.wants_map["tcp.deliver"]:
                probes.fire("tcp.deliver", self.name, off=before, len=newly)
            ext = self.ext
            if ext is not None and ext.taps:
                ext.tap(before, recv_buffer.peek_tail(newly))
        if newly == 0 and off > recv_buffer.rcv_next:
            # Out of order: immediate duplicate ack (triggers peer's
            # fast retransmit).
            self._send_pure_ack()
        elif not self.config.delayed_ack:
            self._send_pure_ack()
        elif not self._delack_timer.armed:
            self._delack_timer.start(self.config.delayed_ack_timeout_ns)
        else:
            # Second segment: ack immediately (RFC 1122 every-other).
            self._delack_timer.stop()
            self._send_pure_ack()
        if self.recv_buffer.readable:
            self.on_data_available()

    def _note_peer_fin(self, segment: TcpSegment) -> None:
        if self.irs is None:
            return
        off = seq_sub(segment.seq, seq_add(self.irs, 1)) + len(segment.payload)
        if self.peer_fin_off is None:
            self.peer_fin_off = off
            self.world.probes.fire("tcp.peer-fin", self.name, off=off)
            if not segment.payload and self.recv_buffer.rcv_next < off:
                # Bare FIN beyond missing data: ack what we have now so
                # the peer can fast-retransmit the gap (a bare FIN takes
                # no _process_payload path, so nothing else acks it).
                self._send_pure_ack()
        elif self.peer_fin_consumed or not segment.payload:
            # Retransmitted FIN: our ack was lost (consumed case), or a
            # bare FIN above a still-open gap took no payload path that
            # would ack it (RFC 1122 4.2.2.21: duplicates must be acked).
            # Flush any pending delack and re-ack immediately, or the
            # peer camps in LAST_ACK / FIN_WAIT_1 retransmitting its FIN
            # until the give-up limit resets the connection.  (A data-
            # bearing retransmitted FIN is already acked by the payload
            # path.)
            self._send_pure_ack()

    def _maybe_consume_peer_fin(self) -> None:
        if (self.peer_fin_off is None or self.peer_fin_consumed
                or self.recv_buffer.rcv_next < self.peer_fin_off):
            return
        self.peer_fin_consumed = True
        if not self.recv_buffer.readable:
            self.recv_buffer.discard()  # see read()
        self._delack_timer.stop()
        self._send_pure_ack()
        if self.state is TcpState.ESTABLISHED:
            self.state = TcpState.CLOSE_WAIT
        elif self.state is TcpState.FIN_WAIT_1:
            if self.fin_acked:
                self._enter_time_wait()
                self.on_peer_fin()
                return
            # Our FIN not yet acked: simultaneous close.
            self.state = TcpState.CLOSING
        elif self.state is TcpState.FIN_WAIT_2:
            self._enter_time_wait()
            self.on_peer_fin()
            return
        self.world.probes.fire("tcp.state", self.name, state=self.state.value)
        self.on_peer_fin()

    # -------------------------------------------------------------- RST paths

    def _handle_rst(self, segment: TcpSegment) -> None:
        if self.state is TcpState.SYN_SENT:
            if not segment.ack_flag or seq_sub(segment.ack,
                                               seq_add(self.iss, 1)) != 0:
                return
        elif self.state.is_synchronized and self.irs is not None:
            off = seq_sub(segment.seq, seq_add(self.irs, 1))
            window = max(self.recv_buffer.window, 1)
            if not (self.recv_buffer.rcv_next - 1 <= off
                    < self.recv_buffer.rcv_next + window):
                return  # outside window: blind-reset protection
        self.world.probes.fire("tcp.rst-received", self.name)
        reason = "connection reset by peer"
        self._enter_closed(reason, reset=True)

    # ----------------------------------------------------------------- output

    def _seq_of(self, offset: int) -> int:
        return (self.iss + 1 + offset) & SEQ_MASK  # seq_add inlined

    def _current_ack(self) -> tuple[int, int]:
        """(flags_ack_bit, ack_field) for outgoing segments."""
        if self.irs is None:
            return 0, 0
        ack = seq_add(self.irs, 1 + self.recv_buffer.rcv_next
                      + (1 if self.peer_fin_consumed else 0))
        return TcpFlags.ACK, ack

    def _make_segment(self, flags: int, seq: int, payload: bytes = b"") -> TcpSegment:
        # _current_ack() inlined (keep in sync): one call per outgoing
        # segment makes the helper frame and seq_add call measurable.
        recv_buffer = self.recv_buffer
        irs = self.irs
        if irs is None:
            ack_bit = ack = 0
        else:
            ack_bit = TcpFlags.ACK
            ack = (irs + 1 + recv_buffer.rcv_next
                   + (1 if self.peer_fin_consumed else 0)) & SEQ_MASK
        window = recv_buffer.advertise_window()
        self._last_sent_window = window
        return TcpSegment(
            self.local_port, self.remote_port, seq,
            ack if (flags & TcpFlags.ACK or ack_bit) else 0,
            flags | ack_bit, window, payload)

    def _emit(self, segment: TcpSegment) -> None:
        payload = segment.payload
        if type(payload) is not bytes:
            # The send buffer hands out zero-copy ring views; the wire is
            # where they must become real bytes — once the event loop runs
            # again, acked ring positions can be recycled under the view,
            # and a lagging ST-TCP backup tap would read corrupt data.
            segment.payload = bytes(payload)
        self.segments_sent += 1
        self.bytes_sent += len(payload)
        if self.world.probes.wants_map["tcp.segment_tx"]:
            self._fire_segment_tx(segment.seq, segment.ack, segment.flags,
                                  len(payload), segment.window)
        ext = self.ext
        if ext is None or not ext.gated:
            self._transmit(segment)
        else:
            ext.hold(len(payload), segment.flags)

    def _hold(self, flags: int, off: int, length: int) -> None:
        """One data segment or pure ack behind a shut output gate: advance
        what :meth:`_make_segment` and :meth:`_emit` advance, build nothing."""
        window = self.recv_buffer.advertise_window()
        self._last_sent_window = window
        self.segments_sent += 1
        self.bytes_sent += length
        if self.world.probes.wants_map["tcp.segment_tx"]:
            self._fire_segment_tx(self._seq_of(off), self._current_ack()[1],
                                  flags, length, window)
        self.ext.hold(length, flags)

    def _fire_segment_tx(self, seq: int, ack: int, flags: int, length: int,
                         window: int) -> None:
        # The segment's own values, plus the connection itself: a
        # subscriber reads whatever sender state it needs (cwnd, una, nxt,
        # ...) off ``conn`` during the callback, so nothing is computed
        # for a subscriber that does not ask.
        self.world.probes.fire("tcp.segment_tx", self.name, conn=self,
                               seq=seq, ack=ack, flags=flags, len=length,
                               win=window)

    def _send_syn(self) -> None:
        self._emit(TcpSegment(self.local_port, self.remote_port, seq=self.iss,
                              ack=0, flags=TcpFlags.SYN,
                              window=self.recv_buffer.window))
        self._rtx_timer.start(self.rtt.rto_ns)

    def _send_syn_ack(self) -> None:
        ack = seq_add(self.irs, 1)
        self._emit(TcpSegment(self.local_port, self.remote_port, seq=self.iss,
                              ack=ack, flags=TcpFlags.SYN | TcpFlags.ACK,
                              window=self.recv_buffer.advertise_window()))
        self._rtx_timer.start(self.rtt.rto_ns)

    def _send_pure_ack(self) -> None:
        if not self.state.is_synchronized or self.irs is None:
            return
        delack = self._delack_timer
        if delack._handle is not None:  # armed-check inlined; see stop()
            delack.stop()
        self.acks_sent += 1
        ext = self.ext
        if ext is not None and ext.gated:
            self._hold(TcpFlags.ACK, self.snd_nxt_off, 0)
            return
        # _seq_of inlined (keep in sync): one pure ack per received data
        # segment makes the helper call measurable.
        self._emit(self._make_segment(
            TcpFlags.ACK, seq=(self.iss + 1 + self.snd_nxt_off) & SEQ_MASK))

    def _try_send(self) -> None:
        """Transmit as much queued data as the windows permit, plus FIN."""
        if not self.state.is_synchronized or self.irs is None:
            return
        # Receiver-side fast exit: most calls on an ack-only flow have no
        # queued data and no FIN pending, so skip the window math.
        # _send_limit() is inlined here (keep in sync) — this branch runs
        # once per inbound ack.
        fin_off = self.fin_off
        end = self.send_buffer.end_offset
        limit = end if (fin_off is None or end < fin_off) else fin_off
        if (limit <= self.snd_nxt_off
                and (not self.fin_queued or self.fin_sent)):
            # Nothing sendable is pending, so the persist question is
            # moot: disarm and reset (the persist tail's common arm).
            timer = self._persist_timer
            if timer._handle is not None:
                timer.stop()
            self._persist_interval = self.config.persist_min_ns
            return
        # Loop invariants (cwnd, peer window, writable limit, MSS) can't
        # change while we emit — hoist them; only snd_nxt advances.
        # send_window() inlined (keep in sync); ``limit`` was already
        # computed by the fast-exit check above.
        cwnd = self.cc.cwnd
        peer_window = self.peer_window
        window = cwnd if cwnd < peer_window else peer_window
        mss = self.config.mss
        send_buffer = self.send_buffer
        stream_end = send_buffer.end_offset
        ext = self.ext
        gated = ext is not None and ext.gated
        while True:
            snd_nxt = self.snd_nxt_off
            pending = limit - snd_nxt
            room = window - (snd_nxt - self.snd_una_off)
            chunk = mss if mss < pending else pending
            if chunk > room:
                chunk = room
            if chunk > 0:
                # chunk <= limit - snd_nxt, so the ring holds all of it.
                sent_end = snd_nxt + chunk
                flags = TcpFlags.ACK
                if sent_end == stream_end:
                    flags |= TcpFlags.PSH
                fin_now = (self.fin_queued and not self.fin_sent
                           and sent_end == self.fin_off)
                if fin_now:
                    flags |= TcpFlags.FIN
                if self._timed_end is None:
                    self._timed_end = sent_end
                    self._timed_at = self.world.sim.now
                if gated:
                    self._hold(flags, snd_nxt, chunk)
                else:
                    self._emit(self._make_segment(
                        flags, (self.iss + 1 + snd_nxt) & SEQ_MASK,
                        send_buffer.get_range(snd_nxt, chunk)))
                self.snd_nxt_off = sent_end
                if fin_now:
                    self.fin_sent = True
                if not self._rtx_timer.armed:
                    self._rtx_timer.start(self.rtt.rto_ns)
                continue
            # Bare FIN (no data left to carry it on).
            if (self.fin_queued and not self.fin_sent
                    and snd_nxt == self.fin_off
                    and self.snd_una_off == snd_nxt):
                self._emit(self._make_segment(TcpFlags.FIN | TcpFlags.ACK,
                                              self._seq_of(self.fin_off)))
                self.fin_sent = True
                if not self._rtx_timer.armed:
                    self._rtx_timer.start(self.rtt.rto_ns)
            break
        # Persist: arm the timer when data waits on a zero window.  The
        # common case — peer window open — is the disarm/reset arm.
        if (self.peer_window == 0 and self.flight_size == 0
                and self._send_limit() > self.snd_nxt_off
                and self.state.is_synchronized):
            if not self._persist_timer.armed:
                self._persist_timer.start(self._persist_interval)
            return
        timer = self._persist_timer
        if timer._handle is not None:
            timer.stop()
        self._persist_interval = self.config.persist_min_ns

    def _send_limit(self) -> int:
        """Highest stream offset we are allowed to transmit up to."""
        end = self.send_buffer.end_offset
        return min(end, self.fin_off) if self.fin_off is not None else end

    def _on_persist_timeout(self) -> None:
        """Send a 1-byte window probe into a zero window."""
        if self.peer_window > 0 or self._send_limit() <= self.snd_nxt_off:
            self._persist_interval = self.config.persist_min_ns
            self._try_send()
            return
        payload = self.send_buffer.get_range(self.snd_nxt_off, 1)
        if payload:
            self._emit(self._make_segment(TcpFlags.ACK,
                                          self._seq_of(self.snd_nxt_off),
                                          payload))
            self.world.probes.fire("tcp.window-probe", self.name,
                                   off=self.snd_nxt_off)
        self._persist_interval = min(self._persist_interval * 2,
                                     self.config.persist_max_ns)
        self._persist_timer.start(self._persist_interval)

    # ---------------------------------------------------------- retransmission

    def _on_rtx_timeout(self) -> None:
        if self.state is TcpState.SYN_SENT:
            self._syn_rtx_count += 1
            if self._syn_rtx_count > self.config.max_syn_retransmits:
                self._enter_closed("connect timeout", reset=True)
                return
            self.rtt.on_backoff()
            self.retransmissions += 1
            self._emit(TcpSegment(self.local_port, self.remote_port,
                                  seq=self.iss, ack=0, flags=TcpFlags.SYN,
                                  window=self.recv_buffer.window))
            self._rtx_timer.start(self.rtt.rto_ns)
            return
        if self.state is TcpState.SYN_RCVD:
            self._syn_rtx_count += 1
            if self._syn_rtx_count > self.config.max_syn_retransmits:
                self._enter_closed("handshake timeout", reset=True)
                return
            self.rtt.on_backoff()
            self.retransmissions += 1
            self._send_syn_ack()
            self._rtx_timer.start(self.rtt.rto_ns)
            return
        if self._all_acked():
            return
        self._rtx_count += 1
        if self._rtx_count > self.config.max_retransmits:
            self.world.probes.fire("tcp.give-up", self.name,
                                   retries=self._rtx_count)
            self._enter_closed("retransmission limit exceeded", reset=True)
            return
        self.cc.on_timeout(max(self.flight_size, self.config.mss))
        self.cc.on_retransmit(self.snd_una_off, "rto")
        self.rtt.on_backoff()
        self.world.probes.fire("tcp.retransmit", self.name, kind="rto",
                               off=self.snd_una_off, rto=self.rtt.rto_ns)
        self._timed_end = None  # Karn: never time a retransmitted range
        # Go-back-N (RFC 6298 §5.4 behaviour): everything beyond snd_una is
        # presumed lost; rewind and let slow start re-send it.  Essential
        # for the ST-TCP backup, whose pre-takeover "transmissions" were
        # suppressed and never reached the client at all.
        self.retransmissions += 1
        self.snd_nxt_off = self.snd_una_off
        if self.fin_sent and not self.fin_acked:
            self.fin_sent = False
        self._try_send()
        self._rtx_timer.start(self.rtt.rto_ns)

    def _retransmit_head(self) -> None:
        """Retransmit the earliest unacknowledged segment."""
        self.retransmissions += 1
        self.cc.on_retransmit(self.snd_una_off, "head")
        self.world.probes.fire("tcp.retransmit", self.name, kind="head",
                               off=self.snd_una_off)
        if self.snd_una_off < self.snd_nxt_off:
            length = min(self.config.mss, self.snd_nxt_off - self.snd_una_off)
            payload = self.send_buffer.get_range(self.snd_una_off, length)
            if (self._timed_end is not None
                    and self._timed_end <= self.snd_una_off + len(payload)):
                self._timed_end = None  # Karn: the timed range was resent
            flags = TcpFlags.ACK
            if (self.fin_sent and self.snd_una_off + len(payload) == self.fin_off):
                flags |= TcpFlags.FIN
            self._emit(self._make_segment(flags, self._seq_of(self.snd_una_off),
                                          payload))
        elif self.fin_sent and not self.fin_acked:
            self._emit(self._make_segment(TcpFlags.FIN | TcpFlags.ACK,
                                          self._seq_of(self.fin_off)))

    # ------------------------------------------------------------- tear-down

    def _enter_time_wait(self) -> None:
        self.state = TcpState.TIME_WAIT
        self.world.probes.fire("tcp.state", self.name, state="TIME_WAIT")
        self._rtx_timer.stop()
        self._persist_timer.stop()
        self._timewait_timer.start(2 * self.config.msl_ns)

    def _on_timewait_expired(self) -> None:
        self._enter_closed("TIME_WAIT expired")

    def _enter_closed(self, reason: str, reset: bool = False) -> None:
        already_closed = self.state is TcpState.CLOSED
        self.state = TcpState.CLOSED
        self.closed_at = self.world.sim.now
        for timer in (self._rtx_timer, self._persist_timer,
                      self._delack_timer, self._timewait_timer):
            timer.stop()
        if already_closed:
            return
        self.send_buffer.discard()  # recv_buffer stays: the app may drain it
        self.world.probes.fire("tcp.closed", self.name, reason=reason)
        if reset:
            self.on_reset(reason)
        self.on_closed()

    # ----------------------------------------------------------------- misc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TcpConnection {self.name} {self.state.value} "
                f"una={self.snd_una_off} nxt={self.snd_nxt_off} "
                f"rcv={self.recv_buffer.rcv_next}>")
