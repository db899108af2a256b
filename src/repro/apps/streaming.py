"""The GUI demo application, headless (paper Demos 1 and 4).

The paper's demonstration client "continually requests and receives data
from the server" and renders a pie chart of progress.  Here:

* :class:`StreamServer` — deterministic: on a ``GET <n>\\n`` request it
  streams ``n`` pattern bytes, paced purely by socket writability, so the
  primary's replica and the backup's replica emit identical streams.
* :class:`StreamClient` — sends requests, verifies payload integrity
  byte-for-byte, and feeds every arrival into a
  :class:`~repro.metrics.monitor.ClientStreamMonitor` (the "pie chart").
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from repro.net.addresses import IPAddress
from repro.tcp.sockets import Socket
from repro.host.app import Application
from repro.host.host import Host
from repro.apps.base import pattern_bytes, verify_pattern

__all__ = ["StreamServer", "StreamClient"]


class _ServerSession:
    """Per-connection server state: request parser + response cursor."""

    def __init__(self) -> None:
        self.request_buffer = bytearray()
        self.pending_bytes = 0        # remaining bytes of current response
        self.response_offset = 0      # absolute offset in the response stream


class StreamServer(Application):
    """Deterministic request/stream server.

    Protocol: client sends ``GET <n>\\n``; server responds with exactly
    ``n`` bytes of :func:`pattern_bytes` (offsets continuing across
    requests on the same connection).  With ``close_when_done`` the server
    closes the connection after finishing one request (file-transfer
    shape, Demo 3).
    """

    def __init__(self, host: Host, name: str, port: int = 80,
                 chunk_size: int = 8192, close_when_done: bool = False):
        super().__init__(host, name)
        self.port = port
        self.chunk_size = chunk_size
        self.close_when_done = close_when_done
        self._sessions: dict[int, _ServerSession] = {}
        self.connections_accepted = 0
        self.bytes_served = 0

    def on_start(self) -> None:
        """Open the listener / client connection."""
        self.listener = self.host.tcp.listen(
            self.port, self.guard_callback(self._on_accept))

    def _on_accept(self, sock: Socket) -> None:
        self.connections_accepted += 1
        self.track_socket(sock)
        session = _ServerSession()
        self._sessions[id(sock)] = session
        # partial over bound methods, not guard_callback(lambda): these
        # run once per socket event (tens of thousands per transfer), and
        # the handlers check ``self.alive`` themselves — one frame per
        # event instead of three.
        sock.on_data = partial(self._on_data, session)
        sock.on_writable = partial(self._pump, session)
        sock.on_closed = lambda s: (self._sessions.pop(id(s), None),
                                    self.untrack_socket(s))
        sock.on_peer_closed = partial(self._on_peer_closed, session)

    def _on_data(self, session: _ServerSession, sock: Socket) -> None:
        if not self.alive:
            return
        session.request_buffer.extend(sock.read())
        while b"\n" in session.request_buffer:
            line, _, rest = bytes(session.request_buffer).partition(b"\n")
            session.request_buffer = bytearray(rest)
            self._handle_request(line, session)
        self._pump(session, sock)

    def _handle_request(self, line: bytes, session: _ServerSession) -> None:
        parts = line.strip().split()
        if len(parts) == 2 and parts[0] == b"GET":
            try:
                session.pending_bytes += int(parts[1])
            except ValueError:
                pass  # malformed request: ignore (deterministically)

    def _pump(self, session: _ServerSession, sock: Socket) -> None:
        if not self.alive:
            return
        while session.pending_bytes > 0:
            chunk = min(self.chunk_size, session.pending_bytes,
                        sock.writable_bytes)
            if chunk <= 0:
                return
            sent = sock.send(pattern_bytes(session.response_offset, chunk))
            session.response_offset += sent
            session.pending_bytes -= sent
            self.bytes_served += sent
        if (self.close_when_done and session.pending_bytes == 0
                and session.response_offset > 0 and sock.is_open):
            sock.close()

    def _on_peer_closed(self, session: _ServerSession, sock: Socket) -> None:
        if not self.alive:
            return
        # Client finished sending; finish our stream, then close.
        self._pump(session, sock)
        if session.pending_bytes == 0 and sock.is_open:
            sock.close()


class StreamClient(Application):
    """The paper's demo client: request data, watch it arrive.

    ``monitor`` (if given) receives every arrival — it is the pie chart.
    ``on_complete`` fires when ``total_bytes`` verified bytes arrived.
    """

    def __init__(self, host: Host, name: str,
                 server_ip: "IPAddress | str", port: int = 80,
                 total_bytes: int = 1_000_000,
                 request_chunk: int = 0,
                 monitor=None,
                 on_complete: Optional[Callable[[], None]] = None,
                 close_when_complete: bool = True):
        super().__init__(host, name)
        self.server_ip = IPAddress(server_ip)
        self.port = port
        self.total_bytes = total_bytes
        # 0 = one request for everything; >0 = repeated smaller requests
        # ("continually requests and receives data").
        self.request_chunk = request_chunk or total_bytes
        self.monitor = monitor
        self.on_complete = on_complete
        self.close_when_complete = close_when_complete
        self.sock: Optional[Socket] = None
        self.received = 0
        self.requested = 0
        self.corrupt_at: Optional[int] = None
        self.completed_at: Optional[int] = None
        self.connected_at: Optional[int] = None
        self.reset_count = 0

    def on_start(self) -> None:
        """Open the listener / client connection."""
        self.sock = self.track_socket(
            self.host.tcp.connect(self.server_ip, self.port))
        # Wired directly (the handlers check ``self.alive`` themselves):
        # on_data fires once per delivered segment, so every wrapper
        # frame here is paid thousands of times per transfer.
        self.sock.on_connected = self._on_connected
        self.sock.on_data = self._on_data
        self.sock.on_reset = self._on_reset
        self.sock.on_peer_closed = self.guard_callback(
            lambda s: self.monitor and self.monitor.note_event("peer-closed"))

    # ------------------------------------------------------------ plumbing

    def _on_connected(self, sock: Socket) -> None:
        if not self.alive:
            return
        self.connected_at = self.world.sim.now
        if self.monitor is not None:
            self.monitor.note_event("connected")
        self._request_more(sock)

    def _request_more(self, sock: Socket) -> None:
        while self.requested < self.total_bytes:
            n = min(self.request_chunk, self.total_bytes - self.requested)
            sock.send(b"GET %d\n" % n)
            self.requested += n
            if self.request_chunk < self.total_bytes:
                break  # one outstanding chunk at a time

    def _on_data(self, sock: Socket) -> None:
        if not self.alive:
            return
        data = sock.read()
        if not data:
            return
        bad = verify_pattern(self.received, data)
        if bad >= 0 and self.corrupt_at is None:
            self.corrupt_at = self.received + bad
            self.world.probes.fire("app.corruption", self.name,
                                   "payload corruption", at=self.corrupt_at)
        self.received += len(data)
        if self.monitor is not None:
            self.monitor.on_bytes(len(data))
        if (self.received >= self.requested
                and self.requested < self.total_bytes):
            self._request_more(sock)
        if self.received >= self.total_bytes and self.completed_at is None:
            self.completed_at = self.world.sim.now
            if self.monitor is not None:
                self.monitor.note_event("complete")
            if self.close_when_complete and sock.is_open:
                sock.close()
            if self.on_complete is not None:
                self.on_complete()

    def _on_reset(self, sock: Socket, reason: str) -> None:
        if not self.alive:
            return
        self.reset_count += 1
        if self.monitor is not None:
            self.monitor.note_event("reset")

    @property
    def progress(self) -> float:
        """Fraction of the transfer received — the pie chart angle."""
        if self.total_bytes == 0:
            return 1.0
        return min(1.0, self.received / self.total_bytes)
