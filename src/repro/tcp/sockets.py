"""Application-facing socket objects.

A :class:`Socket` wraps one :class:`~repro.tcp.connection.TcpConnection`
with callback-style I/O.  ST-TCP integration point: :meth:`Socket.close`
and :meth:`Socket.abort` first ask ``conn.ext``, so the primary can delay
an application- or OS-generated FIN or RST per the MaxDelayFIN rules of
paper Sec. 4.2.2 without the application being aware.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.tcp.connection import TcpConnection
from repro.tcp.states import TcpState

__all__ = ["Socket", "Listener"]


class Socket:
    """One endpoint of a TCP connection, as seen by an application.

    All callbacks receive the socket itself, so one application object can
    serve many sockets.
    """

    def __init__(self, conn: TcpConnection,
                 on_cleanup: Optional[Callable[["Socket"], None]] = None):
        self._conn = conn
        self._on_cleanup = on_cleanup
        # Application callbacks (assign directly).
        self.on_connected: Callable[[Socket], None] = lambda sock: None
        self.on_data: Callable[[Socket], None] = lambda sock: None
        self.on_peer_closed: Callable[[Socket], None] = lambda sock: None
        self.on_closed: Callable[[Socket], None] = lambda sock: None
        self.on_reset: Callable[[Socket, str], None] = lambda sock, reason: None
        self.on_writable: Callable[[Socket], None] = lambda sock: None

        conn.on_established = lambda: self.on_connected(self)
        conn.on_data_available = lambda: self.on_data(self)
        conn.on_peer_fin = lambda: self.on_peer_closed(self)
        conn.on_closed = self._handle_closed
        conn.on_reset = lambda reason: self.on_reset(self, reason)
        conn.on_writable = lambda: self.on_writable(self)

    # ------------------------------------------------------------- queries

    @property
    def connection(self) -> TcpConnection:
        """The underlying connection (ST-TCP and tests reach through)."""
        return self._conn

    @property
    def state(self) -> TcpState:
        """Current TCP state of the underlying connection."""
        return self._conn.state

    @property
    def is_open(self) -> bool:
        """True until the connection fully closes."""
        return self._conn.state not in (TcpState.CLOSED, TcpState.TIME_WAIT)

    @property
    def readable_bytes(self) -> int:
        """In-order bytes available to read now."""
        return self._conn.readable_bytes

    @property
    def writable_bytes(self) -> int:
        """Send-buffer space available now."""
        return self._conn.writable_bytes

    @property
    def local_address(self) -> tuple:
        """(local_ip, local_port)."""
        return (self._conn.local_ip, self._conn.local_port)

    @property
    def remote_address(self) -> tuple:
        """(remote_ip, remote_port)."""
        return (self._conn.remote_ip, self._conn.remote_port)

    # ----------------------------------------------------------------- I/O

    def send(self, data: bytes) -> int:
        """Queue bytes for transmission; returns how many were accepted."""
        return self._conn.write(data)

    def read(self, max_bytes: Optional[int] = None) -> bytes:
        """Consume received in-order bytes (may return ``b""``)."""
        return self._conn.read(max_bytes)

    def close(self) -> None:
        """Graceful close (FIN).  The ST-TCP primary may delay the FIN."""
        ext = self._conn.ext
        if ext is not None and ext.intercept_close(self):
            return
        self._conn.close()

    def abort(self) -> None:
        """Hard close (RST).  The ST-TCP primary may delay the RST."""
        ext = self._conn.ext
        if ext is not None and ext.intercept_abort(self):
            return
        self._conn.abort()

    def _handle_closed(self) -> None:
        if self._on_cleanup is not None:
            self._on_cleanup(self)
        self.on_closed(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Socket {self._conn.name} {self.state.value}>"


class Listener:
    """A passive open on (ip, port); accepted sockets flow to ``on_accept``."""

    def __init__(self, stack, ip, port: int,
                 on_accept: Callable[[Socket], None], config=None):
        self._stack = stack
        self.ip = ip                    # None = any local address
        self.port = port
        self.on_accept = on_accept
        self.config = config
        self.accepted_count = 0

    def close(self) -> None:
        """Unbind this listener from its port."""
        self._stack._remove_listener(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Listener {self.ip}:{self.port}>"
