"""Per-host TCP stack: demultiplexing, listeners, ISN generation.

ST-TCP integration points:

* :attr:`TcpStack.ext` — the host's engine (``None`` on a plain host):
  the backup's filters segments for tapped service ports that have no
  connection yet (buffering the SYN and early data until the primary's
  CONN_INIT arrives); the primary's replicates each accepted connection;
* :meth:`TcpStack.create_tap_connection` — the backup engine materializes
  the replica connection with the *primary's* ISN.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from repro.errors import PortInUseError, TcpError
from repro.net.addresses import IPAddress
from repro.net.ip import IpStack
from repro.net.packet import IPPacket, IPProtocol
from repro.sim.world import World
from repro.tcp.connection import TcpConfig, TcpConnection
from repro.tcp.segment import TcpFlags, TcpSegment
from repro.tcp.seq import seq_add
from repro.tcp.sockets import Listener, Socket

__all__ = ["TcpStack"]

ConnKey = tuple  # (local_ip, local_port, remote_ip, remote_port)


class TcpStack:
    """All TCP endpoints of one host."""

    __slots__ = ("_world", "_ip", "name", "config", "_connections",
                 "_conn_by_value", "_listeners", "_next_ephemeral",
                 "_isn_rng", "_frozen", "ext", "segments_demuxed",
                 "rsts_sent", "__weakref__")

    EPHEMERAL_BASE = 49152

    def __init__(self, world: World, ip_stack: IpStack, name: str,
                 config: Optional[TcpConfig] = None):
        self._world = world
        self._ip = ip_stack
        self.name = name
        self.config = config or TcpConfig()
        self._connections: dict[ConnKey, TcpConnection] = {}
        # Demux fast path: the same connections keyed by raw int 4-tuples
        # (dst_value, dst_port, src_value, src_port).  Hashing four ints
        # beats hashing two IPAddress objects on every inbound segment.
        self._conn_by_value: dict[tuple, TcpConnection] = {}
        self._listeners: list[Listener] = []
        self._next_ephemeral = self.EPHEMERAL_BASE
        self._isn_rng = world.rng.stream(f"tcp.isn.{name}")
        self._frozen = False
        ip_stack.register_protocol(IPProtocol.TCP, self._on_packet)
        self.ext = None  # the loaded repro.tcp.extension.TcpExtension

        self.segments_demuxed = 0
        self.rsts_sent = 0

    # ------------------------------------------------------------- queries

    def get_connection(self, local_ip: IPAddress, local_port: int,
                       remote_ip: IPAddress, remote_port: int
                       ) -> Optional[TcpConnection]:
        """Look a connection up by its 4-tuple (or None)."""
        return self._connections.get(
            (local_ip, local_port, remote_ip, remote_port))

    def connection_by_value(self, local_value: int, local_port: int,
                            remote_value: int, remote_port: int
                            ) -> Optional[TcpConnection]:
        """:meth:`get_connection` by the demux key — raw int addresses, so
        a per-segment caller hashes four ints and no ``IPAddress``."""
        return self._conn_by_value.get(
            (local_value, local_port, remote_value, remote_port))

    @property
    def connections(self) -> list[TcpConnection]:
        """Snapshot of all live connections."""
        return list(self._connections.values())

    def find_listener(self, ip: IPAddress, port: int) -> Optional[Listener]:
        """The listener covering (ip, port), honouring wildcards."""
        for listener in self._listeners:
            if listener.port == port and (listener.ip is None
                                          or listener.ip == ip):
                return listener
        return None

    # ------------------------------------------------------------ open APIs

    def listen(self, port: int, on_accept: Callable[[Socket], None],
               ip: Optional[IPAddress] = None,
               config: Optional[TcpConfig] = None) -> Listener:
        """Passive open; ``on_accept`` receives a Socket per new connection."""
        for existing in self._listeners:
            if existing.port == port and existing.ip == ip:
                raise PortInUseError(f"{self.name}: port {port} already listening")
        listener = Listener(self, ip, port, on_accept, config)
        self._listeners.append(listener)
        return listener

    def connect(self, remote_ip: IPAddress, remote_port: int,
                local_ip: Optional[IPAddress] = None,
                local_port: Optional[int] = None,
                config: Optional[TcpConfig] = None) -> Socket:
        """Active open; returns the socket immediately (SYN in flight)."""
        if local_ip is None:
            addrs = sorted(self._ip.local_addresses())
            if not addrs:
                raise TcpError(f"{self.name}: no local IP address")
            local_ip = addrs[0]
        if local_port is None:
            local_port = self._alloc_ephemeral_port(local_ip, remote_ip,
                                                    remote_port)
        conn = self._new_connection(local_ip, local_port, remote_ip,
                                    remote_port, config)
        socket = Socket(conn, on_cleanup=self._cleanup_socket)
        conn.open_active(self.generate_isn())
        return socket

    def create_tap_connection(self, local_ip: IPAddress, local_port: int,
                              remote_ip: IPAddress, remote_port: int,
                              isn: int,
                              config: Optional[TcpConfig] = None
                              ) -> tuple[TcpConnection, Socket]:
        """ST-TCP backup: build a passive connection that will accept a SYN
        from exactly one peer, answering with the *given* ISN (the
        primary's), so replica sequence numbers match the live connection."""
        conn = self._new_connection(local_ip, local_port, remote_ip,
                                    remote_port, config)
        socket = Socket(conn, on_cleanup=self._cleanup_socket)
        conn.open_passive(isn)
        return conn, socket

    def generate_isn(self) -> int:
        """Draw a random 32-bit initial sequence number."""
        return self._isn_rng.randrange(1 << 32)

    def freeze(self) -> None:
        """Host crash: stop every connection's timers, drop all processing,
        and hand every ring back — a dead machine's memory is gone, while
        its connections' offsets stay readable."""
        self._frozen = True
        for conn in self._connections.values():
            for timer in (conn._rtx_timer, conn._persist_timer,
                          conn._delack_timer, conn._timewait_timer):
                timer.stop()
            conn.send_buffer.discard()
            conn.recv_buffer.discard()

    # --------------------------------------------------------------- wiring

    def _alloc_ephemeral_port(self, local_ip, remote_ip, remote_port) -> int:
        for _ in range(16384):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral >= 65536:
                self._next_ephemeral = self.EPHEMERAL_BASE
            if (local_ip, port, remote_ip, remote_port) not in self._connections:
                return port
        raise TcpError(f"{self.name}: ephemeral ports exhausted")

    def _new_connection(self, local_ip, local_port, remote_ip, remote_port,
                        config: Optional[TcpConfig]) -> TcpConnection:
        key = (local_ip, local_port, remote_ip, remote_port)
        if key in self._connections:
            raise TcpError(f"{self.name}: connection {key} already exists")
        conn = TcpConnection(
            self._world,
            name=f"{self.name}.{local_ip}:{local_port}-{remote_ip}:{remote_port}",
            local_ip=local_ip, local_port=local_port,
            remote_ip=remote_ip, remote_port=remote_port,
            config=config or self.config,  # frozen, so shared
            transmit=self._transmitter(local_ip, remote_ip))
        self._connections[key] = conn
        self._conn_by_value[(local_ip._value, local_port,
                             remote_ip._value, remote_port)] = conn
        return conn

    def _transmitter(self, local_ip, remote_ip):
        # partial over a bound method, not a lambda: no Python frame on
        # the per-segment transmit path, and it pickles (world snapshots).
        return partial(self._ip.send, remote_ip, IPProtocol.TCP,
                       src=local_ip)

    def _cleanup_socket(self, socket: Socket) -> None:
        conn = socket.connection
        key = (conn.local_ip, conn.local_port, conn.remote_ip, conn.remote_port)
        existing = self._connections.get(key)
        if existing is conn:
            del self._connections[key]
            del self._conn_by_value[(conn.local_ip._value, conn.local_port,
                                     conn.remote_ip._value, conn.remote_port)]

    def _remove_listener(self, listener: Listener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    # ---------------------------------------------------------------- demux

    def _on_packet(self, packet: IPPacket) -> None:
        segment = packet.payload
        if ((type(segment) is not TcpSegment
             and not isinstance(segment, TcpSegment)) or self._frozen):
            return
        ext = self.ext
        if (ext is not None and ext.filters
                and ext.filter_segment(segment, packet.src, packet.dst)):
            return
        self.segments_demuxed += 1
        conn = self._conn_by_value.get(
            (packet.dst._value, segment.dst_port,
             packet.src._value, segment.src_port))
        if conn is not None:
            # The wire's claim on the delivering frame holds the segment
            # for the whole of this call.
            conn.segment_arrived(segment)
            return
        listener = self.find_listener(packet.dst, segment.dst_port)
        if listener is not None and segment.syn and not segment.ack_flag:
            self._accept(listener, packet, segment)
            return
        if not segment.rst:
            self._send_rst_for(packet, segment)

    def _accept(self, listener: Listener, packet: IPPacket,
                segment: TcpSegment) -> None:
        conn = self._new_connection(packet.dst, segment.dst_port,
                                    packet.src, segment.src_port,
                                    listener.config)
        socket = Socket(conn, on_cleanup=self._cleanup_socket)
        conn.open_passive(self.generate_isn())
        listener.accepted_count += 1
        self._world.probes.fire("tcp.accept", self.name,
                                port=segment.dst_port, peer=str(packet.src))
        # Let the application install its callbacks, then notify the
        # extension (the ST-TCP primary), then feed the SYN (sends the
        # SYN-ACK).
        listener.on_accept(socket)
        if self.ext is not None:
            self.ext.accepted(conn, socket, listener)
        conn.segment_arrived(segment)

    def _send_rst_for(self, packet: IPPacket, segment: TcpSegment) -> None:
        """RFC 793 reset for a segment that matches no endpoint."""
        self.rsts_sent += 1
        if segment.ack_flag:
            rst = TcpSegment(segment.dst_port, segment.src_port,
                             seq=segment.ack, ack=0, flags=TcpFlags.RST,
                             window=0)
        else:
            ack = seq_add(segment.seq, segment.seq_space)
            rst = TcpSegment(segment.dst_port, segment.src_port, seq=0,
                             ack=ack, flags=TcpFlags.RST | TcpFlags.ACK,
                             window=0)
        self._world.probes.fire("tcp.rst", self.name, "RST for unknown flow",
                                dst_port=segment.dst_port)
        self._ip.send(packet.src, IPProtocol.TCP, rst, src=packet.dst)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TcpStack {self.name} conns={len(self._connections)} "
                f"listeners={len(self._listeners)}>")
