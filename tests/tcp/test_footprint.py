"""What a connection costs in memory: it holds only what it can still use.

ST-TCP triples a connection's buffers by design, so the per-connection
footprint is the thing the paper's "this costs little" claim rests on.
These are deterministic gates (allocator bytes, ring sizes — no clocks):
a connection that moved a few hundred bytes holds 512-byte rings, a bulk
stream owns exactly the 64 KiB rings it always did, a ring goes back as
soon as nothing can pass through it again (our FIN acked; the peer's FIN
consumed and read; the host powered off), and every connection of a
stack shares one frozen config.
"""

import dataclasses
import tracemalloc

import pytest

from repro.errors import ConnectionClosedError
from repro.net.addresses import IPAddress
from repro.tcp.connection import TcpConfig
from repro.tcp.states import TcpState

from tests.tcp.conftest import TcpPair, pump_stream

KIB = 1024
RING = 512      # tcp/buffers.py::_INITIAL_RING_BYTES
# Measured on this tree: 7.5 KiB per established endpoint (7.9 KiB with
# REPRO_CHECK=1, whose oracle keeps per-flow state), of which 1 KiB is the
# two rings.  With 4 KB first rings and a config copied per connection
# the same endpoint held 14.9 KiB (15.3); with both rings allocated at
# their 64 KiB capacity, 137.1 KiB.
ENDPOINT_CEILING_BYTES = 9 * KIB


def test_idle_connection_footprint(lan):
    """64 connections, 100 bytes each way: traced bytes per endpoint."""
    server, client = lan.hosts
    count = 64
    accepted, replies = [], []

    def on_accept(sock):
        accepted.append(sock)
        sock.on_data = lambda s: s.send(s.read())

    server.tcp.listen(80, on_accept)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        socks = [client.tcp.connect(IPAddress("10.0.0.1"), 80)
                 for _ in range(count)]
        for sock in socks:
            sock.on_connected = lambda s: s.send(bytes(100))
            sock.on_data = lambda s: replies.append(s.read())
        lan.world.run(until=2_000_000_000)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(accepted) == count and replies == [bytes(100)] * count
    endpoints = socks + accepted
    assert all(s.state is TcpState.ESTABLISHED for s in endpoints)
    for sock in endpoints:
        conn = sock.connection
        assert conn.send_buffer._alloc == conn.recv_buffer._alloc == RING
    per_endpoint = (after - before) / len(endpoints)
    assert per_endpoint <= ENDPOINT_CEILING_BYTES, (
        f"{per_endpoint / KIB:.1f} KiB per established endpoint")


# A connection minus its two 512-byte rings: the object, its timers,
# buffers' bookkeeping, congestion and RTT state.  Measured 4.4 KiB
# (4,490 B) while the 55 attributes lived in a per-instance dict (past
# CPython's 30-key inline-values limit, so each instance carried its own
# hash table) and 3.3 KiB (3,329 B) with ``__slots__``.
RINGLESS_CEILING_BYTES = 3.6 * KIB


def test_ringless_connection_footprint(world):
    from repro.tcp.connection import TcpConnection

    here, there = IPAddress("10.0.0.1"), IPAddress("10.0.0.2")

    def connection(i):
        return TcpConnection(world, f"c{i}", here, 80, there, 1024 + i)

    warm = [connection(i) for i in range(8)]
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        conns = [connection(100 + i) for i in range(256)]
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not hasattr(conns[0], "__dict__") and warm
    rings = sum(len(c.send_buffer._buf) + len(c.recv_buffer._buf)
                for c in conns)
    assert rings == len(conns) * 2 * RING
    per_conn = (after - before - rings) / len(conns)
    assert per_conn <= RINGLESS_CEILING_BYTES, (
        f"{per_conn / KIB:.2f} KiB per connection without its rings")
    with pytest.raises(AttributeError):
        conns[0].transmitt = None       # a typo is an error, not an attribute


def test_bulk_stream_owns_full_rings_and_no_more(tcp_pair):
    """1 MB one way: the carrying rings are exactly today's 64 KiB (no
    growth past it), the idle opposite rings still at their first size."""
    data = bytes(i % 251 for i in range(1_000_000))
    pump_stream(tcp_pair.client_sock, data)
    tcp_pair.run(30)
    assert bytes(tcp_pair.server.data) == data
    sender = tcp_pair.client_sock.connection
    receiver = tcp_pair.server_sock.connection
    assert sender.send_buffer._alloc == 64 * KIB
    assert receiver.recv_buffer._alloc == 64 * KIB
    assert sender.recv_buffer._alloc == RING
    assert receiver.send_buffer._alloc == RING


def test_acked_fin_hands_the_send_ring_back(tcp_pair):
    """The client closes, the server does not: the client sits in
    FIN_WAIT_2 with nothing left to retransmit, and no send ring; the
    server, which read everything up to the FIN, keeps only the ring it
    can still send from."""
    tcp_pair.client_sock.send(b"x" * 300)
    tcp_pair.run(1)
    tcp_pair.client_sock.close()
    tcp_pair.run(2)
    client = tcp_pair.client_sock.connection
    server = tcp_pair.server_sock.connection
    assert client.state is TcpState.FIN_WAIT_2
    assert client.send_buffer._buf is None
    assert client.recv_buffer._buf is not None   # the server may still send
    # The heartbeat's progress fields still read.
    assert client.last_app_byte_written == client.last_ack_received == 300
    with pytest.raises(TypeError):
        client.send_buffer.write(b"late")
    with pytest.raises(ConnectionClosedError):
        client.write(b"late")

    assert server.state is TcpState.CLOSE_WAIT
    assert bytes(tcp_pair.server.data) == b"x" * 300
    assert server.recv_buffer._buf is None
    assert server.last_byte_received == server.last_app_byte_read == 300
    # A half-closed connection still carries the other way.
    tcp_pair.server_sock.send(b"y" * 200)
    tcp_pair.run(3)
    assert bytes(tcp_pair.client.data) == b"y" * 200


def test_closed_connection_hands_its_send_ring_back(tcp_pair):
    """Both ways, both closed, through TIME_WAIT: no ring is left, and the
    progress fields still read."""
    tcp_pair.client_sock.send(b"x" * 300)
    tcp_pair.run(1)
    tcp_pair.server_sock.send(b"y" * 200)
    tcp_pair.run(2)
    tcp_pair.server_sock.on_peer_closed = lambda s: s.close()
    tcp_pair.client_sock.close()
    tcp_pair.run(200)                   # through TIME_WAIT
    for sock, sent, got in ((tcp_pair.client_sock, 300, 200),
                            (tcp_pair.server_sock, 200, 300)):
        conn = sock.connection
        assert conn.state is TcpState.CLOSED
        assert conn.send_buffer._buf is None
        assert conn.recv_buffer._buf is None         # it read up to the FIN
        assert conn.last_app_byte_written == conn.last_ack_received == sent
        assert conn.last_app_byte_read == got
        with pytest.raises(TypeError):
            conn.send_buffer.write(b"late")


def test_an_unread_receive_ring_stays_until_it_is_read(tcp_pair):
    tcp_pair.run(1)
    tcp_pair.server_sock.on_data = lambda s: None    # the app reads later
    tcp_pair.client_sock.send(b"x" * 300)
    tcp_pair.client_sock.close()
    tcp_pair.run(2)
    server = tcp_pair.server_sock.connection
    assert server.state is TcpState.CLOSE_WAIT and server.peer_fin_consumed
    assert server.recv_buffer._buf is not None
    assert tcp_pair.server_sock.read(100) == b"x" * 100
    assert server.recv_buffer._buf is not None       # 200 bytes still unread
    assert tcp_pair.server_sock.read() == b"x" * 200
    assert server.recv_buffer._buf is None
    assert tcp_pair.server_sock.read() == b""
    assert server.last_app_byte_read == 300


def test_a_powered_off_host_holds_no_rings(lan):
    """A crashed machine's memory is gone: every connection on it, busy or
    idle, unread data or not, gives its rings back; the offsets the
    heartbeat reads stay."""
    server, client = lan.hosts
    accepted = []

    def on_accept(sock):
        accepted.append(sock)
        sock.on_data = lambda s: None                # never read

    server.tcp.listen(80, on_accept)
    socks = [client.tcp.connect(IPAddress("10.0.0.1"), 80) for _ in range(8)]
    for sock in socks:
        pump_stream(sock, bytes(20_000))
    lan.world.run(until=1_000_000_000)
    held = [(s.connection.last_byte_received, s.connection.last_ack_received)
            for s in accepted]
    assert len(accepted) == 8 and all(rcvd > 0 for rcvd, _ in held)
    server.power_off()
    lan.world.run(until=3_000_000_000)
    for sock, progress in zip(accepted, held):
        conn = sock.connection
        assert conn.send_buffer._buf is None and conn.recv_buffer._buf is None
        assert (conn.last_byte_received, conn.last_ack_received) == progress
    assert all(s.connection.send_buffer._buf is not None for s in socks)


def test_connections_share_one_frozen_config(lan):
    """A stack hands its config — or its listener's — to every connection
    it opens, instead of a copy each; sharing is safe because no field can
    be assigned."""
    server, client = lan.hosts
    tuned = dataclasses.replace(server.tcp.config, delayed_ack=True)
    pair = TcpPair(lan, server_config=tuned)
    second = TcpPair(lan, port=81)
    pair.run(1)
    second.run(1)
    assert pair.client_sock.connection.config is client.tcp.config
    assert second.client_sock.connection.config is client.tcp.config
    assert pair.server_sock.connection.config is tuned
    assert second.server_sock.connection.config is server.tcp.config
    with pytest.raises(dataclasses.FrozenInstanceError):
        client.tcp.config.mss = 536
    with pytest.raises(dataclasses.FrozenInstanceError):
        TcpConfig().recv_buffer_bytes += 1
