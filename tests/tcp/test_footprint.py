"""What a connection costs in memory: it pays for what it carries.

ST-TCP triples a connection's buffers by design, so the per-connection
footprint is the thing the paper's "this costs little" claim rests on.
These are deterministic gates (allocator bytes, ring sizes — no clocks):
a connection that moved a few hundred bytes holds 4 KB rings, a bulk
stream owns exactly the 64 KiB rings it always did, and a connection that
reached CLOSED hands its send ring back.
"""

import tracemalloc

import pytest

from repro.net.addresses import IPAddress
from repro.tcp.states import TcpState

from tests.tcp.conftest import pump_stream

KIB = 1024
# Measured on this tree: 17.1 KiB per established endpoint (17.6 KiB with
# REPRO_CHECK=1, whose oracle keeps per-flow state), of which 8 KiB are
# the two rings.  With both rings allocated at their 64 KiB capacity the
# same endpoint held 137.1 KiB.
ENDPOINT_CEILING_BYTES = 25 * KIB


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
        assert conn.send_buffer._alloc == conn.recv_buffer._alloc == 4 * KIB
    per_endpoint = (after - before) / len(endpoints)
    assert per_endpoint <= ENDPOINT_CEILING_BYTES, (
        f"{per_endpoint / KIB:.1f} KiB per established endpoint")


# A connection minus its two 4 KB rings: the object, its timers, buffers'
# bookkeeping, congestion and RTT state.  Measured 4.4 KiB (4,490 B) while
# the 55 attributes lived in a per-instance dict (past CPython's 30-key
# inline-values limit, so each instance carried its own hash table) and
# 3.3 KiB (3,329 B) with ``__slots__``.
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
    assert rings == len(conns) * 8 * KIB
    per_conn = (after - before - rings) / len(conns)
    assert per_conn <= RINGLESS_CEILING_BYTES, (
        f"{per_conn / KIB:.2f} KiB per connection without its rings")
    with pytest.raises(AttributeError):
        conns[0].transmitt = None       # a typo is an error, not an attribute


def test_bulk_stream_owns_full_rings_and_no_more(tcp_pair):
    """1 MB one way: the carrying rings are exactly today's 64 KiB (no
    growth past it), the idle opposite rings still at 4 KB."""
    data = bytes(i % 251 for i in range(1_000_000))
    pump_stream(tcp_pair.client_sock, data)
    tcp_pair.run(30)
    assert bytes(tcp_pair.server.data) == data
    sender = tcp_pair.client_sock.connection
    receiver = tcp_pair.server_sock.connection
    assert sender.send_buffer._alloc == 64 * KIB
    assert receiver.recv_buffer._alloc == 64 * KIB
    assert sender.recv_buffer._alloc == 4 * KIB
    assert receiver.send_buffer._alloc == 4 * KIB


def test_closed_connection_hands_its_send_ring_back(tcp_pair):
    tcp_pair.client_sock.send(b"x" * 300)
    tcp_pair.run(1)
    tcp_pair.server_sock.send(b"y" * 200)
    tcp_pair.run(2)
    tcp_pair.server_sock.on_peer_closed = lambda s: s.close()
    tcp_pair.client_sock.close()
    tcp_pair.run(200)                   # through TIME_WAIT
    for sock, sent in ((tcp_pair.client_sock, 300),
                       (tcp_pair.server_sock, 200)):
        conn = sock.connection
        assert conn.state is TcpState.CLOSED
        assert conn.send_buffer._buf is None
        # The heartbeat's progress fields still read.
        assert conn.last_app_byte_written == sent
        assert conn.last_ack_received == sent
        # The receive ring stays: the application may still drain it.
        assert conn.recv_buffer._buf is not None
        with pytest.raises(TypeError):
            conn.send_buffer.write(b"late")
