"""Unit tests for the TCP stack: demux, listeners, ST-TCP hooks."""

import pytest

from repro.errors import PortInUseError
from repro.net.addresses import IPAddress
from repro.sim.core import seconds
from repro.tcp.extension import TcpExtension
from repro.tcp.segment import TcpFlags, TcpSegment
from repro.tcp.stack import TcpStack
from repro.tcp.states import TcpState

from tests.tcp.conftest import Collector, TcpPair


def test_flag_rendering_table_covers_every_combination():
    names = (("SYN", TcpFlags.SYN), ("ACK", TcpFlags.ACK),
             ("FIN", TcpFlags.FIN), ("RST", TcpFlags.RST),
             ("PSH", TcpFlags.PSH))
    for flags in range(32):
        expected = "|".join(n for n, bit in names if flags & bit) or "-"
        assert TcpFlags.describe(flags) == expected
    assert TcpFlags.describe(TcpFlags.SYN | TcpFlags.ACK) == "SYN|ACK"


def test_listener_port_conflict(lan):
    lan.hosts[0].tcp.listen(80, lambda s: None)
    with pytest.raises(PortInUseError):
        lan.hosts[0].tcp.listen(80, lambda s: None)


def test_listener_close_frees_port(lan):
    listener = lan.hosts[0].tcp.listen(80, lambda s: None)
    listener.close()
    lan.hosts[0].tcp.listen(80, lambda s: None)


def test_listener_specific_ip_binding(lan):
    host = lan.hosts[0]
    service = IPAddress("10.0.0.100")
    host.interfaces[0].add_address(service)
    hits = []
    host.tcp.listen(80, hits.append, ip=service)
    # Connection to the machine address finds no listener -> RST.
    client = Collector()
    client.attach(lan.hosts[1].tcp.connect(IPAddress("10.0.0.1"), 80))
    lan.world.run(until=seconds(1))
    assert any(e.startswith("reset") for e in client.events)
    # Connection to the service address succeeds.
    client2 = Collector()
    client2.attach(lan.hosts[1].tcp.connect(service, 80))
    lan.world.run(until=seconds(2))
    assert len(hits) == 1


def test_find_listener_wildcard(lan):
    host = lan.hosts[0]
    listener = host.tcp.listen(80, lambda s: None)  # ip=None wildcard
    assert host.tcp.find_listener(IPAddress("10.0.0.1"), 80) is listener
    assert host.tcp.find_listener(IPAddress("10.0.0.99"), 80) is listener
    assert host.tcp.find_listener(IPAddress("10.0.0.1"), 81) is None


class _Recorder(TcpExtension):
    """A stack extension that records accepts and swallows what it is
    told to."""

    def __init__(self, filters=False):
        self.filters = filters
        self.seen, self.swallowed = [], []

    def accepted(self, conn, socket, listener):
        self.seen.append((conn, socket, listener))

    def filter_segment(self, segment, src_ip, dst_ip):
        self.swallowed.append(segment)
        return True


def test_extension_hears_each_accepted_connection(lan):
    host = lan.hosts[0]
    host.tcp.listen(80, lambda s: None)
    host.tcp.ext = recorder = _Recorder()
    seen = recorder.seen
    client = Collector()
    client.attach(lan.hosts[1].tcp.connect(IPAddress("10.0.0.1"), 80))
    lan.world.run(until=seconds(1))
    assert len(seen) == 1
    conn, sock, listener = seen[0]
    assert conn.local_port == 80


def test_extension_filter_intercepts(lan):
    host = lan.hosts[0]
    host.tcp.listen(80, lambda s: None)
    host.tcp.ext = recorder = _Recorder(filters=True)
    swallowed = recorder.swallowed
    client = Collector()
    client.attach(lan.hosts[1].tcp.connect(IPAddress("10.0.0.1"), 80))
    lan.world.run(until=seconds(1))
    assert len(swallowed) >= 1           # SYN(s) captured
    assert len(host.tcp.connections) == 0


def test_an_extension_that_overrides_nothing_changes_nothing(lan):
    """Loaded on the stack and on the connection but overriding no hook,
    a TcpExtension leaves TCP stock: the accept notice, the future-ack
    hook and the FIN/RST gate all decline, so an ack for data never sent
    is ignored, and data, FIN and RST leave as on a plain connection."""
    lan.hosts[0].tcp.ext = TcpExtension()
    pair = TcpPair(lan)
    pair.run(0.5)
    conn = pair.server_sock.connection
    conn.ext = TcpExtension()
    assert pair.server_sock.send(b"x" * 3000) == 3000
    pair.run(1)
    assert bytes(pair.client.data) == b"x" * 3000
    acked = conn.snd_una_off
    conn.segment_arrived(TcpSegment(
        pair.client_sock.local_address[1], 80,
        seq=(conn.irs + 1 + conn.recv_buffer.rcv_next) & 0xFFFFFFFF,
        ack=(conn.iss + 1 + acked + 100) & 0xFFFFFFFF,
        flags=TcpFlags.ACK, window=65535))
    assert conn.snd_una_off == acked == 3000
    pair.server_sock.close()
    pair.run(1.5)
    assert "peer-closed" in pair.client.events
    pair.server_sock.abort()
    pair.run(2)
    assert conn.rst_sent
    assert [e for e in pair.client.events if e.startswith("reset")]


def test_create_tap_connection_uses_given_isn(lan):
    host = lan.hosts[0]
    conn, sock = host.tcp.create_tap_connection(
        IPAddress("10.0.0.1"), 80, IPAddress("10.0.0.2"), 50000, isn=777)
    assert conn.iss == 777
    assert conn.state is TcpState.LISTEN
    assert host.tcp.get_connection(IPAddress("10.0.0.1"), 80,
                                   IPAddress("10.0.0.2"), 50000) is conn
    assert host.tcp.connection_by_value(
        IPAddress("10.0.0.1").value, 80,
        IPAddress("10.0.0.2").value, 50000) is conn


def test_tap_connection_accepts_syn_with_matching_isn(lan, monkeypatch):
    host = lan.hosts[0]
    sent = []
    # The stack hands each connection its wire at construction.
    monkeypatch.setattr(TcpStack, "_transmitter",
                        lambda self, local_ip, remote_ip: sent.append)
    conn, _sock = host.tcp.create_tap_connection(
        IPAddress("10.0.0.1"), 80, IPAddress("10.0.0.2"), 50000, isn=777)
    syn = TcpSegment(50000, 80, seq=1000, ack=0, flags=TcpFlags.SYN,
                     window=65535)
    conn.segment_arrived(syn)
    assert conn.state is TcpState.SYN_RCVD
    assert sent[0].seq == 777
    assert sent[0].syn and sent[0].ack_flag


def test_rst_sent_for_unknown_flow(lan):
    host0, host1 = lan.hosts
    client = Collector()
    client.attach(host1.tcp.connect(IPAddress("10.0.0.1"), 12345))
    lan.world.run(until=seconds(1))
    assert host0.tcp.rsts_sent >= 1
    assert any(e.startswith("reset") for e in client.events)


def test_no_rst_for_rst(lan):
    """RST segments to unknown flows must not generate RST replies
    (no RST storms)."""
    host0, host1 = lan.hosts
    from repro.net.packet import IPProtocol
    rst = TcpSegment(1234, 5678, seq=1, ack=0, flags=TcpFlags.RST, window=0)
    host1.ip.send(IPAddress("10.0.0.1"), IPProtocol.TCP, rst)
    lan.world.run(until=seconds(1))
    assert host0.tcp.rsts_sent == 0


def test_ephemeral_ports_unique(lan):
    host = lan.hosts[1]
    lan.hosts[0].tcp.listen(80, lambda s: None)
    socks = [host.tcp.connect(IPAddress("10.0.0.1"), 80) for _ in range(5)]
    ports = {s.connection.local_port for s in socks}
    assert len(ports) == 5


def test_freeze_stops_timers_and_processing(lan):
    host0, host1 = lan.hosts
    host0.tcp.listen(80, lambda s: None)
    client = Collector()
    client.attach(host1.tcp.connect(IPAddress("10.0.0.1"), 80))
    lan.world.run(until=seconds(1))
    host1.tcp.freeze()
    # Frozen stack ignores inbound segments entirely.
    before = client.socket.connection.segments_received
    lan.hosts[0].tcp.connections[0].segment_arrived  # server still alive
    client.socket.connection.segment_arrived  # attribute exists
    lan.world.run(until=seconds(2))
    assert client.socket.connection.segments_received == before


def test_connect_requires_local_address(world):
    from repro.errors import TcpError
    from repro.host.host import Host
    host = Host(world, "lonely")
    with pytest.raises(TcpError):
        host.tcp.connect(IPAddress("10.0.0.1"), 80)
