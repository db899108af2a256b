"""End-to-end tests of connection establishment."""

from repro.net.addresses import IPAddress
from repro.sim.core import seconds
from repro.tcp.states import TcpState

from tests.tcp.conftest import Collector, TcpPair


def test_three_way_handshake(tcp_pair):
    tcp_pair.run(1)
    assert tcp_pair.client_sock.state is TcpState.ESTABLISHED
    assert tcp_pair.server_sock.state is TcpState.ESTABLISHED
    assert "connected" in tcp_pair.client.events
    assert "connected" in tcp_pair.server.events


def test_isns_are_random_but_deterministic(lan):
    isn1 = lan.hosts[0].tcp.generate_isn()
    isn2 = lan.hosts[0].tcp.generate_isn()
    assert isn1 != isn2
    assert 0 <= isn1 < (1 << 32)


def test_connect_to_closed_port_resets(lan):
    client = Collector()
    client.attach(lan.hosts[1].tcp.connect(IPAddress("10.0.0.1"), 9999))
    lan.world.run(until=seconds(2))
    assert any(e.startswith("reset") for e in client.events)
    assert client.socket.state is TcpState.CLOSED


def test_connect_to_dead_host_times_out(lan):
    lan.hosts[0].power_off()
    client = Collector()
    client.attach(lan.hosts[1].tcp.connect(IPAddress("10.0.0.1"), 80))
    # 6 SYN retries with exponential backoff: 1+2+4+8+16+32+64 ~= 127s
    lan.world.run(until=seconds(200))
    assert client.socket.state is TcpState.CLOSED
    assert any(e.startswith("reset") for e in client.events)
    assert "connected" not in client.events


def test_syn_retransmission_survives_loss(world):
    from tests.conftest import make_lan
    lan = make_lan(world, loss_rate=0.25)
    pair = TcpPair(lan)
    pair.run(90)
    assert pair.client_sock.state is TcpState.ESTABLISHED


def test_data_flows_immediately_after_connect(tcp_pair):
    tcp_pair.client_sock.send(b"hello")
    tcp_pair.run(1)
    assert bytes(tcp_pair.server.data) == b"hello"


def test_server_learns_client_address(tcp_pair):
    tcp_pair.run(1)
    remote_ip, remote_port = tcp_pair.server_sock.remote_address
    assert remote_ip == IPAddress("10.0.0.2")
    assert remote_port >= 49152


def test_multiple_connections_same_listener(lan):
    accepted = []
    lan.hosts[0].tcp.listen(80, lambda sock: accepted.append(sock))
    c1 = Collector()
    c2 = Collector()
    c1.attach(lan.hosts[1].tcp.connect(IPAddress("10.0.0.1"), 80))
    c2.attach(lan.hosts[1].tcp.connect(IPAddress("10.0.0.1"), 80))
    lan.world.run(until=seconds(1))
    assert len(accepted) == 2
    ports = {sock.remote_address[1] for sock in accepted}
    assert len(ports) == 2  # distinct ephemeral ports


def test_duplicate_syn_in_established_is_ignored(tcp_pair):
    """A stray duplicate SYN after establishment must not disturb state."""
    tcp_pair.run(1)
    conn = tcp_pair.accepted[0].connection
    from repro.tcp.segment import TcpFlags, TcpSegment
    dup_syn = TcpSegment(conn.remote_port, conn.local_port,
                         seq=conn.irs, ack=0, flags=TcpFlags.SYN,
                         window=65535)
    conn.segment_arrived(dup_syn)
    assert conn.state is TcpState.ESTABLISHED


def test_lost_synack_recovers_via_syn_rcvd_retransmit(world):
    """If the SYN-ACK is lost, the server's SYN_RCVD retransmission timer
    re-sends it and the handshake completes."""
    from tests.conftest import make_lan
    lan = make_lan(world)
    pair = TcpPair(lan)
    # Drop exactly the first server->client frame (the SYN-ACK).
    dropped = {"done": False}

    def lossy_transmit(sender, frame):
        payload = getattr(frame.payload, "payload", None)
        if (not dropped["done"] and payload is not None
                and getattr(payload, "syn", False)
                and getattr(payload, "ack_flag", False)):
            dropped["done"] = True
            return ()
        return (0,)

    lan.cables[0].impair = lossy_transmit
    pair.run(10)
    assert dropped["done"]
    assert pair.client_sock.state is TcpState.ESTABLISHED
    assert pair.server_sock.state is TcpState.ESTABLISHED
