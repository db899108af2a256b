"""Connection teardown: FIN exchanges, TIME_WAIT, RST, abort."""

from repro.sim.core import seconds
from repro.tcp.connection import TcpConfig
from repro.tcp.states import TcpState

from tests.conftest import make_lan
from tests.tcp.conftest import TcpPair, pump_stream


def test_active_close_reaches_time_wait_then_closed(world):
    lan = make_lan(world)
    pair = TcpPair(lan)
    pair.run(0.1)
    pair.client_sock.close()
    pair.run(0.5)
    # Our FIN acked, peer has not closed yet: half-closed, FIN_WAIT_2.
    assert pair.client_sock.state is TcpState.FIN_WAIT_2
    assert "peer-closed" in pair.server.events
    pair.server_sock.close()
    pair.run(1)
    assert pair.client_sock.state is TcpState.TIME_WAIT
    assert pair.server_sock.state is TcpState.CLOSED
    # TIME_WAIT expires after 2*MSL (default 20s).
    pair.run(25)
    assert pair.client_sock.state is TcpState.CLOSED
    assert "closed" in pair.client.events


def test_passive_close_sequence(world):
    lan = make_lan(world)
    pair = TcpPair(lan)
    pair.run(0.1)
    pair.client_sock.close()
    pair.run(0.5)
    server_conn = pair.accepted[0].connection
    assert server_conn.state is TcpState.CLOSE_WAIT
    pair.server_sock.close()
    pair.run(1)
    assert server_conn.state is TcpState.CLOSED  # LAST_ACK acked


def test_fin_delivered_after_pending_data(world):
    lan = make_lan(world)
    pair = TcpPair(lan)
    pair.run(0.1)
    data = b"x" * 100_000
    progress = pump_stream(pair.client_sock, data)
    # Close while data still queued: every byte must still arrive.
    world.sim.schedule(1_000_000, lambda: pair.client_sock.close())
    pair.run(30)
    assert len(pair.server.data) + pair.accepted[0].readable_bytes >= progress["sent"] >= 1
    assert "peer-closed" in pair.server.events


def test_simultaneous_close(world):
    lan = make_lan(world)
    pair = TcpPair(lan)
    pair.run(0.1)
    pair.client_sock.close()
    pair.server_sock.close()
    pair.run(30)
    # Both went FIN_WAIT_1 -> CLOSING/TIME_WAIT -> CLOSED.
    pair.run(30)
    assert pair.client_sock.state is TcpState.CLOSED
    assert pair.server_sock.state is TcpState.CLOSED


def test_abort_sends_rst(world):
    lan = make_lan(world)
    pair = TcpPair(lan)
    pair.run(0.1)
    pair.client_sock.abort()
    pair.run(1)
    assert pair.client_sock.state is TcpState.CLOSED
    assert any(e.startswith("reset") for e in pair.server.events)
    assert pair.server_sock.state is TcpState.CLOSED


def test_close_is_idempotent(world):
    lan = make_lan(world)
    pair = TcpPair(lan)
    pair.run(0.1)
    pair.client_sock.close()
    pair.client_sock.close()
    pair.run(30)
    assert pair.client_sock.connection.fin_off is not None


def test_send_after_close_raises(world):
    import pytest
    from repro.errors import ConnectionClosedError
    lan = make_lan(world)
    pair = TcpPair(lan)
    pair.run(0.1)
    pair.client_sock.close()
    with pytest.raises(ConnectionClosedError):
        pair.client_sock.send(b"too late")


def test_half_close_peer_can_still_send(world):
    """After the client closes, the server may keep sending (half-close)."""
    lan = make_lan(world)
    pair = TcpPair(lan)
    pair.run(0.1)
    pair.client_sock.close()
    pair.run(0.5)
    pair.server_sock.send(b"parting words")
    pair.run(1)
    assert bytes(pair.client.data) == b"parting words"


def test_fin_retransmitted_if_lost(world):
    from repro.tcp.segment import TcpSegment
    lan = make_lan(world)
    pair = TcpPair(lan)
    pair.run(0.1)
    state = {"dropped": False}

    def drop_first_fin(sender, frame):
        segment = getattr(frame.payload, "payload", None)
        if (isinstance(segment, TcpSegment) and segment.fin
                and not state["dropped"]):
            state["dropped"] = True
            return ()
        return (0,)

    lan.cables[1].impair = drop_first_fin
    pair.client_sock.close()
    pair.run(10)
    assert state["dropped"]
    assert "peer-closed" in pair.server.events   # retransmitted FIN arrived


def test_retransmitted_fin_reacked_after_consumption(world):
    """When the ack of a FIN is lost, the retransmitted FIN must be
    re-acked even though the receiver already consumed the first copy —
    otherwise the closer camps in FIN_WAIT_1 retransmitting its FIN
    until the give-up limit resets the connection."""
    from repro.tcp.segment import TcpSegment
    lan = make_lan(world)
    pair = TcpPair(lan)
    pair.run(0.1)
    server_conn = pair.accepted[0].connection
    state = {"dropped": 0}

    def drop_fin_ack(sender, frame):
        segment = getattr(frame.payload, "payload", None)
        if (isinstance(segment, TcpSegment) and not state["dropped"]
                and server_conn.fin_sent and segment.ack_flag
                and not segment.payload and not segment.fin):
            state["dropped"] = 1
            return ()
        return (0,)

    lan.cables[1].impair = drop_fin_ack    # client -> switch
    pair.server_sock.close()       # server -> FIN_WAIT_1
    pair.run(10)
    assert state["dropped"] == 1
    # One FIN retransmission, then the client's re-ack moved us on.
    assert server_conn.state is TcpState.FIN_WAIT_2
    assert server_conn.retransmissions == 1


def test_time_wait_acks_retransmitted_fin(world):
    lan = make_lan(world)
    pair = TcpPair(lan)
    pair.run(0.1)
    pair.client_sock.close()
    pair.server_sock.close()
    pair.run(1)
    client_conn = pair.client_sock.connection
    if client_conn.state is TcpState.TIME_WAIT:
        acks_before = client_conn.acks_sent
        server_conn = pair.accepted[0].connection
        from repro.tcp.segment import TcpFlags, TcpSegment
        fin = TcpSegment(server_conn.local_port, server_conn.remote_port,
                         seq=server_conn.iss, ack=0,
                         flags=TcpFlags.FIN | TcpFlags.ACK, window=0)
        client_conn.segment_arrived(fin)
        assert client_conn.acks_sent == acks_before + 1


def test_rst_received_tears_down_immediately(world):
    lan = make_lan(world)
    pair = TcpPair(lan)
    pair.run(0.1)
    pump_stream(pair.client_sock, b"x" * 10_000)
    pair.server_sock.abort()
    pair.run(2)
    assert pair.client_sock.state is TcpState.CLOSED
    assert any(e.startswith("reset") for e in pair.client.events)


def test_closed_connection_removed_from_stack(world):
    lan = make_lan(world)
    pair = TcpPair(lan)
    pair.run(0.1)
    assert len(lan.hosts[1].tcp.connections) == 1
    pair.client_sock.abort()
    pair.run(1)
    assert len(lan.hosts[1].tcp.connections) == 0
