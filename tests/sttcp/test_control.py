"""Tests for the server-to-server control messages, which ride the
heartbeat service's links."""

from repro.sttcp.config import SttcpConfig
from repro.sttcp.control import (AppFailureNotice, ConnClosed, ConnInit,
                                 FetchReply, FetchRequest)
from repro.sttcp.heartbeat import HeartbeatService


def make_service(lan, i, peer, got, serial_port=None):
    """Host ``i``'s link to host ``peer``; control messages go to ``got``."""
    return HeartbeatService(lan.world, SttcpConfig(), "primary",
                            lan.hosts[i].udp, lan.ip(i), lan.ip(peer),
                            build_heartbeat=lambda: ((), False, None),
                            on_heartbeat=lambda hb, link: None,
                            on_control=got.append, serial_port=serial_port)


def test_udp_roundtrip(lan):
    got = []
    a = make_service(lan, 0, 1, [])
    b = make_service(lan, 1, 0, got)
    message = ConnInit((1, 2), 80, 12345)
    a.send(message)
    lan.world.run()
    assert got == [message]
    assert a.messages_sent == 1
    assert b.messages_received == 1
    assert a.sent == 0   # ``sent`` counts heartbeats only


def test_third_party_messages_rejected(lan3):
    got = []
    make_service(lan3, 0, 1, got)
    # h2 (not the pair peer) sends to the control port: must be ignored.
    lan3.hosts[2].udp.send(lan3.ip(0), 7077, 7077, ConnClosed((1, 2)))
    lan3.world.run()
    assert got == []


def test_serial_mirroring(lan):
    from repro.net.serial_link import SerialLink
    h0, h1 = lan.hosts
    p0, p1 = h0.add_serial_port(), h1.add_serial_port()
    SerialLink(lan.world, p0, p1)
    got = []
    a = make_service(lan, 0, 1, [], serial_port=p0)
    b = make_service(lan, 1, 0, got, serial_port=p1)
    # Kill the IP path; the serial copy must still arrive.
    lan.cables[0].cut()
    a.send(ConnInit((1, 2), 80, 99), also_serial=True)
    lan.world.run()
    assert len(got) == 1
    assert b.received == {"ip": 0, "serial": 0}   # not taken for a HB


def test_message_sizes_are_modelled():
    assert ConnInit((1, 2), 80, 5).size_bytes > 0
    assert FetchRequest((1, 2), ((0, 10), (20, 30))).size_bytes == 24
    assert FetchReply((1, 2), 0, b"x" * 100).size_bytes == 112
    assert ConnClosed((1, 2)).size_bytes == 8
    assert AppFailureNotice("primary").size_bytes == 8


def test_fetch_reply_repr_hides_data():
    reply = FetchReply((1, 2), 0, b"secret" * 100)
    assert "secret" not in repr(reply)
