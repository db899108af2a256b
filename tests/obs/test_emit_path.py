"""One emit path: every event a component used to write into the trace
log is a fire of a registered probe.

Each case provokes the event for real — on the two-host LAN, a TCP pair
or the Figure-2 testbed — and observes it the way any observer would:
as a bus subscriber.  Category, source, message and fields are the ones
the ``trace.record`` call it replaced passed.
"""

from __future__ import annotations

import pytest

from repro.apps.base import pattern_bytes
from repro.apps.streaming import StreamClient
from repro.net.addresses import IPAddress, MacAddress
from repro.net.icmp import Pinger
from repro.net.serial_link import SerialLink, SerialPort
from repro.scenarios.builder import build_testbed
from repro.sim.core import millis, seconds
from repro.tcp.connection import TcpConfig

from tests.tcp.conftest import TcpPair, pump_stream


def watch(world, *probes):
    """Every fire of ``probes`` as ``(probe, source, message, fields)``."""
    seen = []
    world.probes.attach(
        (probe, lambda ev: seen.append(
            (ev.probe, ev.source, ev.message, ev.fields)))
        for probe in probes)
    return seen


# ------------------------------------------------------------ arp / ip / icmp

def test_static_arp_entry(lan):
    seen = watch(lan.world, "arp.static")
    arp = lan.hosts[0].interfaces[0].arp
    arp.add_static(IPAddress("10.0.0.100"), MacAddress("01:00:5e:00:00:64"))
    assert seen == [("arp.static", arp.name, "static entry",
                     {"ip": "10.0.0.100", "mac": "01:00:5e:00:00:64"})]


def test_arp_request_reply_and_icmp_echo(lan):
    seen = watch(lan.world, "arp.request", "arp.reply", "icmp.echo-reply")
    h0, h1 = lan.hosts
    results = []
    Pinger(lan.world, h0.icmp, lan.ip(1)).ping(results.append)
    lan.world.run()
    assert results == [True]
    assert seen == [
        ("arp.request", h0.interfaces[0].arp.name, "request",
         {"target": "10.0.0.2"}),
        ("arp.reply", h1.interfaces[0].arp.name, "reply",
         {"to": "10.0.0.1"}),
        ("icmp.echo-reply", h1.icmp.name, "echo reply", {"to": "10.0.0.1"}),
    ]
    assert {ev[0].split(".")[0] for ev in seen} == {"arp", "icmp"}


def test_unroutable_destination(lan):
    seen = watch(lan.world, "ip.unroutable")
    host = lan.hosts[0]
    host.ip.send(IPAddress("192.168.9.9"), "test", b"x")
    lan.world.run()
    assert seen == [("ip.unroutable", host.ip.name, "unroutable",
                     {"dst": "192.168.9.9"})]


@pytest.mark.parametrize("arm", ["wire", "loopback"])
def test_packet_for_an_unregistered_protocol(lan, arm):
    """Both copies of the deliver-up tail (the one inlined into
    ``receive_frame`` and the method the loopback path calls)."""
    seen = watch(lan.world, "ip.no-handler")
    h0, h1 = lan.hosts
    receiver = h1 if arm == "wire" else h0
    h0.ip.send(receiver.interfaces[0].primary_address, "nobody", b"x")
    lan.world.run()
    assert seen == [("ip.no-handler", receiver.ip.name,
                     "no protocol handler", {"protocol": "nobody"})]


# ------------------------------------------------------------------------ tcp

def test_state_sequence_of_one_open_and_close_on_both_ends(lan):
    seen = watch(lan.world, "tcp.state", "tcp.peer-fin", "tcp.closed")
    pair = TcpPair(lan)
    pair.run(0.1)
    # Active close by the client; the server closes when it sees the FIN.
    pair.server_sock.on_peer_closed = lambda s: s.close()
    pair.client_sock.send(b"hello")
    pair.client_sock.close()
    pair.run(130)  # past 2*MSL

    def states(prefix):
        return [fields["state"] for probe, source, _m, fields in seen
                if probe == "tcp.state" and source.startswith(prefix)]

    assert states("h1.") == ["SYN_SENT", "ESTABLISHED", "FIN_WAIT_1",
                             "FIN_WAIT_2", "TIME_WAIT"]
    assert states("h0.") == ["LISTEN", "SYN_RCVD", "ESTABLISHED",
                             "CLOSE_WAIT", "LAST_ACK"]
    assert all(message == "state" for probe, _s, message, _f in seen
               if probe == "tcp.state")
    fins = [(source[:3], fields) for probe, source, _m, fields in seen
            if probe == "tcp.peer-fin"]
    assert fins == [("h0.", {"off": 5}), ("h1.", {"off": 0})]
    closed = [(source[:3], fields["reason"])
              for probe, source, _m, fields in seen if probe == "tcp.closed"]
    assert closed == [("h0.", "closed cleanly"), ("h1.", "TIME_WAIT expired")]


@pytest.mark.no_invariant_check
def test_rst_received(lan):
    seen = watch(lan.world, "tcp.rst-received", "tcp.closed")
    pair = TcpPair(lan)
    pair.run(0.1)
    pair.server_sock.abort()
    pair.run(1)
    client = pair.client_sock.connection.name
    assert [ev[:3] for ev in seen] == [
        ("tcp.closed", pair.server_sock.connection.name, "closed"),
        ("tcp.rst-received", client, "rst-received"),
        ("tcp.closed", client, "closed")]
    assert seen[-1][3] == {"reason": "connection reset by peer"}
    assert pair.client.events[-2:] == ["reset:connection reset by peer",
                                       "closed"]


def test_zero_window_probe(lan):
    seen = watch(lan.world, "tcp.window-probe")
    pair = TcpPair(lan, client_config=TcpConfig(persist_min_ns=millis(100),
                                                persist_max_ns=millis(800)))
    pair.run(0.1)
    pair.server_sock.on_data = lambda s: None   # stop reading: window shuts
    pump_stream(pair.client_sock, bytes(65536 + 2000))
    pair.run(2)
    assert len(seen) >= 3
    assert {ev[:3] for ev in seen} == {
        ("tcp.window-probe", pair.client_sock.connection.name,
         "window-probe")}
    assert all(fields == {"off": 65536} for *_ev, fields in seen)


def test_retransmission_limit_gives_up_then_closes(lan):
    seen = watch(lan.world, "tcp.give-up", "tcp.closed")
    pair = TcpPair(lan, client_config=TcpConfig(max_retransmits=3))
    pair.run(0.1)
    lan.cables[0].cut()                         # the server goes silent
    pair.client_sock.send(b"into the void")
    pair.run(120)
    name = pair.client_sock.connection.name
    assert seen == [
        ("tcp.give-up", name, "give-up", {"retries": 4}),
        ("tcp.closed", name, "closed",
         {"reason": "retransmission limit exceeded"})]


# --------------------------------------------------- faults / power / the app

def test_os_crash_then_host_down(lan):
    seen = watch(lan.world, "fault.os-crash", "fault.host-down")
    lan.hosts[0].crash_os()
    assert seen == [
        ("fault.os-crash", "h0", "OS crashed", {}),
        ("fault.host-down", "h0", "host down", {"reason": "OS crash"})]
    lan.hosts[0].power_off()                    # already down: says nothing
    assert len(seen) == 2


@pytest.mark.parametrize("kind", ["cable", "serial"])
def test_a_link_reports_cut_and_repaired(world, lan, kind):
    """``SerialLink.repair()`` used to say nothing (``Cable`` said both)."""
    seen = watch(world, "fault.link")
    link = (lan.cables[0] if kind == "cable" else
            SerialLink(world, SerialPort(world, "a"), SerialPort(world, "b")))
    noun = "cable" if kind == "cable" else "serial link"
    link.cut()
    assert link.is_cut
    link.repair()
    assert not link.is_cut
    assert seen == [
        ("fault.link", link.name, f"{noun} cut", {"state": "cut"}),
        ("fault.link", link.name, f"{noun} repaired", {"state": "repaired"})]


def test_power_down_requested_names_initiator_and_target():
    tb = build_testbed(seed=1)
    seen = watch(tb.world, "power.down-requested", "fault.host-down")
    tb.power_strip.power_down(tb.primary, initiator="backup.sttcp")
    tb.run_for(0.1)
    assert seen == [
        ("power.down-requested", "backup.sttcp", "power-down requested",
         {"target": "primary"}),
        ("fault.host-down", "primary", "host down", {"reason": "power off"})]
    # Both are milestones: the testbed's own list kept them too.
    assert [e.probe for e in tb.world.trace] == [ev[0] for ev in seen]


@pytest.mark.no_invariant_check
def test_corrupted_stream_byte(lan):
    """A server that gets byte 700 wrong: the client says where, once."""
    seen = watch(lan.world, "app.corruption")
    body = bytearray(pattern_bytes(0, 2000))
    body[700] ^= 0xFF
    body[900] ^= 0xFF
    lan.hosts[0].tcp.listen(
        80, lambda sock: setattr(sock, "on_data",
                                 lambda s: s.read() and s.send(bytes(body))))
    client = StreamClient(lan.hosts[1], "client", lan.ip(0), port=80,
                          total_bytes=2000)
    client.start()
    lan.world.run(until=seconds(5))
    assert client.received == 2000 and client.corrupt_at == 700
    assert seen == [("app.corruption", "client", "payload corruption",
                     {"at": 700})]
