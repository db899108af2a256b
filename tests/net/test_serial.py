"""Unit tests for the RS-232 serial link model."""

import pytest

from repro.host.host import Host
from repro.net.serial_link import SERIAL_DEFAULT_BAUD, SerialLink, SerialPort
from repro.sim.world import World


def make_link(baud=SERIAL_DEFAULT_BAUD):
    world = World()
    a = SerialPort(world, "ttyA")
    b = SerialPort(world, "ttyB")
    link = SerialLink(world, a, b, baud=baud)
    return world, a, b, link


class Message:
    def __init__(self, size):
        self.size_bytes = size


def test_transfer_time_matches_8n1_framing():
    _w, _a, _b, link = make_link()
    # 20 bytes at 115200 baud, 10 bits per byte on the wire.
    assert link.transfer_time_ns(20) == 20 * 10 * 1_000_000_000 // 115_200


def test_delivery_with_serialization_delay():
    world, a, b, link = make_link()
    got = []
    b.set_handler(got.append)
    message = Message(20)
    a.send(message)
    world.run()
    assert got == [message]
    assert world.sim.now == link.transfer_time_ns(20) + link.propagation_delay_ns


def test_fifo_queueing_per_direction():
    world, a, b, link = make_link()
    times = []
    b.set_handler(lambda m: times.append(world.sim.now))
    a.send(Message(100))
    a.send(Message(100))
    world.run()
    tx = link.transfer_time_ns(100)
    assert times[1] - times[0] == tx


def test_full_duplex():
    world, a, b, link = make_link()
    ta, tb = [], []
    a.set_handler(lambda m: ta.append(world.sim.now))
    b.set_handler(lambda m: tb.append(world.sim.now))
    a.send(Message(50))
    b.send(Message(50))
    world.run()
    assert ta == tb


def test_cut_link_drops(lan=None):
    world, a, b, link = make_link()
    got = []
    b.set_handler(got.append)
    link.cut()
    a.send(Message(10))
    world.run()
    assert got == []
    assert link.is_cut


def test_repair_restores():
    world, a, b, link = make_link()
    got = []
    b.set_handler(got.append)
    link.cut()
    link.repair()
    a.send(Message(10))
    world.run()
    assert len(got) == 1


def test_disabled_port_neither_sends_nor_receives():
    world, a, b, link = make_link()
    got_a, got_b = [], []
    a.set_handler(got_a.append)
    b.set_handler(got_b.append)
    b.set_enabled(False)
    a.send(Message(10))   # b deaf
    b.send(Message(10))   # b mute
    world.run()
    assert got_b == [] and got_a == []
    b.set_enabled(True)
    a.send(Message(10))
    world.run()
    assert len(got_b) == 1


def test_bytes_payload_supported():
    world, a, b, _link = make_link()
    got = []
    b.set_handler(got.append)
    a.send(b"raw bytes")
    world.run()
    assert got == [b"raw bytes"]


def test_bandwidth_capacity_paper_calculation():
    """Sec. 3: 20-byte HB every 200 ms = 0.8 kbps/conn; the serial link
    supports ~100 simultaneous connections' worth of heartbeat."""
    _w, _a, _b, link = make_link()
    hb_bits_per_second_per_conn = 20 * 10 / 0.2     # 8N1 framing
    assert hb_bits_per_second_per_conn == 1000      # 1 kbps on the wire
    capacity_conns = SERIAL_DEFAULT_BAUD / hb_bits_per_second_per_conn
    assert 100 <= capacity_conns <= 120


@pytest.mark.xfail(strict=True, reason="ROADMAP 1(a)")
def test_bytes_not_yet_serialized_die_with_their_host():
    """A UART holding a backlog stops when its host loses power: a message
    whose first bit had not left by then never arrives.  Today
    ``SerialLink.transmit`` schedules every delivery at send time and only
    the *receiving* port is checked at delivery, so a dead primary's queued
    heartbeats keep arriving (ROADMAP item 1)."""
    world = World()
    sender = Host(world, "primary")
    a = sender.add_serial_port()
    b = SerialPort(world, "ttyB")
    link = SerialLink(world, a, b)
    got = []
    b.set_handler(got.append)
    backlog = [Message(100) for _ in range(10)]
    for message in backlog:
        a.send(message)
    tx = link.transfer_time_ns(100)
    # Messages 0..2 have started serializing by now; 3..9 have not.
    world.sim.schedule_at(tx * 5 // 2, sender.power_off)
    world.run()
    assert got == backlog[:3]
