"""Unit tests for NIC filtering, failure, and the host power gate."""

from repro.net.addresses import BROADCAST_MAC, MacAddress
from repro.net.frame import EthernetFrame, EtherType
from repro.net.nic import Nic
from repro.sim.world import World

OWN = MacAddress("02:00:00:00:00:01")
OTHER = MacAddress("02:00:00:00:00:02")
GROUP = MacAddress("03:00:5e:00:00:64")


def make_nic():
    world = World()
    nic = Nic(world, "nic0", OWN)
    received = []
    nic.set_upper(received.append)
    return world, nic, received


def frame(dst):
    return EthernetFrame(dst, OTHER, EtherType.IPV4, b"x" * 50)


def test_accepts_own_mac():
    _w, nic, received = make_nic()
    nic.receive_frame(frame(OWN))
    assert len(received) == 1


def test_accepts_broadcast():
    _w, nic, received = make_nic()
    nic.receive_frame(frame(BROADCAST_MAC))
    assert len(received) == 1


def test_filters_other_unicast():
    _w, nic, received = make_nic()
    nic.receive_frame(frame(OTHER))
    assert received == []
    assert nic.frames_filtered == 1


def test_multicast_requires_subscription():
    _w, nic, received = make_nic()
    nic.receive_frame(frame(GROUP))
    assert received == []
    nic.join_multicast(GROUP)
    nic.receive_frame(frame(GROUP))
    assert len(received) == 1


def test_leave_multicast():
    _w, nic, received = make_nic()
    nic.join_multicast(GROUP)
    nic.leave_multicast(GROUP)
    nic.receive_frame(frame(GROUP))
    assert received == []


def test_join_rejects_unicast_address():
    import pytest
    _w, nic, _ = make_nic()
    with pytest.raises(ValueError):
        nic.join_multicast(OTHER)


def test_promiscuous_accepts_everything():
    _w, nic, received = make_nic()
    nic.promiscuous = True
    nic.receive_frame(frame(OTHER))
    nic.receive_frame(frame(GROUP))
    assert len(received) == 2


def test_failed_nic_is_deaf():
    _w, nic, received = make_nic()
    nic.fail()
    nic.receive_frame(frame(OWN))
    assert received == []
    assert not nic.is_up


def test_failed_nic_is_mute(lan):
    nic = lan.hosts[0].nics[0]
    nic.fail()
    before = lan.cables[0].frames_delivered
    nic.send(frame(OWN))
    lan.world.run()
    assert lan.cables[0].frames_delivered == before


def test_repair_restores():
    _w, nic, received = make_nic()
    nic.fail()
    nic.repair()
    nic.receive_frame(frame(OWN))
    assert len(received) == 1


def test_power_gate_blocks_both_directions(lan):
    """The host pushes its power state down as ``host_up``: a powered-off
    machine's NIC neither receives nor sends, though the card is healthy."""
    nic = lan.hosts[0].nics[0]
    received = []
    nic.set_upper(received.append)
    nic.host_up = False
    nic.receive_frame(frame(nic.mac))
    assert received == [] and nic.frames_received == 0
    nic.send(frame(OTHER))
    lan.world.run()
    assert nic.frames_sent == 0
    assert lan.cables[0].frames_delivered == 0
    nic.host_up = True
    nic.receive_frame(frame(nic.mac))
    nic.send(frame(OTHER))
    lan.world.run()
    assert len(received) == 1 and nic.frames_sent == 1
    assert lan.cables[0].frames_delivered == 1


def test_counters_track_traffic():
    _w, nic, _ = make_nic()
    nic.receive_frame(frame(OWN))
    assert nic.frames_received == 1
    assert nic.bytes_received == frame(OWN).size_bytes


def test_double_cable_attach_rejected(lan):
    import pytest
    from repro.net.cable import Cable
    nic = lan.hosts[0].nics[0]
    with pytest.raises(ValueError):
        nic.attach_cable(lan.cables[0])
