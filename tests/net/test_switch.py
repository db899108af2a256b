"""Unit tests for the learning switch: learning, flooding, multicast,
and the SPAN mirror used by the old-architecture ablation."""

import pytest

from repro.errors import SimulationError
from repro.net.addresses import BROADCAST_MAC, MacAddress
from repro.net.cable import Cable
from repro.net.frame import EthernetFrame, EtherType
from repro.net.switch import Switch
from repro.sim.world import World

MULTI = MacAddress("03:00:5e:00:00:64")


class Station:
    """A dumb station: records everything off its cable."""

    def __init__(self, world, name, mac):
        self.name = name
        self.mac = mac
        self.received = []
        self._cable = None

    def attach(self, world, switch):
        port = switch.new_port()
        self._cable = Cable(world, self, port)
        port.cable = self._cable
        return port

    def receive_frame(self, frame):
        self.received.append(frame)

    def send(self, dst, payload=b"x" * 50):
        self._cable.transmit(
            self, EthernetFrame(dst, self.mac, EtherType.IPV4, payload))


def build(n=3):
    world = World()
    switch = Switch(world)
    stations = [Station(world, f"s{i}", MacAddress(i + 1)) for i in range(n)]
    ports = [s.attach(world, switch) for s in stations]
    return world, switch, stations, ports


def test_unknown_unicast_is_flooded():
    world, switch, (a, b, c), _ = build()
    a.send(b.mac)
    world.run()
    assert len(b.received) == 1
    assert len(c.received) == 1  # flooded: b's MAC not learned yet
    assert switch.frames_flooded == 1


def test_learned_unicast_is_forwarded_only():
    world, switch, (a, b, c), _ = build()
    b.send(a.mac)   # teaches the switch where b lives
    world.run()
    a.send(b.mac)
    world.run()
    assert len(b.received) == 1
    # c saw only the first flood (b's frame to unknown a), nothing after.
    assert len(c.received) == 1


def test_broadcast_floods_all_but_ingress():
    world, switch, (a, b, c), _ = build()
    a.send(BROADCAST_MAC)
    world.run()
    assert len(b.received) == 1 and len(c.received) == 1
    assert len(a.received) == 0


def test_multicast_floods_always_even_after_learning():
    world, switch, (a, b, c), _ = build()
    # Let the switch learn everyone.
    a.send(BROADCAST_MAC)
    b.send(BROADCAST_MAC)
    c.send(BROADCAST_MAC)
    world.run()
    a.send(MULTI)
    world.run()
    assert any(f.dst == MULTI for f in b.received)
    assert any(f.dst == MULTI for f in c.received)


def test_multicast_source_not_learned():
    world, switch, stations, _ = build()
    frame = EthernetFrame(stations[1].mac, MULTI, EtherType.IPV4, b"x")
    stations[0]._cable.transmit(stations[0], frame)
    world.run()
    assert MULTI not in switch.mac_table


def test_learning_table_contents():
    world, switch, (a, b, c), ports = build()
    a.send(BROADCAST_MAC)
    world.run()
    assert switch.mac_table[a.mac] is ports[0]


def test_frame_to_station_on_ingress_segment_is_dropped():
    world, switch, (a, b, c), _ = build()
    a.send(BROADCAST_MAC)  # learn a on port 0
    world.run()
    # A frame from a TO a's own learned port: switch drops it.
    before_b = len(b.received)
    a.send(a.mac)
    world.run()
    assert len(b.received) == before_b


def test_mirror_port_receives_forwarded_unicast():
    world, switch, (a, b, c), ports = build()
    switch.set_mirror_port(ports[2])
    a.send(BROADCAST_MAC)
    b.send(BROADCAST_MAC)
    world.run()
    b.received.clear()
    c.received.clear()
    a.send(b.mac)  # learned: forwarded to b AND mirrored to c
    world.run()
    assert len(b.received) == 1
    assert len(c.received) == 1
    assert switch.frames_mirrored == 1


def test_mirror_not_duplicated_when_mirror_is_destination():
    world, switch, (a, b, c), ports = build()
    switch.set_mirror_port(ports[1])
    a.send(BROADCAST_MAC)
    b.send(BROADCAST_MAC)
    world.run()
    b.received.clear()
    a.send(b.mac)
    world.run()
    assert len(b.received) == 1  # one copy only


# --------------------------------------------------------- batched flooding


def test_batched_flood_timing_matches_per_port_transmit():
    """Equal-delay egress ports ride one scheduled event, but every
    receiver still sees the frame at exactly the per-port arrival time."""
    world, switch, (a, b, c), _ = build()
    arrivals = {}
    b.receive_frame = lambda f: arrivals.setdefault("b", world.now)
    c.receive_frame = lambda f: arrivals.setdefault("c", world.now)
    a.send(BROADCAST_MAC)
    world.run()
    size = EthernetFrame(BROADCAST_MAC, a.mac, EtherType.IPV4,
                         b"x" * 50).size_bytes
    wire = (size * 8 * 1_000_000_000) // 100_000_000 + 1_000
    # ingress cable + forwarding delay + egress cable, per-port semantics.
    expected = wire + 2_000 + wire
    assert arrivals == {"b": expected, "c": expected}


def test_batched_flood_credits_merged_deliveries():
    """events_processed counts logical deliveries, not scheduled events:
    a flood to n equal-delay ports costs one event but credits n."""
    world, switch, stations, _ = build(n=5)
    stations[0].send(BROADCAST_MAC)
    world.run()
    # ingress delivery to the switch + forward event + 1 merged flood
    # event credited as 4 deliveries = 6 logical events.
    assert world.sim.events_processed == 6
    assert all(len(s.received) == 1 for s in stations[1:])


def test_flood_cache_sees_newly_attached_station():
    world, switch, stations, _ = build()
    stations[0].send(BROADCAST_MAC)
    world.run()
    late = Station(world, "late", MacAddress(99))
    late.attach(world, switch)
    stations[0].send(BROADCAST_MAC)
    world.run()
    assert len(late.received) == 1


def test_flood_honours_cable_stub_installed_after_cache_build():
    """Tests impair cables mid-run to model targeted drops; the flood
    path must consult the hook even with a warm cache."""
    world, switch, (a, b, c), _ = build()
    a.send(BROADCAST_MAC)
    world.run()
    b._cable.impair = lambda sender, frame: ()  # drop everything to b
    a.send(BROADCAST_MAC)
    world.run()
    assert len(b.received) == 1  # only the pre-stub flood
    assert len(c.received) == 2


class FilteringStation(Station):
    """A station with a NIC-style address filter (for egress filtering)."""

    def __init__(self, world, name, mac):
        super().__init__(world, name, mac)
        self.accept_extra = set()

    def accepts(self, dst):
        return dst == self.mac or dst == BROADCAST_MAC \
            or dst in self.accept_extra


def build_filtering(n=3):
    world = World()
    switch = Switch(world, egress_filtering=True)
    stations = [FilteringStation(world, f"s{i}", MacAddress(i + 1))
                for i in range(n)]
    for s in stations:
        s.attach(world, switch)
    return world, switch, stations


def test_egress_filtering_skips_non_accepting_ports():
    world, switch, (a, b, c), = build_filtering()
    b.accept_extra.add(MULTI)
    a.send(MULTI)
    world.run()
    assert len(b.received) == 1
    assert len(c.received) == 0  # filtered at the switch, not the NIC
    assert switch.frames_egress_filtered == 1


def test_egress_filtering_still_floods_broadcast_to_all():
    world, switch, (a, b, c) = build_filtering()
    a.send(BROADCAST_MAC)
    world.run()
    assert len(b.received) == 1 and len(c.received) == 1
    assert switch.frames_egress_filtered == 0


def test_egress_filter_cache_invalidated_by_net_epoch():
    """A NIC joining a group bumps World.net_epoch; the switch must
    rebuild its cached flood target lists (IGMP-snooping semantics)."""
    world, switch, (a, b, c) = build_filtering()
    a.send(MULTI)
    world.run()
    assert len(b.received) == 0
    b.accept_extra.add(MULTI)
    world.net_epoch += 1  # what Nic.join_multicast does
    a.send(MULTI)
    world.run()
    assert len(b.received) == 1


def test_real_nic_multicast_join_reaches_filtered_flood():
    """End-to-end with real Nic objects: join_multicast after a cached
    flood still takes effect (the epoch bump comes from the NIC)."""
    from repro.net.nic import Nic

    world = World()
    switch = Switch(world, egress_filtering=True)
    sender = Station(world, "src", MacAddress(1))
    sender.attach(world, switch)
    nic = Nic(world, "nic", MacAddress(2))
    port = switch.new_port()
    cable = Cable(world, nic, port)
    nic.attach_cable(cable)
    port.cable = cable
    sender.send(MULTI)
    world.run()
    assert nic.frames_received == 0
    nic.join_multicast(MULTI)
    sender.send(MULTI)
    world.run()
    assert nic.frames_received == 1


def test_negative_forwarding_delay_is_rejected():
    """Same drift as the cable's: ``_ingress`` inlined the scheduler
    insert without its past-time check.  Construction refuses the value;
    a delay mutated afterwards hits ``Simulator.post``."""
    with pytest.raises(ValueError):
        Switch(World(), forwarding_delay_ns=-1)
    world, switch, (a, b, c), _ = build()
    switch.forwarding_delay_ns = -1_000_000
    a.send(b.mac)
    with pytest.raises(SimulationError):
        world.run()
    assert b.received == [] and c.received == []
