"""Unit tests for the IP stack: aliasing, routing, demux, local delivery."""

from repro.net.addresses import IPAddress
from repro.net.ip import IpStack
from repro.net.packet import IPPacket, IPProtocol


def test_alias_addresses_are_owned(lan):
    host = lan.hosts[0]
    service = IPAddress("10.0.0.100")
    host.interfaces[0].add_address(service)
    assert host.ip.owns(service)
    assert service in host.ip.local_addresses()


def test_send_and_receive_between_hosts(lan):
    h0, h1 = lan.hosts
    got = []
    h1.ip.register_protocol("test", got.append)
    h0.ip.register_protocol("test", lambda p: None)
    h0.ip.send(lan.ip(1), "test", b"payload-bytes")
    lan.world.run()
    assert len(got) == 1
    assert got[0].payload == b"payload-bytes"
    assert got[0].src == lan.ip(0)


def test_source_address_override(lan):
    h0, h1 = lan.hosts
    service = IPAddress("10.0.0.100")
    h0.interfaces[0].add_address(service)
    got = []
    h1.ip.register_protocol("test", got.append)
    h0.ip.send(lan.ip(1), "test", b"x", src=service)
    lan.world.run()
    assert got[0].src == service


def test_local_delivery_shortcut(lan):
    host = lan.hosts[0]
    got = []
    host.ip.register_protocol("test", got.append)
    host.ip.send(lan.ip(0), "test", b"loop")
    lan.world.run()
    assert len(got) == 1
    assert host.nics[0].frames_sent == 0  # never touched the wire


def test_unroutable_is_counted_not_raised(lan):
    host = lan.hosts[0]
    host.ip.send(IPAddress("192.168.9.9"), "test", b"x")
    lan.world.run()
    assert host.ip.packets_unroutable == 1


def test_default_gateway_used_for_offlink(lan):
    h0, h1 = lan.hosts
    h0.set_default_gateway(lan.ip(1))
    got = []
    h1.ip.register_protocol("test", got.append)
    h0.ip.send(IPAddress("192.168.9.9"), "test", b"x")
    lan.world.run()
    # Frame was sent to the gateway's MAC; the gateway's stack sees a
    # packet not addressed to it (it is not a router) and drops it.
    assert h1.ip.packets_not_for_us == 1


def test_packets_for_others_dropped(lan):
    h0, h1 = lan.hosts
    # Craft delivery of a packet addressed elsewhere via h1's iface.
    from repro.net.frame import EthernetFrame, EtherType
    packet = IPPacket(lan.ip(0), IPAddress("10.0.0.77"), "test", b"x")
    frame = EthernetFrame(h1.nics[0].mac, h0.nics[0].mac,
                          EtherType.IPV4, packet)
    h1.ip.receive_frame(frame, h1.interfaces[0])
    assert h1.ip.packets_not_for_us == 1


def test_packet_tap_observes_accepted_packets(lan):
    h0, h1 = lan.hosts
    seen = []
    h1.ip.add_packet_tap(seen.append)
    h1.ip.register_protocol("test", lambda p: None)
    h0.ip.send(lan.ip(1), "test", b"x")
    lan.world.run()
    assert len(seen) == 1


def test_no_protocol_handler_is_tolerated(lan):
    h0, h1 = lan.hosts
    h0.ip.send(lan.ip(1), "mystery", b"x")
    lan.world.run()  # no exception
    assert h1.ip.packets_received == 1


def test_failed_nic_interface_not_used_for_routing(lan):
    h0, _h1 = lan.hosts
    h0.nics[0].fail()
    h0.ip.send(lan.ip(1), "test", b"x")
    lan.world.run()
    assert h0.ip.packets_unroutable == 1


def test_packet_ttl_and_size():
    packet = IPPacket(IPAddress("1.1.1.1"), IPAddress("2.2.2.2"),
                      IPProtocol.TCP, b"x" * 10)
    assert packet.size_bytes == 30
    assert packet.decremented().ttl == 63


# ---- send plans vs ARP learning (an ARP learn is the learner's business) ----

def _count_slow_sends(host, monkeypatch):
    walks = []
    slow = IpStack._send_slow

    def counting(stack, dst, *rest):
        if stack is host.ip:
            walks.append(dst)
        slow(stack, dst, *rest)

    monkeypatch.setattr(IpStack, "_send_slow", counting)
    return walks


def test_a_third_hosts_arp_learn_leaves_an_established_flows_plan(
        lan3, monkeypatch):
    """h0 → h1 is an established flow.  h2 forgetting and re-learning h1's
    MAC teaches h0 nothing — every host already knows h2, so its request
    changes no table but its own — and must not send h0's next packet back
    through the route + ARP walk."""
    h0, h1, h2 = lan3.hosts
    h1.ip.register_protocol("test", lambda packet: None)
    h0.ip.send(lan3.ip(1), "test", b"warm")
    h2.ip.send(lan3.ip(1), "test", b"warm")
    h2.ip.send(lan3.ip(0), "test", b"warm")
    lan3.world.run()
    h0.ip.send(lan3.ip(1), "test", b"plan cached")
    walks = _count_slow_sends(h0, monkeypatch)
    h2.interfaces[0].arp._cache.clear()
    h2.ip._send_cache.clear()
    lan3.world.run(until=2_000_000_000)   # past the once-a-second re-ARP limit
    h2.ip.send(lan3.ip(1), "test", b"h2 must ARP again")
    lan3.world.run()
    assert h2.interfaces[0].arp.lookup(lan3.ip(1)) == h1.nics[0].mac
    h0.ip.send(lan3.ip(1), "test", b"still planned")
    assert walks == []


def test_a_changed_arp_entry_redirects_the_hosts_next_packet(lan):
    """The learner's own plans must go: h1's address moves to a new MAC
    (a gratuitous ARP), and h0's next packet is framed for the new one."""
    from repro.net.addresses import BROADCAST_MAC, MacAddress
    from repro.net.arp import ARP_REQUEST, ArpMessage
    from repro.net.frame import EtherType, EthernetFrame

    h0, h1 = lan.hosts
    h0.ip.send(lan.ip(1), "test", b"warm")
    lan.world.run()
    h0.ip.send(lan.ip(1), "test", b"plan cached")
    framed_for = []
    lan.cables[0].impair = \
        lambda nic, frame: framed_for.append(frame.dst) or ()
    h0.ip.send(lan.ip(1), "test", b"old")
    moved = MacAddress("02:00:00:00:00:99")
    h0.interfaces[0].arp.handle_frame(EthernetFrame(
        BROADCAST_MAC, moved, EtherType.ARP,
        ArpMessage(ARP_REQUEST, moved, lan.ip(1), MacAddress(0), lan.ip(1))))
    h0.ip.send(lan.ip(1), "test", b"new")
    assert framed_for == [h1.nics[0].mac, moved]
