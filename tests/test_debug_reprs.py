"""Every debugging ``repr``/``str`` renders and names its object.

They are what a failing assertion, a debugger or a log line shows, so a
broken one only surfaces when something else has already gone wrong.
"""

from repro.apps.streaming import StreamClient, StreamServer
from repro.faults.faults import HwCrash
from repro.net.packet import IPPacket, IPProtocol
from repro.scenarios.builder import build_testbed
from repro.sim.core import millis
from repro.tcp.segment import TcpFlags, TcpSegment
from repro.workloads.engine import ConnectionRecord


def test_each_debug_repr_names_its_object():
    tb = build_testbed(seed=3)
    servers = [StreamServer(host, f"srv-{host.name}", port=80)
               for host in (tb.primary, tb.backup)]
    for server in servers:
        server.start()
    tb.pair.start()
    client = StreamClient(tb.client, "client", tb.service_ip, port=80,
                          total_bytes=20_000_000)
    client.start()
    tb.inject.at(millis(400), HwCrash(tb.primary))
    tb.run_until(0.5)

    world = tb.world
    conn = tb.backup.tcp.connections[0]
    segment = TcpSegment(49152, 80, seq=1, ack=2,
                         flags=TcpFlags.SYN | TcpFlags.ACK, window=100)
    shown = {
        "<World t=0.500000s": repr(world),
        "Simulator": repr(world.sim),
        "RngRegistry": repr(world.rng),
        "ProbeBus": repr(world.probes),
        "<Host primary DOWN": repr(tb.primary),
        "Nic": repr(tb.backup.nics[0]),
        "backup.ip": repr(tb.backup.ip),
        "<TcpStack backup.tcp": repr(tb.backup.tcp),
        "<TcpConnection backup.tcp.": repr(conn),
        "<Socket": repr(client.sock),
        "<Listener": repr(servers[1].listener),
        "Cable": repr(tb.cables["client"]),
        "Switch": repr(tb.switch),
        "<SttcpPair": repr(tb.pair),
        "<StreamServer srv-backup running>": repr(servers[1]),
        "<Injection": repr(tb.inject.records[0]),
        "IPAddress('10.": repr(tb.service_ip),
        "MacAddress": repr(tb.backup.nics[0].mac),
        "<ConnectionRecord #0 stream on client NOT-intact>":
            repr(ConnectionRecord(0, "client", "stream", 0)),
        "TCP[49152->80 SYN|ACK seq=1 ack=2 win=100 len=0]": str(segment),
        "IP[": str(IPPacket(tb.service_ip, tb.service_ip, IPProtocol.TCP,
                            segment)),
    }
    wrong = {want: got for want, got in shown.items() if want not in got}
    assert not wrong, wrong
