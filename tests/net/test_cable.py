"""Unit tests for the cable model: delay, serialization, loss, cuts,
and the per-frame impairment hook."""

import pytest

from repro.errors import SimulationError
from repro.net.addresses import MacAddress
from repro.net.cable import Cable
from repro.net.frame import EthernetFrame, EtherType
from repro.net.nic import Nic
from repro.net.switch import Switch
from repro.sim.world import World


class Endpoint:
    """Minimal CableEndpoint capturing deliveries."""

    def __init__(self, name: str, world: World):
        self.name = name
        self.world = world
        self.received: list[tuple[int, EthernetFrame]] = []

    def receive_frame(self, frame):
        self.received.append((self.world.sim.now, frame))


def frame(size_payload=100):
    return EthernetFrame(MacAddress(2), MacAddress(1), EtherType.IPV4,
                         b"x" * size_payload)


def make(world, **kwargs):
    a = Endpoint("a", world)
    b = Endpoint("b", world)
    cable = Cable(world, a, b, **kwargs)
    return a, b, cable


def test_delivery_includes_serialization_and_propagation():
    world = World()
    a, b, cable = make(world, bandwidth_bps=100_000_000,
                       propagation_delay_ns=1_000)
    f = frame(100)  # 118 bytes on wire
    cable.transmit(a, f)
    world.run()
    expected = f.size_bytes * 8 * 1_000_000_000 // 100_000_000 + 1_000
    assert b.received[0][0] == expected


def test_fifo_serialization_queues_back_to_back_frames():
    world = World()
    a, b, cable = make(world, bandwidth_bps=100_000_000,
                       propagation_delay_ns=0)
    f = frame(1000)
    cable.transmit(a, f)
    cable.transmit(a, f)  # must wait for the first to serialize
    world.run()
    t1, t2 = b.received[0][0], b.received[1][0]
    tx = f.size_bytes * 8 * 1_000_000_000 // 100_000_000
    assert t1 == tx
    assert t2 == 2 * tx


def test_directions_do_not_contend():
    world = World()
    a, b, cable = make(world, propagation_delay_ns=0)
    cable.transmit(a, frame(1000))
    cable.transmit(b, frame(1000))
    world.run()
    assert a.received[0][0] == b.received[0][0]  # full duplex


def test_cut_drops_everything(world=None):
    world = World()
    a, b, cable = make(world)
    cable.cut()
    cable.transmit(a, frame())
    world.run()
    assert b.received == []
    assert cable.frames_lost == 1
    assert cable.is_cut


def test_cut_mid_flight_drops_in_flight_frame():
    world = World()
    a, b, cable = make(world, propagation_delay_ns=1_000_000)
    cable.transmit(a, frame())
    world.sim.schedule(10, cable.cut)
    world.run()
    assert b.received == []


def test_repair_restores_delivery():
    world = World()
    a, b, cable = make(world)
    cable.cut()
    cable.repair()
    cable.transmit(a, frame())
    world.run()
    assert len(b.received) == 1


def test_loss_rate_drops_roughly_expected_fraction():
    world = World(seed=7)
    a, b, cable = make(world, loss_rate=0.5)
    for _ in range(400):
        cable.transmit(a, frame(10))
    world.run()
    delivered = len(b.received)
    assert 120 < delivered < 280  # ~200 expected


def test_loss_is_deterministic_per_seed():
    def run_once():
        world = World(seed=99)
        a, b, cable = make(world, loss_rate=0.3)
        for _ in range(100):
            cable.transmit(a, frame(10))
        world.run()
        return len(b.received)

    assert run_once() == run_once()


def dropped_indices(world, cable, a, b, count=200):
    """Offer ``count`` numbered frames from ``a``; return the numbers lost."""
    for i in range(count):
        cable.transmit(a, EthernetFrame(MacAddress(2), MacAddress(1),
                                        EtherType.IPV4, i.to_bytes(2, "big")))
    world.run()
    arrived = {int.from_bytes(f.payload, "big") for _, f in b.received}
    return sorted(set(range(count)) - arrived)


def test_a_clean_cable_holds_no_loss_stream():
    world = World(seed=3)
    a, b, cable = make(world, name="clean")
    assert cable._rng is None
    cable.transmit(a, frame())
    world.run()
    assert len(b.received) == 1 and "cable.clean" not in world.rng._streams


@pytest.mark.parametrize("reseed", [None, 11])
def test_a_late_loss_stream_drops_what_an_eager_one_drops(reseed):
    """A cable made lossy after it was built draws from the same stream,
    seeded the same, as one built lossy — also after ``RngRegistry.reseed``
    (the warm-restore path), which re-keys only streams that exist."""
    def run(lazy):
        world = World(seed=5)
        a, b, cable = make(world, name="wire",
                           loss_rate=0.0 if lazy else 0.1)
        if reseed is not None:
            world.rng.reseed(reseed)
        if lazy:
            assert cable._rng is None
            cable.loss_rate = 0.1
        return dropped_indices(world, cable, a, b)

    eager, lazy = run(False), run(True)
    assert eager and lazy == eager
    if reseed is not None:
        cold = World(seed=reseed)
        a, b, cable = make(cold, name="wire", loss_rate=0.1)
        assert dropped_indices(cold, cable, a, b) == eager


def test_counters():
    world = World()
    a, b, cable = make(world)
    cable.transmit(a, frame(100))
    world.run()
    assert cable.frames_delivered == 1
    assert cable.bytes_delivered == frame(100).size_bytes


def test_other_end():
    world = World()
    a, b, cable = make(world)
    assert cable.other_end(a) is b
    assert cable.other_end(b) is a


def test_bad_parameters_rejected():
    world = World()
    a, b = Endpoint("a", world), Endpoint("b", world)
    with pytest.raises(ValueError):
        Cable(world, a, b, bandwidth_bps=0)
    with pytest.raises(ValueError):
        Cable(world, a, b, loss_rate=1.0)


def test_foreign_endpoint_rejected():
    world = World()
    a, b, cable = make(world)
    stranger = Endpoint("s", world)
    with pytest.raises(ValueError):
        cable.transmit(stranger, frame())


def test_plan_transmit_matches_transmit_timing_and_fifo():
    """plan_transmit must advance FIFO state and compute arrival delays
    exactly like transmit — the switch's batched flood relies on it."""
    w1, w2 = World(), World()
    a1, b1, c1 = make(w1)
    a2, b2, c2 = make(w2)
    f = frame(100)
    # Two back-to-back frames: the second queues behind the first.
    c1.transmit(a1, f)
    c1.transmit(a1, f)
    w1.run()
    plans = [c2.plan_transmit(a2, f), c2.plan_transmit(a2, f)]
    for delay, receiver in plans:
        assert receiver is b2
        w2.sim.schedule(delay, c2._deliver, receiver, f)
    w2.run()
    assert [t for t, _ in b1.received] == [t for t, _ in b2.received]
    assert c1._tx_free_at == c2._tx_free_at


def test_plan_transmit_consumes_loss_rng_like_transmit():
    """Same seed, same draw order: the loss pattern must be identical
    whether frames go through transmit or plan_transmit."""
    def run(planned):
        world = World(seed=7)
        a, b, cable = make(world, loss_rate=0.4)
        for _ in range(50):
            if planned:
                plan = cable.plan_transmit(a, frame(10))
                if plan is not None:
                    world.sim.schedule(plan[0], cable._deliver,
                                       plan[1], frame(10))
            else:
                cable.transmit(a, frame(10))
        world.run()
        return len(b.received), cable.frames_lost

    assert run(planned=False) == run(planned=True)


def test_plan_transmit_on_cut_cable_counts_loss():
    world = World()
    a, b, cable = make(world)
    cable.cut()
    assert cable.plan_transmit(a, frame()) is None
    assert cable.frames_lost == 1


def test_negative_propagation_delay_cannot_run_the_clock_backwards():
    """Regression: ``transmit`` used to carry its own copy of the
    scheduler insert, without ``Simulator.post``'s past-time check, so a
    frame sent at t=100 ms over a -50 ms cable was delivered at
    t=50.009 ms — the clock ran backwards for that callback.  Construction
    now refuses the value, and a delay mutated afterwards hits the
    kernel's own check."""
    world = World()
    a, b = Endpoint("a", world), Endpoint("b", world)
    with pytest.raises(ValueError):
        Cable(world, a, b, propagation_delay_ns=-50_000_000)
    cable = Cable(world, a, b)
    cable.propagation_delay_ns = -50_000_000
    world.sim.schedule(100_000_000, cable.transmit, a, frame())
    with pytest.raises(SimulationError):
        world.run()
    assert b.received == []
    assert world.sim.now == 100_000_000


# ------------------------------------------------------------ impairment

TX = frame().size_bytes * 8 * 1_000_000_000 // 100_000_000
PROP = 1_000


@pytest.mark.parametrize("delays, arrivals", [
    ((), []),                                    # drop
    ((0,), [TX + PROP]),                         # pass
    ((0, 0), [TX + PROP, 2 * TX + PROP]),        # duplicate: FIFO behind itself
    ((2_000_000,), [2_000_000 + TX + PROP]),     # held back 2 ms
])
def test_impair_decides_how_many_copies_enter_the_wire_and_when(delays,
                                                                arrivals):
    world = World()
    a, b, cable = make(world)
    epoch = world.net_epoch
    cable.impair = lambda sender, f: delays
    assert world.net_epoch == epoch + 1      # the shared wire-hook rule
    cable.transmit(a, frame())
    world.run()
    assert [t for t, _ in b.received] == arrivals
    assert cable.frames_delivered == len(arrivals)
    assert cable.frames_lost == 0


def test_impair_sees_the_sender_and_only_its_own_cable_direction():
    world = World()
    a, b, cable = make(world)
    seen = []
    cable.impair = lambda sender, f: seen.append(sender.name) or (0,)
    cable.transmit(a, frame())
    cable.transmit(b, frame())
    world.run()
    assert seen == ["a", "b"]
    assert len(a.received) == len(b.received) == 1
    cable.impair = None
    cable.transmit(a, frame())
    world.run()
    assert seen == ["a", "b"] and len(b.received) == 2


def test_impaired_drop_costs_no_wire_time_and_no_loss_draw():
    world = World(seed=7)
    a, b, cable = make(world, loss_rate=0.5)
    rng_before = cable._rng.getstate()
    cable.impair = lambda sender, f: ()
    for _ in range(20):
        cable.transmit(a, frame())
    world.run()
    assert b.received == []
    assert cable._tx_free_at == [0, 0]
    assert cable._rng.getstate() == rng_before
    assert cable.frames_lost == 0


def test_impair_composes_with_loss_rate():
    """Every copy that enters the wire draws for loss like an offered
    frame: a pass-through hook changes nothing, a duplicating one draws
    twice per frame."""
    def run(impair, frames):
        world = World(seed=7)
        a, b, cable = make(world, loss_rate=0.4)
        cable.impair = impair
        for _ in range(frames):
            cable.transmit(a, frame(10))
        world.run()
        return len(b.received), cable.frames_lost

    plain = run(None, 50)
    assert 0 < plain[1] < 50
    assert run(lambda sender, f: (0,), 50) == plain
    assert run(lambda sender, f: (0, 0), 25) == plain


def test_cut_while_a_delayed_copy_waits_loses_it():
    world = World()
    a, b, cable = make(world)
    cable.impair = lambda sender, f: (1_000_000,)
    cable.transmit(a, frame())
    world.sim.schedule(500_000, cable.cut)
    world.run()
    assert b.received == []
    assert cable.frames_lost == 1
    assert cable._tx_free_at == [0, 0]


MULTI = MacAddress("03:00:5e:00:00:64")


def plug(world, switch, end):
    """Cable ``end`` to a fresh port of ``switch``."""
    port = switch.new_port()
    port.cable = Cable(world, end, port)
    return port.cable


def fabric(world, nics=2):
    """A switch with one recording endpoint and ``nics`` real NICs that
    have not joined ``MULTI`` — flood sinks."""
    switch = Switch(world)
    src = Endpoint("src", world)
    src_cable = plug(world, switch, src)
    cards = []
    for i in range(nics):
        nic = Nic(world, f"nic{i}", MacAddress(0x10 + i))
        nic.attach_cable(plug(world, switch, nic))
        cards.append(nic)

    def flood():
        before = world.sim.events_processed
        src_cable.transmit(src, EthernetFrame(MULTI, MacAddress(1),
                                              EtherType.IPV4, b"x" * 50))
        world.run()
        return world.sim.events_processed - before

    return switch, cards, flood


def test_impair_installed_on_a_warm_flood_cache_and_cleared_again():
    world = World()
    switch, (n0, n1), flood = fabric(world)
    # ingress delivery + forward + two credited sink deliveries
    assert flood() == 4
    assert (n0.frames_filtered, n1.frames_filtered) == (1, 1)
    n0._cable.impair = lambda sender, f: ()
    assert flood() == 3                      # nothing reaches n0's wire
    assert (n0.frames_filtered, n1.frames_filtered) == (1, 2)
    assert n0._cable.frames_delivered == 1
    n0._cable.impair = lambda sender, f: (0, 0)
    assert flood() == 5                      # two real deliveries to n0
    assert (n0.frames_filtered, n1.frames_filtered) == (3, 3)
    n0._cable.impair = None
    assert flood() == 4                      # the credited fast lane again
    assert (n0.frames_filtered, n1.frames_filtered) == (4, 4)
    assert n0._cable.frames_delivered == 4
    assert switch.frames_flooded == 4


def test_impaired_cable_behind_a_span_mirror_port():
    world = World()
    switch = Switch(world)
    ends = a, b, mirror = [Endpoint(f"s{i}", world) for i in range(3)]
    cables = [plug(world, switch, end) for end in ends]
    switch.set_mirror_port(switch.ports[2])
    cables[1].transmit(b, EthernetFrame(MacAddress(9), MacAddress(2),
                                        EtherType.IPV4, b"learn b"))
    world.run()
    for end in ends:
        end.received.clear()

    def send_to_b():
        cables[0].transmit(a, EthernetFrame(MacAddress(2), MacAddress(1),
                                            EtherType.IPV4, b"x" * 50))
        world.run()

    cables[2].impair = lambda sender, f: (0, 0)   # the mirror doubles
    send_to_b()
    assert len(b.received) == 1 and len(mirror.received) == 2
    cables[2].impair = None
    cables[1].impair = lambda sender, f: ()       # the destination drops
    send_to_b()
    assert len(b.received) == 1 and len(mirror.received) == 3
    assert switch.frames_mirrored == 2


def test_impaired_switch_to_switch_link():
    """A far end that is no NIC: the flood's impaired target still goes
    through the hook, whatever the frame would have met there."""
    world = World()
    left, right = Switch(world, "left"), Switch(world, "right")
    a, b = Endpoint("a", world), Endpoint("b", world)
    a_cable = plug(world, left, a)
    plug(world, right, b)
    up, down = left.new_port(), right.new_port()
    trunk = Cable(world, up, down)
    up.cable = down.cable = trunk

    def flood():
        b.received.clear()
        start = world.now
        a_cable.transmit(a, EthernetFrame(
            MULTI, MacAddress(1), EtherType.IPV4, b"x" * 50))
        world.run()
        return [t - start for t, _ in b.received]

    (plain,) = flood()
    trunk.impair = lambda sender, f: (1_000_000,)
    assert flood() == [plain + 1_000_000]
    trunk.impair = lambda sender, f: (0, 0)
    assert len(flood()) == 2
    trunk.impair = lambda sender, f: ()
    assert flood() == []
    trunk.impair = None
    assert flood() == [plain]


@pytest.mark.xfail(strict=True, reason="ROADMAP 1(a)")
def test_frames_not_yet_serialized_die_with_their_host():
    """The cable's question of ROADMAP 1(a): a NIC whose host powers off
    while frames wait behind ``_tx_free_at`` must not put the ones whose
    serialization had not started on the wire.  Today ``Cable`` schedules
    every arrival at send time and never asks again, so the far end keeps
    receiving a dead host's frames for the length of the backlog."""
    from repro.host.host import Host

    world = World()
    host = Host(world, "primary")
    nic = host.add_nic(MacAddress(1), ["10.0.0.1"], "10.0.0.0")
    far = Endpoint("far", world)
    cable = Cable(world, nic, far, bandwidth_bps=100_000_000,
                  propagation_delay_ns=0)
    nic.attach_cable(cable)
    backlog = [frame(1000) for _ in range(10)]
    for f in backlog:
        nic.send(f)
    tx = backlog[0].size_bytes * 8 * 1_000_000_000 // 100_000_000
    # Frames 0..2 have started serializing by now; 3..9 have not.
    world.sim.schedule_at(tx * 5 // 2, host.power_off)
    world.run()
    assert [f for _t, f in far.received] == backlog[:3]
