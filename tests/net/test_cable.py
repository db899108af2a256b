"""Unit tests for the cable model: delay, serialization, loss, cuts."""

import pytest

from repro.errors import SimulationError
from repro.net.addresses import MacAddress
from repro.net.cable import Cable
from repro.net.frame import EthernetFrame, EtherType
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
        w2.sim.schedule(delay, c2.deliver_planned, receiver, f)
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
                    world.sim.schedule(plan[0], cable.deliver_planned,
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
