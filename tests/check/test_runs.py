"""End-to-end oracle runs: clean traffic passes, corrupted runs trip.

The corrupted-run test is the acceptance check for the oracle itself: a
deliberately broken ST-TCP (output suppression disabled) must be caught.
"""

from __future__ import annotations

import pytest

from repro.check import CheckTopology, InvariantOracle
from repro.sim.core import seconds

from tests.conftest import make_lan
from tests.tcp.conftest import TcpPair, pump_stream
from tests.sttcp.conftest import SttcpFixture


def test_clean_lossy_transfer_is_violation_free(world):
    """Loss exercises retransmit/dupack/go-back-N; none of it may trip."""
    oracle = InvariantOracle(world).attach()
    lan = make_lan(world, loss_rate=0.03)
    pair = TcpPair(lan)
    data = bytes(i % 251 for i in range(400_000))
    pump_stream(pair.client_sock, data)
    pair.run(60)
    assert bytes(pair.server.data) == data
    assert oracle.violations == []
    # "Clean" must mean "checked a lot", not "looked at nothing".
    assert oracle.checks["tcp.snd-una-le-nxt"] > 100
    assert oracle.checks["wire.seq-continuity"] > 100
    assert oracle.checks["tcp.deliver-contiguous"] > 0


def test_clean_failover_is_violation_free():
    from repro.faults.faults import HwCrash

    fx = SttcpFixture()
    oracle = InvariantOracle(fx.tb.world,
                             CheckTopology.from_testbed(fx.tb)).attach()
    # 20 MB at 100 Mbit/s spans the t=1s crash: the backup serves the
    # tail of the stream, so the post-takeover wire rules get exercised.
    fx.start_client(total_bytes=20_000_000)
    fx.tb.inject.at(seconds(1), HwCrash(fx.tb.primary))
    fx.run(60)
    assert fx.client.received == 20_000_000
    assert fx.backup_engine.takeover_at is not None
    assert oracle.violations == []
    assert oracle.checks["hb.seq-monotone"] > 0
    assert oracle.checks["hb.progress-monotone"] > 0
    assert oracle.checks["wire.backup-silent"] > 0


@pytest.mark.no_invariant_check
def test_suppression_breach_trips_oracle():
    """Open every replica's output gate the moment it is created: the
    replica now answers the client in parallel with the primary.  The
    wire-layer oracle must catch the breach."""
    fx = SttcpFixture()
    oracle = InvariantOracle(fx.tb.world,
                             CheckTopology.from_testbed(fx.tb)).attach()

    def open_gates(_event):
        for mc in fx.backup_engine.conns.values():
            mc.gated = False

    fx.tb.world.probes.subscribe("sttcp.conn-replicated", open_gates)
    fx.start_client(total_bytes=500_000)
    fx.run(5)
    assert oracle.violation_count > 0
    assert "wire.backup-silent" in {v.invariant for v in oracle.violations}


@pytest.mark.no_invariant_check
def test_wire_violation_keeps_the_frame_as_it_was_when_it_tripped():
    """Frames are pooled and recycled as the run goes on, so a wire-layer
    ``Violation`` must hold a decoded copy of the offending frame, not
    the frame.  Swapping the MAC hints makes every pre-takeover service
    frame of the (real) primary a ``wire.backup-silent`` breach; by the
    end of the run all of those frames have carried other traffic."""
    from repro.faults.faults import HwCrash
    from repro.obs.export import describe_frame

    fx = SttcpFixture()
    world, addresses = fx.tb.world, fx.tb.addresses
    at_fire: dict[int, list[dict]] = {}
    world.probes.subscribe(
        "eth.frame", lambda ev: at_fire.setdefault(ev.time, []).append(
            describe_frame(ev.fields["frame"])))
    swapped = CheckTopology(primary_mac=str(addresses.backup_mac),
                            backup_mac=str(addresses.primary_mac))
    oracle = InvariantOracle(world, swapped).attach()
    fx.start_client(total_bytes=200_000)
    fx.tb.inject.at(seconds(1), HwCrash(fx.tb.primary))
    fx.run(5)
    breaches = [v for v in oracle.violations
                if v.invariant == "wire.backup-silent"]
    assert len(breaches) > 100
    for violation in breaches:
        assert violation.event.fields["frame"] in at_fire[violation.time], \
            f"evidence of {violation} is not the frame that tripped it"
    assert any(v.event.fields["frame"]["tcp"]["len"] == 1460
               for v in breaches), "no data segment among the breaches"
