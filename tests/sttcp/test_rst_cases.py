"""The RST twin of the FIN rule (paper Sec. 4.2.2), at engine level.

``Socket.abort()`` on the primary goes through the same gate as
``close()``: in FT mode the primary tells the backup at once (an extra
HB) and holds its RST until the backup agrees or MaxDelayFIN runs out.

* The backup's replica never resets: the RST is held
  (``sttcp.fin-held`` with ``kind="rst"``) and leaves only at
  MaxDelayFIN (``sttcp.fin-released``).
* The backup's HB already reports a reset of its own: the RST leaves
  at once.  The backup reports its own ``abort()`` in an immediate HB,
  before the closed replica is disposed of and leaves the HBs.

Either way the client sees exactly one RST.  The immediate branch is
also driven by handing the primary an HB entry that carries the reset.
The held RST's event keeps its ``kind="rst"`` field: ``emit`` takes its
own ``kind`` positionally.
"""

import dataclasses

import pytest

from repro.sim.core import millis, seconds
from repro.sttcp.config import SttcpConfig
from repro.tcp.segment import TcpFlags, TcpSegment

from tests.sttcp.conftest import SttcpFixture

CONFIG = SttcpConfig(max_delay_fin_ns=seconds(3))


class _Watch:
    """The primary's ``sttcp.fin-held``/``fin-released`` fires and every
    RST the service address puts on the switch, with their times."""

    def __init__(self, fixture: SttcpFixture):
        self.held: list = []
        self.released: list = []
        self.rsts: list[int] = []
        service = fixture.tb.service_ip
        probes = fixture.tb.world.probes
        probes.subscribe("sttcp.fin-held", self.held.append)
        probes.subscribe("sttcp.fin-released", self.released.append)

        def frame(event) -> None:
            packet = event.fields["frame"].payload
            segment = getattr(packet, "payload", None)
            if (isinstance(segment, TcpSegment) and packet.src == service
                    and segment.flags & TcpFlags.RST):
                self.rsts.append(event.time)
        probes.subscribe("eth.frame", frame)


def _idle_connection():
    """A finished transfer left open: no lag criterion can fire."""
    fixture = SttcpFixture(config=CONFIG)
    client = fixture.start_client(total_bytes=10_000,
                                  close_when_complete=False)
    fixture.run(1)
    assert client.received == 10_000
    return fixture, client


def test_primary_rst_is_held_until_max_delay_fin():
    fixture, client = _idle_connection()
    watch = _Watch(fixture)
    mc = next(iter(fixture.primary_engine.conns.values()))
    aborted_at = fixture.tb.world.sim.now
    mc.socket.abort()
    fixture.run(0.1)
    assert [e.fields for e in watch.held] == [{"key": mc.key,
                                                "kind": "rst"}]
    assert mc.fin_held and not mc.conn.rst_sent
    assert watch.rsts == [] and client.reset_count == 0
    fixture.run(5)      # > MaxDelayFIN (3 s)
    assert len(watch.released) == 1
    released = watch.released[0]
    assert released.fields["reason"] == "MaxDelayFIN expired"
    assert released.time == aborted_at + CONFIG.max_delay_fin_ns
    assert len(watch.rsts) == 1
    assert 0 <= watch.rsts[0] - released.time < millis(1)
    assert client.reset_count == 1


def _abort_after_backup_reset(fixture, client, watch, mc) -> None:
    """Abort the primary's socket once the backup's reset is known, and
    check that its RST left at once and alone."""
    assert watch.rsts == []          # the backup's own RST is suppressed
    aborted_at = fixture.tb.world.sim.now
    mc.socket.abort()
    fixture.run(5)
    assert watch.held == [] and watch.released == []
    assert len(watch.rsts) == 1
    assert watch.rsts[0] - aborted_at < millis(1)
    assert client.reset_count == 1


def test_primary_rst_leaves_at_once_when_the_backup_reset_too():
    fixture, client = _idle_connection()
    watch = _Watch(fixture)
    next(iter(fixture.backup_engine.conns.values())).socket.abort()
    fixture.run(0.1)    # the backup's HBs carry its reset
    mc = next(iter(fixture.primary_engine.conns.values()))
    assert mc.peer_progress.rst_generated
    _abort_after_backup_reset(fixture, client, watch, mc)


def test_primary_rst_leaves_at_once_on_an_hb_entry_with_a_reset():
    fixture, client = _idle_connection()
    watch = _Watch(fixture)
    mc = next(iter(fixture.primary_engine.conns.values()))
    mc.peer_progress = dataclasses.replace(mc.peer_progress,
                                           rst_generated=True)
    _abort_after_backup_reset(fixture, client, watch, mc)
