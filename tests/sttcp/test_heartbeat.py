"""Tests for the dual-link heartbeat service, in situ."""

from repro.sim.core import millis, seconds
from repro.sttcp.config import SttcpConfig
from repro.sttcp.heartbeat import LINK_IP, LINK_SERIAL

from tests.sttcp.conftest import SttcpFixture


def test_heartbeats_flow_on_both_links(sttcp):
    sttcp.run(2)
    hb = sttcp.backup_engine.hb
    assert hb.received[LINK_IP] >= 8
    assert hb.received[LINK_SERIAL] >= 8
    assert hb.ip_link_up() and hb.serial_link_up()
    assert not hb.both_links_down()


def test_heartbeat_carries_connection_progress(sttcp):
    sttcp.start_client(total_bytes=20_000_000)
    sttcp.run(1)
    mc = next(iter(sttcp.backup_engine.conns.values()))
    assert mc.peer_progress is not None
    assert mc.peer_progress.last_byte_received > 0


def test_hb_stops_when_peer_dies(sttcp):
    sttcp.run(1)
    sttcp.tb.primary.crash_hw()
    sttcp.run(2)
    hb = sttcp.backup_engine.hb
    assert not hb.ip_link_up()
    assert not hb.serial_link_up()
    assert hb.both_links_down()


def test_nic_failure_kills_only_ip_link(sttcp):
    sttcp.run(1)
    sttcp.tb.primary.nics[0].fail()
    sttcp.run(1)
    hb = sttcp.backup_engine.hb
    assert not hb.ip_link_up()
    assert hb.serial_link_up()


def test_serial_cut_kills_only_serial_link(sttcp):
    sttcp.run(1)
    sttcp.tb.serial_link.cut()
    sttcp.run(1)
    hb = sttcp.backup_engine.hb
    assert hb.ip_link_up()
    assert not hb.serial_link_up()
    # A serial-only failure must NOT trigger any recovery action.
    assert sttcp.backup_engine.takeover_at is None
    assert sttcp.primary_engine.mode == "fault-tolerant"


def test_single_link_ablation_mirrors_ip_state():
    """With use_serial_hb=False (old design), serial_link_up() follows the
    IP link, so 'both links down' degenerates to 'IP down'."""
    fixture = SttcpFixture(config=SttcpConfig(use_serial_hb=False))
    fixture.run(1)
    hb = fixture.backup_engine.hb
    assert not hb.has_serial
    assert hb.serial_link_up() == hb.ip_link_up()


def test_send_now_emits_extra_heartbeat(sttcp):
    sttcp.run(1)
    sent_before = sttcp.primary_engine.hb.sent
    sttcp.primary_engine.hb.send_now()
    assert sttcp.primary_engine.hb.sent == sent_before + 1


def test_hb_period_change_via_config():
    fixture = SttcpFixture(config=SttcpConfig().with_hb_period(millis(500)))
    fixture.run(2.05)
    # ~4 periodic ticks in 2s at 500ms (plus the immediate first tick).
    assert 4 <= fixture.primary_engine.hb.sent <= 6


def test_startup_grace_period_no_false_crash():
    fixture = SttcpFixture()
    fixture.run(0.1)   # less than one HB period
    assert fixture.backup_engine.takeover_at is None


def test_serial_bytes_accounting(sttcp):
    sttcp.run(1)
    assert sttcp.primary_engine.hb.bytes_sent_serial > 0
