"""Tests for the engine base: link-state events, evidence, freshness."""

from repro.sim.core import millis
from repro.sttcp.events import EventKind
from repro.sttcp.heartbeat import LINK_IP, LINK_SERIAL


def test_link_transitions_emit_events_both_ways(sttcp):
    sttcp.run(1)
    sttcp.tb.primary.nics[0].fail()
    sttcp.run(0.8)
    backup = sttcp.backup_engine
    assert backup.events.has(EventKind.HB_IP_LINK_DOWN)
    sttcp.tb.primary.nics[0].repair()
    sttcp.run(1.5)
    recovered = backup.events.of_kind(EventKind.HB_LINK_RECOVERED)
    assert any(e.detail.get("link") == "ip" for e in recovered)


def test_peer_evidence_time_tracks_latest_hb(sttcp):
    sttcp.run(1)
    backup = sttcp.backup_engine
    evidence = backup.peer_evidence_time()
    assert evidence is not None
    age = sttcp.tb.world.sim.now - evidence
    assert age <= millis(250)


def test_peer_hb_fresh_goes_stale_after_crash(sttcp):
    sttcp.run(1)
    assert sttcp.backup_engine.peer_hb_fresh()
    sttcp.tb.primary.crash_hw()
    sttcp.run(1)
    assert not sttcp.backup_engine.peer_hb_fresh()


def test_probing_lifecycle(sttcp):
    sttcp.run(1)
    backup = sttcp.backup_engine
    assert not backup._probing
    sttcp.tb.primary.nics[0].fail()
    sttcp.run(1)
    # IP link down, serial up: probing must have started...
    assert backup.events.has(EventKind.PING_PROBING)
    # ...and the backup's own pings succeed (its NIC is fine).
    assert backup.ping_board.latest_local_ok in (True, None)


def test_stonith_emits_event_and_powers_down(sttcp):
    sttcp.run(0.5)
    sttcp.backup_engine.stonith_peer("unit test")
    sttcp.run(0.1)
    assert sttcp.backup_engine.events.has(EventKind.STONITH)
    assert not sttcp.tb.primary.is_up


def test_heartbeats_carry_role(sttcp):
    sttcp.run(1)
    hb = sttcp.primary_engine.hb.next_heartbeat()
    assert hb.sender_role == "primary"
    hb = sttcp.backup_engine.hb.next_heartbeat()
    assert hb.sender_role == "backup"


def test_engine_repr_shows_mode(sttcp):
    assert "fault-tolerant" in repr(sttcp.primary_engine)
