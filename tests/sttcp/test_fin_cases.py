"""The four FIN-disagreement cases of paper Sec. 4.2.2, at engine level.

Case 1a: primary app fails WITH cleanup (FIN); backup healthy
         -> FIN held; backup detects lag; takeover.
Case 1b: primary app fails WITHOUT FIN; backup normal-closes (FIN)
         -> backup FIN suppressed; backup detects lag; takeover;
            the FIN is retransmitted to the client after takeover.
Case 2a: primary normal-closes (FIN); backup app failed (no FIN)
         -> FIN held up to MaxDelayFIN; released at detection/expiry.
Case 2b: backup app fails WITH cleanup (FIN); primary healthy
         -> backup FIN suppressed; primary goes non-FT.
Backup FIN, no primary FIN, no lag (idle connection)
         -> the FIN rule itself decides at MaxDelayFIN: primary non-FT.

Plus the two no-delay paths: both sides close (normal), and client-FIN-
first (primary sends its FIN immediately).
"""

import pytest

from repro.sim.core import millis, seconds
from repro.sttcp.config import SttcpConfig
from repro.sttcp.events import EventKind

from tests.sttcp.conftest import SttcpFixture

CONFIG = SttcpConfig(max_delay_fin_ns=seconds(3))


def fixture_with_stream(total=20_000_000):
    fixture = SttcpFixture(config=CONFIG)
    fixture.start_client(total_bytes=total)
    fixture.run(0.5)   # connection up, transfer in progress
    return fixture


def test_case_1a_primary_cleanup_crash_fin_held_then_takeover():
    fixture = fixture_with_stream()
    fixture.server_primary.crash(cleanup=True)      # OS closes -> FIN
    fixture.run(0.05)
    primary = fixture.primary_engine
    assert primary.events.has(EventKind.FIN_HELD)
    mc = next(iter(primary.conns.values()))
    assert mc.fin_held
    assert not mc.conn.fin_queued        # the FIN really is being held
    fixture.run(10)
    assert fixture.backup_engine.takeover_at is not None
    # Held FIN died with the powered-down primary; client saw no close.
    assert fixture.client.reset_count == 0
    fixture.run(30)
    assert fixture.client.received == fixture.client.total_bytes


def test_case_1b_backup_fin_retransmitted_after_takeover():
    """Paper case 1b: the primary app fails WITHOUT a FIN while the backup
    normal-closes (e.g. an idle-timeout policy).  The backup's FIN is
    suppressed-and-retransmitted; once the write divergence triggers the
    takeover, the client finally receives the farewell bytes AND the FIN
    ("in fact, the backup has already been retransmitting and dropping
    the FIN")."""
    from repro.apps.streaming import StreamClient, StreamServer
    from repro.scenarios.builder import build_testbed

    tb = build_testbed(seed=7, config=CONFIG)
    server_p = StreamServer(tb.primary, "srv-p", port=80)
    StreamServer(tb.backup, "srv-b", port=80).start()
    server_p.start()
    tb.pair.start()
    client = StreamClient(tb.client, "c", tb.service_ip, port=80,
                          total_bytes=10_000, close_when_complete=False)
    client.start()
    tb.run_until(1)
    assert client.received == 10_000     # transfer done; connection idle
    farewell = bytearray()
    client.sock.on_data = lambda sock: farewell.extend(sock.read())
    # The primary's app hangs (no FIN, no reads/writes ever again)...
    server_p.crash(cleanup=False)
    # ...while the replica app, per its normal idle-closure policy, sends
    # a farewell and closes.  (We drive the replica's socket directly —
    # the policy decision is the application's.)
    backup_mc = next(iter(tb.pair.backup.conns.values()))
    backup_mc.socket.send(b"BYE\n")
    backup_mc.socket.close()
    tb.run_until(30)
    backup_events = tb.pair.backup.events
    # The FIN was generated and suppressed before the takeover...
    assert backup_events.has(EventKind.FIN_SUPPRESSED)
    fin_at = backup_events.first(EventKind.FIN_SUPPRESSED).time
    takeover = tb.pair.backup.takeover_at
    assert takeover is not None and fin_at < takeover
    # ...and after it, the client received the farewell and the close.
    assert bytes(farewell) == b"BYE\n"
    assert client.sock.connection.peer_fin_consumed
    assert client.reset_count == 0


def test_case_2a_primary_fin_released_at_max_delay():
    """Primary normal-closes; the backup app hangs just before, so no
    backup FIN ever comes.  If lag detection stays silent (idle
    connection), the FIN goes out at MaxDelayFIN."""
    fixture = SttcpFixture(config=CONFIG)
    client = fixture.start_client(total_bytes=10_000,
                                  close_when_complete=False)
    fixture.run(1)
    assert client.received == 10_000     # transfer done; now idle
    # Hang the backup app, then close the primary's socket via the app.
    fixture.server_backup.crash(cleanup=False)
    mc = next(iter(fixture.primary_engine.conns.values()))
    mc.socket.close()
    fixture.run(0.1)
    assert fixture.primary_engine.events.has(EventKind.FIN_HELD)
    fixture.run(5)      # > MaxDelayFIN (3s)
    released = fixture.primary_engine.events.first(EventKind.FIN_RELEASED)
    assert released is not None
    assert "MaxDelayFIN" in released.detail["reason"]


def test_case_2b_backup_cleanup_crash_primary_non_ft():
    fixture = fixture_with_stream()
    fixture.server_backup.crash(cleanup=True)
    fixture.run(10)
    assert fixture.backup_engine.events.has(EventKind.FIN_SUPPRESSED)
    assert fixture.primary_engine.mode == "non-fault-tolerant"
    assert fixture.backup_engine.takeover_at is None
    fixture.run(30)
    assert fixture.client.received == fixture.client.total_bytes
    assert fixture.client.reset_count == 0


def test_backup_fin_alone_is_a_failure_at_max_delay_fin():
    """The backup's replica closes, the primary's application stays alive
    and silent: no lag criterion can fire on an idle connection, so the
    primary's FIN rule decides — the backup is declared failed once its
    FIN has gone unmatched for MaxDelayFIN (Sec. 4.2.2)."""
    fixture = SttcpFixture(config=CONFIG)
    client = fixture.start_client(total_bytes=10_000,
                                  close_when_complete=False)
    fixture.run(1)
    assert client.received == 10_000     # transfer done; now idle
    next(iter(fixture.backup_engine.conns.values())).socket.close()
    fixture.run(6)                       # > MaxDelayFIN (3s)
    primary = fixture.primary_engine
    mc = next(iter(primary.conns.values()))
    detected = primary.events.first(EventKind.APP_FAILURE_DETECTED)
    assert detected.detail == {
        "key": mc.key, "location": "backup",
        "symptom": "backup FIN without primary FIN, unresolved at "
                   "MaxDelayFIN"}
    non_ft = primary.events.first(EventKind.NON_FT_MODE)
    assert non_ft.detail == {"reason": "backup FIN disagreement at "
                                       "MaxDelayFIN"}
    # The first detector tick once the backup's FIN is MaxDelayFIN old.
    assert non_ft.time == detected.time == 4_250_000_000
    assert 0 <= non_ft.time - (mc.backup_fin_at + CONFIG.max_delay_fin_ns) \
        < millis(50)
    assert fixture.backup_engine.takeover_at is None
    assert client.reset_count == 0


def test_normal_closure_no_delay():
    """Both replicas close normally: the FIN must go out immediately —
    'during normal operation ... the FIN is not delayed by MaxDelayFIN'."""
    fixture = SttcpFixture(config=CONFIG)
    client = fixture.start_client(total_bytes=100_000)
    fixture.run(2.5)    # transfer + close handshake, well under MaxDelayFIN
    assert client.received == 100_000
    # Client observed the server-side close (its socket reached CLOSED or
    # TIME_WAIT) without waiting for MaxDelayFIN.
    released = fixture.primary_engine.events.of_kind(EventKind.FIN_RELEASED)
    for event in released:
        assert "MaxDelayFIN" not in event.detail.get("reason", "")


def test_client_fin_first_primary_closes_immediately():
    """'The primary always immediately sends out a FIN if it has already
    received a FIN from the client.'"""
    fixture = SttcpFixture(config=CONFIG)
    client = fixture.start_client(total_bytes=50_000)  # closes when done
    fixture.run(3)
    assert client.received == 50_000
    # The connection wound down completely well before MaxDelayFIN.
    assert len(fixture.primary_engine.conns) == 0
    assert not fixture.primary_engine.events.has(EventKind.FIN_HELD)
