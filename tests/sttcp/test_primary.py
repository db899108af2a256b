"""Primary-engine tests: retain buffer, ConnInit, fetch serving, non-FT."""

from repro.sim.core import millis, seconds
from repro.sttcp.control import FetchRequest
from repro.sttcp.engine import MODE_NON_FT
from repro.sttcp.events import EventKind


def test_retain_buffer_tracks_client_bytes(sttcp):
    client = sttcp.start_client(total_bytes=20_000_000)
    sttcp.run(0.05)  # request arrived; backup confirmation not yet
    mc = next(iter(sttcp.primary_engine.conns.values()))
    # The GET line went into the retain buffer.
    assert mc.retain.end_offset > 0


def test_retain_released_after_backup_confirms(sttcp):
    sttcp.start_client(total_bytes=20_000_000)
    sttcp.run(1)   # several HB rounds
    mc = next(iter(sttcp.primary_engine.conns.values()))
    assert mc.retain.buffered == 0  # backup confirmed everything


def test_conn_init_sent_on_both_channels(sttcp):
    sttcp.start_client(total_bytes=20_000_000)
    sttcp.run(0.5)
    # The serial link carried at least one non-heartbeat message.
    assert sttcp.primary_engine.hb.messages_sent >= 1
    assert len(sttcp.backup_engine.conns) == 1


def test_fetch_served_from_retain(sttcp):
    sttcp.start_client(total_bytes=20_000_000)
    sttcp.run(0.05)
    key = next(iter(sttcp.primary_engine.conns))
    mc = sttcp.primary_engine.conns[key]
    end = mc.retain.end_offset
    assert end > 0
    replies = []
    sttcp.primary_engine.hb.send = \
        lambda msg, also_serial=False: replies.append(msg)
    sttcp.primary_engine._serve_fetch(FetchRequest(key, ((0, end),)))
    assert replies and not replies[0].unavailable
    assert replies[0].offset == 0
    assert len(replies[0].data) == end


def test_fetch_for_unknown_conn_unavailable(sttcp):
    replies = []
    sttcp.primary_engine.hb.send = \
        lambda msg, also_serial=False: replies.append(msg)
    sttcp.primary_engine._serve_fetch(FetchRequest((9, 9), ((0, 10),)))
    assert replies[0].unavailable


def test_fetch_for_released_range_yields_no_reply(sttcp):
    """Retained bytes are only released when the backup's own heartbeat
    confirms it holds them, so a fetch naming a fully released range can
    only be a request that raced that heartbeat — the backup already has
    the bytes.  Answering ``unavailable`` would declare the connection
    unrecoverable over a race; staying silent is correct (the backup's
    retry re-checks its missing ranges and finds none)."""
    sttcp.start_client(total_bytes=20_000_000)
    sttcp.run(1)   # backup confirmed; retain released
    key = next(iter(sttcp.primary_engine.conns))
    replies = []
    sttcp.primary_engine.hb.send = \
        lambda msg, also_serial=False: replies.append(msg)
    sttcp.primary_engine._serve_fetch(FetchRequest(key, ((0, 5),)))
    assert replies == []


def test_fetch_racing_backup_confirmation_serves_remaining_bytes(sttcp):
    """Failover-handoff race (red on pre-fix code): the backup sends a
    fetch for [0, end), then its next heartbeat — confirming it caught up
    through ``mid`` on its own — overtakes the fetch and releases
    [0, mid) from the retain buffer.  The primary must serve the still-
    retained [mid, end) suffix, not declare the whole range unavailable
    (which falsely marks the connection unrecoverable)."""
    from repro.sttcp.state import ConnProgress

    sttcp.start_client(total_bytes=20_000_000)
    sttcp.run(0.05)
    key = next(iter(sttcp.primary_engine.conns))
    mc = sttcp.primary_engine.conns[key]
    end = mc.retain.end_offset
    assert end > 4 and mc.retain.base_offset == 0
    expected = mc.retain.get_range(0, end)
    mid = end // 2
    # The backup's HB arrives first, confirming bytes through `mid`.
    mc.absorb(ConnProgress(
        key=key, last_byte_received=mid, last_ack_received=0,
        last_app_byte_written=0, last_app_byte_read=0))
    assert mc.retain.base_offset == mid
    # Now the (older) fetch request for the full range lands.
    replies = []
    sttcp.primary_engine.hb.send = \
        lambda msg, also_serial=False: replies.append(msg)
    sttcp.primary_engine._serve_fetch(FetchRequest(key, ((0, end),)))
    assert replies, "fetch for a partially released range got no reply"
    assert all(not r.unavailable for r in replies)
    assert replies[0].offset == mid
    recovered = b"".join(bytes(r.data) for r in replies)
    assert recovered == expected[mid:end]


def test_non_ft_mode_stoniths_backup_and_stops(sttcp):
    sttcp.start_client(total_bytes=20_000_000)
    sttcp.run(1)
    sttcp.primary_engine.enter_non_ft("test reason")
    assert sttcp.primary_engine.mode == MODE_NON_FT
    assert sttcp.primary_engine.events.has(EventKind.STONITH)
    sttcp.run(1)
    assert not sttcp.tb.backup.is_up
    assert not sttcp.primary_engine.hb.running


def test_non_ft_is_idempotent(sttcp):
    sttcp.run(1)
    sttcp.primary_engine.enter_non_ft("first")
    sttcp.primary_engine.enter_non_ft("second")
    assert len(sttcp.primary_engine.events.of_kind(
        EventKind.NON_FT_MODE)) == 1


def test_service_continues_in_non_ft_mode(sttcp):
    sttcp.run(0.5)
    sttcp.primary_engine.enter_non_ft("test")
    sttcp.run(0.5)
    client = sttcp.start_client(total_bytes=100_000)
    sttcp.run(10)
    assert client.received == 100_000
    assert client.reset_count == 0


def test_conn_init_resent_if_backup_silent_about_it(sttcp_factory):
    """If the backup's HBs never mention a connection (lost ConnInit on
    both channels), the primary re-announces it."""
    fixture = sttcp_factory()
    # Break the backup's control reception: drop ConnInit once.
    original = fixture.backup_engine._on_conn_init
    dropped = {"n": 0}

    def flaky(init):
        if dropped["n"] < 2:
            dropped["n"] += 1
            return
        original(init)

    fixture.backup_engine._on_conn_init = flaky
    fixture.start_client(total_bytes=20_000_000)
    fixture.run(1)
    assert dropped["n"] >= 2
    # The re-announcement eventually created the replica.
    from repro.sttcp.events import EventKind
    assert fixture.backup_engine.events.has(EventKind.CONN_REPLICATED)
