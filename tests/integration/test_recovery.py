"""Table 1 row 5: temporary network failures and missed-byte recovery."""

import pytest

from repro.apps.echo import EchoClient, EchoServer
from repro.faults.faults import HwCrash, TransientLoss
from repro.scenarios.builder import build_testbed
from repro.sim.core import millis, seconds
from repro.sttcp.config import SttcpConfig
from repro.sttcp.events import EventKind
from tests.integration.recovery_pins import assert_pinned


def echo_testbed(seed=11, interval_ms=8, count=1500):
    tb = build_testbed(seed=seed)
    EchoServer(tb.primary, "echo-p", port=80).start()
    EchoServer(tb.backup, "echo-b", port=80).start()
    tb.pair.start()
    client = EchoClient(tb.client, "client", tb.service_ip, port=80,
                        message_size=4096, interval_ns=millis(interval_ms),
                        count=count)
    client.start()
    return tb, client


def loss_burst_run():
    tb, client = echo_testbed()
    tb.inject.loss_burst(seconds(1), millis(300),
                         TransientLoss(tb.backup_cable, 0.7))
    tb.run_until(40)
    return tb, client


def loss_burst_crash_run():
    tb, client = echo_testbed(count=3000)
    tb.inject.loss_burst(seconds(1), millis(300),
                         TransientLoss(tb.backup_cable, 0.7))
    tb.inject.at(seconds(6), HwCrash(tb.primary))
    tb.run_until(90)
    return tb, client


def sustained_overload_run():
    config = SttcpConfig(retain_buffer_bytes=786432,           # small retain
                         fetch_max_bytes_per_round=16384,      # small rounds
                         fetch_round_interval_ns=millis(200))  # slow catch-up
    tb = build_testbed(seed=11, config=config)
    EchoServer(tb.primary, "echo-p", port=80).start()
    EchoServer(tb.backup, "echo-b", port=80).start()
    tb.pair.start()
    client = EchoClient(tb.client, "client", tb.service_ip, port=80,
                        message_size=4096, interval_ns=millis(2), count=3000)
    client.start()
    tb.inject.loss_burst(seconds(1), millis(300),
                         TransientLoss(tb.backup_cable, 0.7))
    tb.run_until(60)
    return tb, client


def test_backup_fetches_missed_bytes_from_primary():
    tb, client = loss_burst_run()
    assert_pinned("loss-burst", tb, client)
    events = tb.pair.backup.events
    assert events.has(EventKind.FETCH_REQUESTED)
    assert events.has(EventKind.FETCH_RECOVERED)
    assert not events.has(EventKind.UNRECOVERABLE)
    # The pair stayed fault-tolerant: recovery succeeded.
    assert tb.pair.primary.mode == "fault-tolerant"
    assert tb.pair.backup.mode == "fault-tolerant"
    assert len(client.rtts_ns) == 1500   # client never noticed


def test_backup_caught_up_completely():
    tb, client = loss_burst_run()
    for mc in tb.pair.backup.conns.values():
        assert not mc.conn.recv_buffer.has_gap
        assert mc.conn.recv_buffer.rcv_next \
            >= mc.peer_progress.last_byte_received


def test_recovered_backup_can_still_take_over():
    """The point of recovery: after catching up, a later primary crash
    fails over with a complete stream."""
    tb, client = loss_burst_crash_run()
    assert_pinned("loss-burst-crash", tb, client)
    assert tb.pair.backup.takeover_at is not None
    assert not tb.pair.backup.events.has(EventKind.UNRECOVERABLE)
    assert len(client.rtts_ns) == 3000   # every echo eventually completed


def test_loss_at_primary_is_plain_tcp_business():
    """Row 5, primary side: the primary misses bytes, the client
    retransmits (normal TCP); no ST-TCP recovery is involved."""
    tb, client = echo_testbed()
    tb.inject.loss_burst(seconds(1), millis(300),
                         TransientLoss(tb.primary_cable, 0.5))
    tb.run_until(60)
    assert len(client.rtts_ns) == 1500
    assert not tb.pair.backup.events.has(EventKind.FETCH_REQUESTED)
    assert tb.pair.primary.mode == "fault-tolerant"


def test_sustained_overload_declares_backup_failed():
    """When the backup cannot catch up (the primary's extra receive buffer
    fills while the fetch pipeline pays the debt down), the primary
    declares it failed — paper Sec. 4.3: "If the additional receive buffer
    space at the primary fills up, the primary considers the backup
    failed" — and continues alone."""
    from repro.sttcp.config import SttcpConfig
    config = SttcpConfig(retain_buffer_bytes=786432,           # small retain
                         fetch_max_bytes_per_round=16384,      # small rounds
                         fetch_round_interval_ns=millis(200))  # slow catch-up
    tb = build_testbed(seed=11, config=config)
    EchoServer(tb.primary, "echo-p", port=80).start()
    EchoServer(tb.backup, "echo-b", port=80).start()
    tb.pair.start()
    client = EchoClient(tb.client, "client", tb.service_ip, port=80,
                        message_size=4096, interval_ns=millis(2), count=3000)
    client.start()
    tb.inject.loss_burst(seconds(1), millis(300),
                         TransientLoss(tb.backup_cable, 0.7))
    tb.run_until(60)
    assert tb.pair.primary.mode == "non-fault-tolerant"
    assert tb.pair.primary.events.has(EventKind.RETAIN_OVERFLOW)
    assert len(client.rtts_ns) == 3000   # service itself never suffered
