"""Multiple simultaneous replicated connections through one failover."""

import pytest

from repro.apps.streaming import StreamClient, StreamServer
from repro.faults.faults import HwCrash
from repro.metrics.monitor import ClientStreamMonitor
from repro.scenarios.builder import build_testbed
from repro.sim.core import seconds

N_CLIENTS = 4
TOTAL_EACH = 8_000_000


@pytest.fixture(scope="module")
def multi_result():
    tb = build_testbed(seed=13)
    StreamServer(tb.primary, "srv-p", port=80).start()
    StreamServer(tb.backup, "srv-b", port=80).start()
    tb.pair.start()
    clients = []
    for i in range(N_CLIENTS):
        client = StreamClient(tb.client, f"client{i}", tb.service_ip,
                              port=80, total_bytes=TOTAL_EACH)
        client.start()
        clients.append(client)
    tb.inject.at(seconds(1), HwCrash(tb.primary))
    tb.run_until(90)
    return tb, clients


def test_all_connections_replicated(multi_result):
    tb, _clients = multi_result
    # The backup saw (and replicated) every connection before the crash.
    from repro.sttcp.events import EventKind
    replicated = tb.pair.backup.events.of_kind(EventKind.CONN_REPLICATED)
    assert len(replicated) == N_CLIENTS


def test_every_stream_survives_failover(multi_result):
    _tb, clients = multi_result
    for client in clients:
        assert client.received == TOTAL_EACH, client.name
        assert client.corrupt_at is None, client.name
        assert client.reset_count == 0, client.name


def test_heartbeat_scales_with_connections(multi_result):
    tb, _clients = multi_result
    # HB size: base + 20 bytes per managed connection (paper Sec. 3).
    from repro.sttcp.state import HEARTBEAT_BASE_BYTES, PER_CONNECTION_BYTES
    hb = tb.pair.backup.hb.next_heartbeat()
    assert hb.size_bytes <= (HEARTBEAT_BASE_BYTES
                             + PER_CONNECTION_BYTES * N_CLIENTS)


def test_single_takeover_covers_all_connections(multi_result):
    tb, _clients = multi_result
    from repro.sttcp.events import EventKind
    takeovers = tb.pair.backup.events.of_kind(EventKind.TAKEOVER)
    assert len(takeovers) == 1
    assert takeovers[0].detail["connections"] >= 1
