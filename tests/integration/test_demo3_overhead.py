"""Demo 3: insignificant overhead of ST-TCP during failure-free operation.

The paper transfers ~100 MB with ST-TCP enabled and disabled and compares
times; these are the ``demo3`` experiment's runs.
"""

import pytest


@pytest.fixture
def clients(experiment):
    runs = experiment("demo3")
    return runs["sttcp_on"].client, runs["sttcp_off"].client


@pytest.fixture
def times(clients):
    return tuple(client.transfer_time_ns for client in clients)


def test_transfer_completes_both_ways(clients):
    for client in clients:
        assert client.received == client.total_bytes
        assert client.corrupt_at is None
        assert client.throughput_mbps == pytest.approx(
            client.total_bytes * 8 * 1e3 / client.transfer_time_ns)


def test_overhead_under_two_percent(times):
    on, off = times
    overhead = (on - off) / off
    assert overhead < 0.02, f"ST-TCP overhead {overhead:.1%}"


def test_goodput_close_to_line_rate(clients):
    on = clients[0]
    goodput_mbps = on.total_bytes * 8 * 1e9 / on.transfer_time_ns / 1e6
    assert goodput_mbps > 80
