"""Demo 3: insignificant overhead of ST-TCP during failure-free operation.

The paper transfers ~100 MB with ST-TCP enabled and disabled and compares
times.  The integration test uses 20 MB (the benchmark runs the full
100 MB); the claim is relative, not absolute.
"""

import pytest

from repro.apps.filetransfer import FileClient, FileServer
from repro.scenarios.builder import build_testbed

SIZE = 20_000_000


def transfer_time(enable_sttcp: bool, seed: int = 5) -> int:
    tb = build_testbed(seed=seed,
                       mode="sttcp" if enable_sttcp else "baseline")
    FileServer(tb.primary, "fs-p", port=80).start()
    if enable_sttcp:
        FileServer(tb.backup, "fs-b", port=80).start()
        tb.pair.start()
    target = tb.service_ip if enable_sttcp else tb.addresses.primary_ip
    client = FileClient(tb.client, "client", target, port=80,
                        file_size=SIZE)
    client.start()
    tb.run_until(60)
    assert client.received == SIZE
    assert client.corrupt_at is None
    assert client.throughput_mbps == pytest.approx(
        SIZE * 8 * 1e3 / client.transfer_time_ns)
    return client.transfer_time_ns


@pytest.fixture(scope="module")
def times():
    return transfer_time(True), transfer_time(False)


def test_transfer_completes_both_ways(times):
    on, off = times
    assert on is not None and off is not None


def test_overhead_under_two_percent(times):
    on, off = times
    overhead = (on - off) / off
    assert overhead < 0.02, f"ST-TCP overhead {overhead:.1%}"


def test_goodput_close_to_line_rate(times):
    on, _off = times
    goodput_mbps = SIZE * 8 * 1e9 / on / 1e6
    assert goodput_mbps > 80
