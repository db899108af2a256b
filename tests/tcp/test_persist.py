"""Zero-window persist behaviour: probe backoff, cap, reset on reopen.

The persist machinery existed but no test exercised a *long* stall; these
pin the RFC 1122 4.2.2.17 behaviour: probes back off exponentially, the
interval is capped at ``persist_max_ns``, and a window reopening resets
the interval to ``persist_min_ns`` for the next stall.
"""

from repro.sim.core import millis
from repro.tcp.connection import TcpConfig

from tests.conftest import make_lan
from tests.tcp.conftest import TcpPair, pump_stream


def _record_window_probes(world, source_prefix):
    """Times of 1-byte zero-window probes emitted by ``source_prefix``.

    A window probe is the only 1-byte segment sent with nothing in
    flight while the peer's window is shut.
    """
    times = []

    def on_tx(event):
        fields = event.fields
        if (event.source.startswith(source_prefix) and fields["len"] == 1
                and fields["conn"].flight_size == 0):
            times.append(event.time)

    world.probes.subscribe("tcp.segment_tx", on_tx)
    return times


def _has_run(diffs, run):
    """True when ``run`` appears as a contiguous subsequence of ``diffs``."""
    return any(diffs[i:i + len(run)] == run
               for i in range(len(diffs) - len(run) + 1))


def patterned(n: int, stride: int = 1) -> bytes:
    return bytes((i * stride) % 251 for i in range(n))


def test_persist_backoff_caps_and_resets(world):
    lan = make_lan(world)
    config = TcpConfig(persist_min_ns=millis(100), persist_max_ns=millis(800))
    pair = TcpPair(lan, client_config=config)
    pair.run(0.1)
    # Stop the server app reading: its 64 KiB receive buffer fills and
    # the advertised window slams shut with client data still queued.
    pair.server_sock.on_data = lambda s: None
    probes = _record_window_probes(world, "h1.")
    data1 = patterned(65536 + 2000)
    pump_stream(pair.client_sock, data1)
    pair.run(4)
    conn = pair.client_sock.connection
    assert conn.flight_size == 0        # probe bytes never count as flight
    assert len(probes) >= 5
    diffs = [b - a for a, b in zip(probes, probes[1:])]
    # Doubling from persist_min (first probe at +100ms, then 200/400/800).
    assert _has_run(diffs, [millis(200), millis(400), millis(800)])
    # ... and capped at persist_max_ns, never beyond.
    assert diffs.count(millis(800)) >= 2
    assert max(diffs) == millis(800)

    # Reopen the window: the stalled 2000 bytes flow out immediately and
    # the persist timer disarms.
    pair.server_sock.on_data = lambda s: pair.server.data.extend(s.read())
    pair.server.data.extend(pair.server_sock.read())
    stall1_count = len(probes)
    pair.run(6)
    assert bytes(pair.server.data) == data1
    assert not conn._persist_timer.armed

    # Second stall: the probe interval must restart at persist_min (a
    # stale capped interval would make the first gap 800ms).
    pair.server_sock.on_data = lambda s: None
    data2 = patterned(65536 + 2000, stride=7)
    pump_stream(pair.client_sock, data2)
    pair.run(7.5)
    stall2 = probes[stall1_count:]
    assert len(stall2) >= 2
    stall2_diffs = [b - a for a, b in zip(stall2, stall2[1:])]
    assert stall2_diffs[0] == millis(200)

    # Drain again: every byte of both bursts arrives intact.
    pair.server_sock.on_data = lambda s: pair.server.data.extend(s.read())
    pair.server.data.extend(pair.server_sock.read())
    pair.run(12)
    assert bytes(pair.server.data) == data1 + data2
