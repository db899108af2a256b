"""Tests for the stream-logger extension (paper Sec. 4.3, output commit).

Base ST-TCP has exactly one unrecoverable single failure: the primary
crashes while the backup still lacks client bytes the primary had already
acked (the client will never retransmit them).  With a logger on the LAN
recording the client stream, the backup recovers them anyway.
"""

import pytest

from repro.apps.echo import EchoClient, EchoServer
from repro.faults.faults import HwCrash, TransientLoss
from repro.scenarios.builder import build_testbed
from repro.sim.core import millis, seconds
from repro.sttcp.events import EventKind
from repro.sttcp.logger import StreamLogger
from tests.integration.recovery_pins import assert_pinned

#: Loss on the logger's cable over the backup's burst: at each seed the
#: logger's record has a hole the backup needs, and the connection is lost.
LOGGER_LOSS = 0.05
LOGGER_LOSS_SEEDS = (21, 22, 23)


def crash_mid_recovery(with_logger: bool, seed: int = 21,
                       logger_loss: float = 0.0):
    """Loss burst at the backup, primary crash while the fetch is still
    paying the debt down — the paper's unrecoverable window.  With
    ``logger_loss``, the logger's cable drops that share of frames over
    the same 300 ms."""
    tb = build_testbed(seed=seed)
    EchoServer(tb.primary, "e-p", port=80).start()
    EchoServer(tb.backup, "e-b", port=80).start()
    tb.pair.start()
    logger = None
    if with_logger:
        _host, logger = tb.add_logger()
    client = EchoClient(tb.client, "c", tb.service_ip, port=80,
                        message_size=4096, interval_ns=millis(4), count=2000)
    client.start()
    tb.inject.loss_burst(seconds(1), millis(300),
                         TransientLoss(tb.backup_cable, 0.8))
    if logger_loss:
        tb.inject.loss_burst(seconds(1), millis(300),
                             TransientLoss(tb.cables["logger"], logger_loss))
    tb.inject.at(seconds(1) + millis(250), HwCrash(tb.primary))
    tb.run_until(120)
    return tb, client, logger


class TestWithoutLogger:
    def test_output_commit_failure_is_unrecoverable(self):
        tb, client, _logger = crash_mid_recovery(with_logger=False)
        assert_pinned("crash-mid-recovery", tb, client)
        assert tb.pair.backup.events.has(EventKind.UNRECOVERABLE)
        assert client.reset_count >= 1          # connection was lost
        assert len(client.rtts_ns) < client.count


class TestWithLogger:
    def test_connection_survives(self):
        tb, client, logger = crash_mid_recovery(with_logger=True)
        assert_pinned("crash-mid-recovery-logger", tb, client)
        assert not tb.pair.backup.events.has(EventKind.UNRECOVERABLE)
        assert client.reset_count == 0
        assert len(client.rtts_ns) == client.count

    def test_logger_served_the_recovery(self):
        tb, _client, logger = crash_mid_recovery(with_logger=True)
        assert logger.fetches_served > 0
        recovered = [e for e in tb.pair.backup.events.of_kind(
            EventKind.FETCH_RECOVERED) if e.detail.get("via") == "logger"]
        assert recovered

    @pytest.mark.parametrize("seed", LOGGER_LOSS_SEEDS)
    def test_a_lost_connection_is_declared_unrecoverable_once(self, seed):
        """The logger missed bytes the backup needs, so the connection is
        lost; the backup declares it unrecoverable once, however many
        requested ranges the logger answers as unavailable."""
        tb, client, _logger = crash_mid_recovery(
            with_logger=True, seed=seed, logger_loss=LOGGER_LOSS)
        assert_pinned(f"logger-loss-seed{seed}", tb, client)
        keys = [tuple(e.detail["key"]) for e in
                tb.pair.backup.events.of_kind(EventKind.UNRECOVERABLE)]
        assert len(keys) == len(set(keys)) == 1


class TestLoggerRecording:
    def test_logger_records_client_stream_passively(self):
        tb = build_testbed(seed=22)
        EchoServer(tb.primary, "e-p", port=80).start()
        EchoServer(tb.backup, "e-b", port=80).start()
        tb.pair.start()
        _host, logger = tb.add_logger()
        client = EchoClient(tb.client, "c", tb.service_ip, port=80,
                            message_size=1024, interval_ns=millis(10),
                            count=100)
        client.start()
        tb.run_until(10)
        assert len(logger.connections) == 1
        logged = next(iter(logger.connections.values()))
        assert logged.bytes_logged == 100 * 1024
        # The recorded bytes match what the client sent (all zeros here).
        assert logged.get_range(0, 1024) == bytes(1024)

    def test_logger_is_invisible_to_the_protocol(self):
        """A logger must not perturb the service at all."""
        def run(with_logger):
            tb = build_testbed(seed=23)
            EchoServer(tb.primary, "e-p", port=80).start()
            EchoServer(tb.backup, "e-b", port=80).start()
            tb.pair.start()
            if with_logger:
                tb.add_logger()
            client = EchoClient(tb.client, "c", tb.service_ip, port=80,
                                message_size=512, interval_ns=millis(10),
                                count=50)
            client.start()
            tb.run_until(10)
            return client.rtts_ns

        assert run(False) == run(True)

    def test_fetch_for_unknown_connection_unavailable(self):
        from repro.net.addresses import IPAddress
        from repro.sttcp.control import FetchRequest
        from repro.sttcp.logger import LOGGER_UDP_PORT

        tb = build_testbed(seed=24)
        tb.pair.start()
        tb.add_logger()
        replies = []
        tb.backup.udp.bind(9999, lambda p, ip, port: replies.append(p))
        tb.backup.udp.send(IPAddress("10.0.0.4"), LOGGER_UDP_PORT, 9999,
                           FetchRequest((99, 99), ((0, 100),)))
        tb.run_until(1)
        assert len(replies) == 1 and replies[0].unavailable
