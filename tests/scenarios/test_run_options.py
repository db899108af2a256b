"""The unified RunOptions surface and the redesigned builder parameters.

These pin the API contract post-redesign: ``options=RunOptions(...)`` is
the one knob surface (the pre-``RunOptions`` per-keyword shims are gone),
``build_testbed(mode=...)`` takes only the mode *strings*, multi-client
testbeds get a generated address plan, and the congestion-control
algorithm rides on ``RunOptions.cc`` / ``build_testbed(cc=...)`` all the
way into every TCP endpoint (see docs/congestion.md).
"""

import dataclasses

import pytest

from repro.faults.faults import HwCrash
from repro.scenarios import (LoggerAttachment, RunOptions, build_testbed,
                             run_baseline_failover, run_failover_experiment)


# ------------------------------------------------------------- RunOptions

def test_run_options_defaults():
    opts = RunOptions()
    assert opts.seed == 3
    assert opts.run_until_s == 60.0
    assert opts.obs_level is None
    assert opts.check is False
    assert opts.cc is None
    assert len(dataclasses.fields(opts)) == 6
    assert not hasattr(opts, "trace_categories")


def test_run_options_rejects_bad_obs_level():
    with pytest.raises(ValueError):
        RunOptions(obs_level="everything")


def test_run_options_rejects_unknown_cc():
    with pytest.raises(ValueError):
        RunOptions(cc="vegas")


def test_with_copies_and_replaces():
    opts = RunOptions(seed=1)
    changed = opts.with_(seed=9, check=True, cc="cubic")
    assert (changed.seed, changed.check, changed.cc) == (9, True, "cubic")
    assert (opts.seed, opts.check, opts.cc) == (1, False, None)


def test_legacy_per_runner_keywords_are_gone():
    """The pre-RunOptions shims were retired: passing the old keywords
    must fail loudly instead of being silently merged."""
    with pytest.raises(TypeError):
        run_failover_experiment(
            lambda tb, sp, sb: HwCrash(tb.primary),
            total_bytes=100_000, fault_at_s=0.5, seed=5, run_until_s=5.0)


def test_runner_accepts_options_object():
    result = run_failover_experiment(
        lambda tb, sp, sb: HwCrash(tb.primary),
        total_bytes=100_000, fault_at_s=0.5,
        options=RunOptions(seed=5, run_until_s=5.0))
    assert result.stream_intact
    assert result.testbed.world.sim.now == 5_000_000_000


# ------------------------------------------------------------------- cc

def test_options_cc_reaches_every_endpoint():
    result = run_failover_experiment(
        lambda tb, sp, sb: HwCrash(tb.primary),
        total_bytes=100_000, fault_at_s=0.5,
        options=RunOptions(seed=5, run_until_s=5.0, cc="cubic"))
    assert result.stream_intact
    for host in (result.testbed.primary, result.testbed.backup,
                 result.testbed.client):
        assert host.tcp.config.cc == "cubic"
        for conn in host.tcp.connections:
            assert conn.cc.name == "cubic"


def test_builder_cc_sets_tcp_config():
    tb = build_testbed(seed=1, cc="tahoe")
    assert tb.primary.tcp.config.cc == "tahoe"
    assert tb.client.tcp.config.cc == "tahoe"


def test_builder_rejects_unknown_cc():
    with pytest.raises(ValueError):
        build_testbed(seed=1, cc="vegas")


# ----------------------------------------------------------------- mode

def test_mode_baseline_builds_without_pair():
    tb = build_testbed(seed=1, mode="baseline")
    assert tb.pair is None
    assert tb.serial_link is None


def test_mode_rejects_non_string():
    """The bool-mode back-compat shim was retired with the redesign."""
    with pytest.raises(ValueError):
        build_testbed(seed=1, mode=True)


def test_mode_rejects_unknown_string():
    with pytest.raises(ValueError):
        build_testbed(seed=1, mode="turbo")


# --------------------------------------------------------- multi-client

def test_num_clients_builds_distinct_hosts():
    tb = build_testbed(seed=1, num_clients=4)
    assert len(tb.clients) == 4
    assert tb.client is tb.clients[0]
    names = [h.name for h in tb.clients]
    assert names == ["client", "client1", "client2", "client3"]
    ips = [h.interfaces[0].addresses[0] for h in tb.clients]
    assert len(set(ips)) == 4
    macs = [h.nics[0].mac for h in tb.clients]
    assert len(set(macs)) == 4


def test_every_client_has_static_service_arp():
    tb = build_testbed(seed=1, num_clients=3)
    for host in tb.clients:
        mac = host.interfaces[0].arp.lookup(tb.service_ip)
        assert mac == tb.addresses.multi_ea


def test_single_client_testbed_unchanged():
    """num_clients=1 must be the exact Figure-2 testbed (prefix /24)."""
    tb = build_testbed(seed=1)
    assert len(tb.clients) == 1
    assert tb.clients[0].name == "client"
    assert "client" in tb.cables


# ---------------------------------------------------- LoggerAttachment

def test_add_logger_returns_named_result():
    tb = build_testbed(seed=1)
    attachment = tb.add_logger()
    assert isinstance(attachment, LoggerAttachment)
    assert attachment.host.name == "logger"
    assert attachment.logger is not None
    host, logger = attachment  # historical tuple unpack still works
    assert host is attachment.host and logger is attachment.logger
    assert "logger" in tb.cables


# --------------------------------------------------- baseline timeline

def test_baseline_export_carries_fault_marker():
    """Regression: the baseline runner used to finalize its ObsSession
    without a timeline, so baseline exports lacked the fault instant."""
    result = run_baseline_failover(
        total_bytes=100_000, fault_at_s=0.5,
        options=RunOptions(seed=4, run_until_s=8, obs_level="counters"))
    assert result.timeline is not None
    assert result.timeline.fault_at == 500_000_000
    gauges = result.obs.metrics.snapshot()["gauges"]
    assert gauges["sttcp.fault_at_ns"] == 500_000_000
