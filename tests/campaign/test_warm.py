"""The warm-trial path: cache mechanics, affinity, aggregate identity.

``test_warm_equivalence.py`` (tests/obs) pins the wire-level property —
a thawed testbed behaves byte-for-byte like a cold build.  These tests
pin the engine-level consequences: warm and cold campaigns aggregate
identically, chunk assignment never straddles a grid point, and the
cache reuses/accounts exactly as documented.
"""

from __future__ import annotations

from repro.campaign import CampaignSpec, expand, run_campaign, warm
from repro.campaign.engine import _affine_chunks
from repro.scenarios.options import RunOptions

SPEC = CampaignSpec(
    scenario="failover",
    base={"total_bytes": 2_000_000, "fault_at_s": 0.1},
    grid={"hb_period_ms": [100, 200]},
    trials=2, seed=7,
    options=RunOptions(run_until_s=6.0),
    timeout_s=120.0)


def test_warm_and_cold_campaigns_aggregate_identically():
    warm.get_cache().clear()
    warm.reset_stats()
    hot = run_campaign(SPEC, jobs=1)            # warm path (default)
    stats = dict(warm.get_cache().stats)
    cold = run_campaign(SPEC, jobs=1, warm=False)
    assert hot.to_json() == cold.to_json()
    assert hot.to_jsonl() == cold.to_jsonl()
    # 2 grid points x 2 trials: one build per point, one restore for
    # each point's second trial — proof the warm path actually ran.
    assert stats["builds"] == 2
    assert stats["restores"] == 2


def test_cold_campaign_leaves_cache_untouched():
    warm.get_cache().clear()
    warm.reset_stats()
    run_campaign(SPEC, jobs=1, warm=False)
    stats = warm.get_cache().stats
    assert stats["builds"] == 0 and stats["restores"] == 0


def test_affine_chunks_never_straddle_a_grid_point():
    trials = expand(CampaignSpec(
        scenario="failover",
        grid={"hb_period_ms": [100, 200, 500]},
        trials=3, seed=1))
    for chunksize in (1, 2, 3, 4, 8):
        chunks = _affine_chunks(trials, chunksize)
        assert [t.index for chunk in chunks for t in chunk] \
            == [t.index for t in trials]
        for chunk in chunks:
            assert len(chunk) <= chunksize
            assert all(t.params == chunk[0].params for t in chunk)


CUBIC_SPEC = CampaignSpec(
    scenario="failover",
    base={"total_bytes": 2_000_000, "fault_at_s": 0.1, "cc": "cubic"},
    grid={"hb_period_ms": [100]},
    trials=3, seed=11,
    options=RunOptions(run_until_s=6.0),
    timeout_s=120.0)


def test_warm_cubic_campaign_matches_cold():
    """Three consecutive CUBIC trials on one thawed testbed: the
    aggregate is byte-identical to cold runs."""
    warm.get_cache().clear()
    warm.reset_stats()
    hot = run_campaign(CUBIC_SPEC, jobs=1)
    stats = dict(warm.get_cache().stats)
    assert stats["builds"] == 1 and stats["restores"] == 2
    cold = run_campaign(CUBIC_SPEC, jobs=1, warm=False)
    assert hot.to_json() == cold.to_json()
    assert hot.to_jsonl() == cold.to_jsonl()


def test_thawed_testbed_carries_no_run_state():
    """A trial mutates its testbed (clock advances, connections come and
    go, CUBIC epochs anchor to sim time); the next trial's thaw must hand
    back the pristine build — zero clock, zero connections — and fresh
    connections in the thawed world must start outside any cubic epoch."""
    from repro.scenarios.builder import build_testbed

    cache = warm.WarmTestbedCache()
    first = cache.acquire(
        ("cubic-key",), 5, lambda: build_testbed(seed=5, cc="cubic"))
    # Dirty the first build the way a trial does: advance the clock and
    # open a connection (its cc clock now reads a nonzero sim time).
    socket = first.client.tcp.connect(first.service_ip, 5001)
    first.run_for(0.5)
    assert first.world.sim.now > 0
    assert socket.connection.cc.name == "cubic"

    thawed = cache.acquire(("cubic-key",), 6, lambda: 1 / 0)
    assert thawed.world.sim.now == 0
    for host in (thawed.primary, thawed.backup, thawed.client):
        assert host.tcp.connections == []
    fresh = thawed.client.tcp.connect(thawed.service_ip, 5001).connection
    assert fresh.cc.name == "cubic"
    assert fresh.cc._epoch_start_ns == -1   # not inside a cubic epoch
    assert fresh.cc._w_max == 0.0           # no remembered loss window


def test_cache_acquire_returns_first_build_directly_then_thaws():
    from repro.scenarios.builder import build_testbed

    cache = warm.WarmTestbedCache()
    built = build_testbed(seed=5)
    first = cache.acquire(("k",), 5, lambda: built)
    assert first is built                        # zero-cost first hit
    second = cache.acquire(("k",), 6, lambda: 1 / 0)   # builder not called
    assert second is not built
    assert second.world.sim.now == 0
    assert cache.stats["builds"] == 1 and cache.stats["restores"] == 1
    cache.clear()
    assert cache.acquire(("k",), 5, lambda: built) is built
