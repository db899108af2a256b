"""GC orchestration (`repro.sim.gcctl`): freeze/thaw, quiesce, stats.

The module's contract is behavioural, so the tests drive the real
CPython collector: freezing exempts the baseline graph from collection,
thawing reclaims it, quiesce suspends cyclic collection for exactly the
duration of the (possibly nested) drive and restores the prior state.
"""

import gc

import pytest

from repro.sim import gcctl


@pytest.fixture(autouse=True)
def restore_collector():
    """Whatever a test does, the collector leaves enabled and unfrozen."""
    yield
    gc.unfreeze()
    if not gc.isenabled():
        gc.enable()


class _Node:
    """A self-referencing object: dies only by cyclic collection."""

    def __init__(self):
        self.me = self


def test_freeze_baseline_exempts_survivors_from_collection():
    node = _Node()
    frozen = gcctl.freeze_baseline()
    assert frozen >= 1
    assert gc.get_freeze_count() == frozen
    # The frozen cycle is invisible to a full collect while referenced...
    del node
    # ...and even a dead frozen cycle stays pinned until a thaw.
    before = gc.get_freeze_count()
    gc.collect()
    assert gc.get_freeze_count() == before


def test_thaw_baseline_reclaims_dead_frozen_graphs():
    node = _Node()
    gcctl.freeze_baseline()
    del node
    gcctl.thaw_baseline()
    assert gc.get_freeze_count() == 0


def test_quiesce_disables_cyclic_collection_inside_only():
    assert gc.isenabled()
    with gcctl.quiesce():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_quiesce_nests_as_one_suspension():
    with gcctl.quiesce():
        with gcctl.quiesce():
            assert not gc.isenabled()
        # Inner exit must NOT re-enable: the outer drive is still going.
        assert not gc.isenabled()
    assert gc.isenabled()


def test_quiesce_respects_a_collector_already_disabled():
    gc.disable()
    with gcctl.quiesce():
        assert not gc.isenabled()
    assert not gc.isenabled()   # restored to what the caller had
    gc.enable()


def test_quiesce_runs_bounded_collect_past_threshold():
    before = gcctl.stats()["safe_point_collects"]
    junk = []
    with gcctl.quiesce():
        # Pile up live container allocations past the safe-point
        # threshold (they must survive to the exit: freed objects
        # decrement the pending gen-0 count again).
        junk.extend([i] for i in range(gcctl.YOUNG_COLLECT_THRESHOLD + 100))
    assert gcctl.stats()["safe_point_collects"] == before + 1


def test_quiesce_skips_collect_below_threshold():
    gc.collect()                 # drain pending counts first
    before = gcctl.stats()["safe_point_collects"]
    with gcctl.quiesce():
        pass
    assert gcctl.stats()["safe_point_collects"] == before


def test_collect_full_is_counted():
    before = gcctl.stats()["manual_collects"]
    gcctl.collect_full()
    assert gcctl.stats()["manual_collects"] == before + 1


def test_stats_shape():
    stats = gcctl.stats()
    assert set(stats) >= {"enabled", "counts", "frozen", "frozen_baseline",
                          "manual_collects", "safe_point_collects",
                          "collections", "collected"}


def test_world_run_drives_under_quiesce():
    from repro.sim.world import World

    world = World(seed=1)
    seen = {}

    def probe():
        seen["enabled"] = gc.isenabled()

    world.sim.post(1_000, probe)
    world.run_for(2_000)        # duration is in nanoseconds
    assert seen["enabled"] is False   # the drive ran quiesced
    assert gc.isenabled()             # and restored the collector
