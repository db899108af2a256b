"""``patch_worlds``, the hook behind ``REPRO_CHECK=1``: every ``World``
built inside the block gets an oracle, and leaving the block detaches
them and restores ``World``."""

from repro.check.autocheck import patch_worlds
from repro.sim.world import World


def test_every_world_built_inside_the_block_gets_an_oracle():
    init = World.__init__
    with patch_worlds() as oracles:
        worlds = [World(seed=1), World(seed=2)]
        assert World.__init__ is not init
    assert World.__init__ is init
    assert [oracle.world for oracle in oracles] == worlds
    World(seed=3)
    assert len(oracles) == 2
