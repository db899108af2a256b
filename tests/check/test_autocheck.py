"""``patch_worlds``, the hook behind ``REPRO_CHECK=1``: every ``World``
built inside the block gets an oracle, and leaving the block detaches
them and restores ``World``."""

from pathlib import Path

import pytest

from repro.check.autocheck import patch_worlds
from repro.sim.world import World

pytest_plugins = ["pytester"]


def test_every_world_built_inside_the_block_gets_an_oracle():
    init = World.__init__
    with patch_worlds() as oracles:
        worlds = [World(seed=1), World(seed=2)]
        assert World.__init__ is not init
    assert World.__init__ is init
    assert [oracle.world for oracle in oracles] == worlds
    World(seed=3)
    assert len(oracles) == 2

CONFTEST = Path(__file__).resolve().parents[1] / "conftest.py"


@pytest.mark.no_invariant_check   # the inner session breaches on purpose
@pytest.mark.parametrize("scope", ["module", "session"])
def test_a_world_built_by_a_wider_fixture_is_checked(pytester, monkeypatch,
                                                     scope):
    """Under ``REPRO_CHECK=1`` the suite's conftest checks a world that a
    module- or session-scoped fixture builds, not only the worlds of the
    test body: the test that built it fails on its breach."""
    monkeypatch.setenv("REPRO_CHECK", "1")
    pytester.makeconftest(CONFTEST.read_text(encoding="utf-8"))
    pytester.makepyfile(f"""
        import pytest
        from repro.sim.world import World

        @pytest.fixture(scope="{scope}")
        def gappy():
            world = World(seed=1)
            # Bytes 0-99 were never delivered: tcp.deliver-contiguous.
            world.probes.fire("tcp.deliver", "c", off=100, len=50)
            return world

        def test_reads_the_world(gappy):
            pass
    """)
    result = pytester.runpytest_inprocess("-p", "no:cacheprovider")
    result.assert_outcomes(passed=1, errors=1)
    result.stdout.fnmatch_lines(["*tcp.deliver-contiguous*"])
