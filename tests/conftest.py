"""Shared fixtures: a bare world, a two-host LAN, testbed factories and
the runs of the paper's experiments.

Setting ``REPRO_CHECK=1`` in the environment additionally attaches the
protocol invariant oracle (``docs/invariants.md``) to every ``World``
any test constructs — in the test body or in a fixture of any scope,
the experiment cache included — and fails the test whose setup, body
or teardown built a world that breached an invariant.  Tests that
deliberately produce hostile or corrupted traffic opt out with
``@pytest.mark.no_invariant_check``: the worlds their bodies and
function-scoped fixtures build get no oracle.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional

import pytest

from repro.check.autocheck import env_enabled, patch_worlds
from repro.experiments import EXPERIMENTS
from repro.net.addresses import IPAddress
from repro.net.cable import Cable
from repro.net.switch import Switch
from repro.sim.world import World
from repro.host.host import Host


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "no_invariant_check: test produces deliberately invalid traffic; "
        "skip the REPRO_CHECK=1 invariant oracle for it")


_PLAIN_INIT = World.__init__


@pytest.fixture(scope="session", autouse=True)
def _checked_worlds():
    """Under ``REPRO_CHECK=1``, the oracles of the worlds built since the
    last test's teardown.  Session-scoped, so that ``World`` is patched
    before any module- or session-scoped fixture builds one."""
    if not env_enabled():
        yield None
        return
    with patch_worlds() as oracles:
        yield oracles


@pytest.fixture(autouse=True)
def _invariant_check(request, _checked_worlds):
    """The ``REPRO_CHECK=1`` opt-in oracle (see module docstring)."""
    exempt = request.node.get_closest_marker("no_invariant_check")
    if exempt and _checked_worlds is not None:
        request.getfixturevalue("monkeypatch").setattr(
            World, "__init__", _PLAIN_INIT)
    yield
    if _checked_worlds is None:
        return
    oracles = _checked_worlds[:]
    _checked_worlds.clear()
    for oracle in oracles:
        oracle.detach()
    violations = [v for oracle in oracles for v in oracle.violations]
    assert exempt or not violations, (
        "invariant oracle tripped (REPRO_CHECK=1):\n"
        + "\n".join(f"  {v}" for v in violations[:20]))


#: Runs that demonstrate a breach on purpose: label per registry entry.
#: A2's single-link run is the old design's split brain, which
#: ``sttcp.single-active`` rightly flags.
_UNCHECKED_RUNS = {"ablation_dual_hb": "single"}


@pytest.fixture(scope="session")
def experiment(_checked_worlds):
    """``experiment(name)``: the runs of a :mod:`repro.experiments` entry
    at its defaults (label -> result); ``Experiment.run`` makes them once
    per process."""
    def runs(name: str) -> dict:
        result = EXPERIMENTS[name].run()
        if _checked_worlds is not None and name in _UNCHECKED_RUNS:
            world = result[_UNCHECKED_RUNS[name]].testbed.world
            for oracle in [o for o in _checked_worlds if o.world is world]:
                oracle.detach()
                _checked_worlds.remove(oracle)
        return result
    return runs


@pytest.fixture
def world() -> World:
    return World(seed=1234)


class Lan:
    """A small switched LAN for substrate tests."""

    def __init__(self, world: World, host_count: int = 2,
                 bandwidth_bps: int = 100_000_000, loss_rate: float = 0.0):
        self.world = world
        self.switch = Switch(world)
        self.hosts: list[Host] = []
        self.cables: list[Cable] = []
        for i in range(host_count):
            host = Host(world, f"h{i}")
            nic = host.add_nic(f"02:00:00:00:00:{i + 1:02x}",
                               [f"10.0.0.{i + 1}"], "10.0.0.0")
            port = self.switch.new_port()
            cable = Cable(world, nic, port, bandwidth_bps=bandwidth_bps,
                          loss_rate=loss_rate)
            nic.attach_cable(cable)
            port.cable = cable
            self.hosts.append(host)
            self.cables.append(cable)

    def ip(self, index: int) -> IPAddress:
        return IPAddress(f"10.0.0.{index + 1}")


@pytest.fixture
def lan(world: World) -> Lan:
    return Lan(world)


@pytest.fixture
def lan3(world: World) -> Lan:
    return Lan(world, host_count=3)


def make_lan(world: World, **kwargs) -> Lan:
    return Lan(world, **kwargs)


def stub_conn(*, una: int = 0, nxt: int = 0, rcv_nxt: int = 0,
              iss: Optional[int] = None, cwnd: int = 14600,
              ssthresh: int = 1 << 30, mss: int = 1460,
              cc: str = "reno") -> SimpleNamespace:
    """What a ``tcp.segment_tx`` subscriber reads off the live ``conn``,
    for synthetic fires: ``fire("tcp.segment_tx", src, conn=stub_conn(),
    seq=..., ack=..., flags=..., len=..., win=...)``."""
    return SimpleNamespace(
        iss=iss, snd_una_off=una, snd_nxt_off=nxt, flight_size=nxt - una,
        last_byte_received=rcv_nxt, config=SimpleNamespace(mss=mss),
        cc=SimpleNamespace(cwnd=cwnd, ssthresh=ssthresh, name=cc))
