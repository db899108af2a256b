"""Shared fixtures: a bare world, a two-host LAN, and testbed factories.

Setting ``REPRO_CHECK=1`` in the environment additionally attaches the
protocol invariant oracle (``docs/invariants.md``) to every ``World``
any test constructs, and fails the test if a run breached an invariant.
Tests that deliberately produce hostile or corrupted traffic opt out
with ``@pytest.mark.no_invariant_check``.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional

import pytest

from repro.check.autocheck import env_enabled, patch_worlds
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


@pytest.fixture(autouse=True)
def _invariant_check(request):
    """The ``REPRO_CHECK=1`` opt-in oracle (see module docstring)."""
    if (not env_enabled()
            or request.node.get_closest_marker("no_invariant_check")):
        yield
        return
    with patch_worlds() as oracles:
        yield
    violations = [v for oracle in oracles for v in oracle.violations]
    assert not violations, (
        "invariant oracle tripped (REPRO_CHECK=1):\n"
        + "\n".join(f"  {v}" for v in violations[:20]))


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
