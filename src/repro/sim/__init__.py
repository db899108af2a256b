"""Deterministic discrete-event simulation kernel.

Public surface::

    from repro.sim import (
        Simulator, World, Timer, PeriodicTimer, RngRegistry,
        seconds, millis, micros, NS_PER_S, NS_PER_MS, NS_PER_US,
    )
"""

from repro.sim.core import (
    NS_PER_MS,
    NS_PER_S,
    NS_PER_US,
    EventHandle,
    Simulator,
    micros,
    millis,
    seconds,
)
from repro.sim.rng import RngRegistry
from repro.sim.timers import PeriodicTimer, Timer
from repro.sim.world import World

__all__ = [
    "NS_PER_MS",
    "NS_PER_S",
    "NS_PER_US",
    "EventHandle",
    "PeriodicTimer",
    "RngRegistry",
    "Simulator",
    "Timer",
    "World",
    "micros",
    "millis",
    "seconds",
]
