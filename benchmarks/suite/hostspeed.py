"""How fast the host is right now, from a fixed pure-Python kernel.

This box is 2 shared CPUs whose speed drifts by 20-40% over minutes
(README, "Spread"): user time grows with wall time, no steal is
reported, so nothing a process can see tells a slow phase from slow code.
The kernel below touches nothing of the repository — integer arithmetic,
``heapq`` on tuples, short-lived tuples and ``bytes`` — so a change to
the simulator cannot move it, and it slows with the host the way the
simulator does (the fastest kernel pass and the fastest ``fleet_32c``
repetition of the same 15-second window correlate at 0.8-0.9).  ``run.py``
times it next to every repetition and scales the host-time metrics of a
run by ``REFERENCE_S / (fastest kernel pass of the run)``.
"""

from __future__ import annotations

import heapq
import time

__all__ = ["REFERENCE_S", "sample"]

#: Seconds the kernel takes on the reference box in a quiet moment; it
#: only fixes the scale, so that a scaled second is a second there.
REFERENCE_S = 0.0450


def _kernel() -> None:
    x = 0
    for i in range(200_000):
        x = (x * 31 + i) & 0xFFFFFF
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    for i in range(30_000):
        push(heap, ((i * 7919) % 10007, i, None))
    while heap:
        pop(heap)
    keep = []
    for i in range(75_000):
        keep.append((i, bytes(64)))
        if len(keep) > 1000:
            keep.clear()


def sample() -> float:
    """Seconds the fastest of three kernel passes took."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best
