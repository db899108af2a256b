"""Why the kernel is callback-event, not process-per-flow (simpy-style).

Process-based simulation frameworks (simpy being the canonical Python
one) model each flow as a coroutine/generator that ``yield``s timeouts;
the engine wraps every yielded timeout in an event object and resumes
the generator when it fires.  That API is pleasant, but each hop pays
for a generator suspend/resume plus an allocated timeout object on top
of the underlying queue operation.

This microbenchmark makes the comparison concrete *on the same ready
queue*: N concurrent flows each perform M timed hops, implemented

- as plain callbacks on ``repro.sim.core.Simulator`` (the repo's model),
- as generator processes driven by a minimal simpy-style engine built
  on the very same ``Simulator`` (so the queue cost is identical and
  the difference isolates the process-model overhead; no simpy import
  anywhere).

Run ``python benchmarks/bench_event_vs_process.py`` — it prints both
events/sec figures and the ratio quoted in docs/performance.md.

``--periodic`` times the other thing the queue is used for instead: 128
``PeriodicTimer``s ticking every 2 ms behind an ``App.every``-style
guard, the idle client ticks that are two thirds of ``kv_128c``'s
events.  It prints µs per tick beside the bare-queue µs per event, so
the cost of the timer layer over the queue is one subtraction.  Run it
after any change to ``sim/core.py`` or ``sim/timers.py``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.sim.core import Simulator  # noqa: E402
from repro.sim.timers import PeriodicTimer  # noqa: E402

FLOWS = 2_000
HOPS = 200
DELAY_NS = 50_000

TIMERS = 128
PERIOD_NS = 2_000_000
TICKS = 2_000


def run_callbacks() -> int:
    """Each flow is a callback that reschedules itself HOPS times."""
    sim = Simulator()
    done = [0]

    def hop(remaining: int) -> None:
        if remaining:
            sim.schedule(DELAY_NS, hop, remaining - 1)
        else:
            done[0] += 1

    for i in range(FLOWS):
        sim.schedule(i, hop, HOPS)
    sim.run()
    assert done[0] == FLOWS
    return sim.events_processed


def run_processes() -> int:
    """Each flow is a generator yielding timeouts, simpy-style."""
    sim = Simulator()
    done = [0]

    class Timeout:
        """What simpy allocates for every ``yield env.timeout(d)``."""
        __slots__ = ("delay",)

        def __init__(self, delay: int):
            self.delay = delay

    def resume(process) -> None:
        try:
            timeout = next(process)
        except StopIteration:
            done[0] += 1
            return
        sim.schedule(timeout.delay, resume, process)

    def flow():
        for _ in range(HOPS):
            yield Timeout(DELAY_NS)

    for i in range(FLOWS):
        sim.schedule(i, resume, flow())
    sim.run()
    assert done[0] == FLOWS
    return sim.events_processed


def run_periodic() -> int:
    """TIMERS guarded periodic timers, TICKS ticks each, phases staggered
    like clients that connected at different instants."""
    sim = Simulator()

    class IdleClient:
        """A ``KvClient`` that has sent its last command: the tick passes
        the application guard, finds nothing to send and returns."""
        alive = True
        pending = 0

        def send_next(self) -> None:
            if self.pending:
                raise AssertionError("an idle client has nothing to send")

        def guarded(self) -> None:
            if self.alive:
                self.send_next()

    timers = [PeriodicTimer(sim, IdleClient().guarded, PERIOD_NS)
              for _ in range(TIMERS)]
    for i, timer in enumerate(timers):
        sim.post(i * 7_919, timer.start)
    sim.run(until=PERIOD_NS * TICKS)
    ticks = sim.events_processed - TIMERS
    assert ticks >= TIMERS * (TICKS - 1)
    return ticks


def measure(fn, repeats: int = 3) -> dict:
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        events = fn()
        wall = time.perf_counter() - start
        if best is None or wall < best["wall_s"]:
            best = {"events": events, "wall_s": round(wall, 3),
                    "events_per_sec": round(events / wall)}
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--periodic", action="store_true",
                        help="time guarded PeriodicTimer ticks against "
                             "the bare queue instead")
    args = parser.parse_args()
    callbacks = measure(run_callbacks)
    if args.periodic:
        periodic = measure(run_periodic, repeats=5)
        print(json.dumps({
            "timers": TIMERS, "period_ms": PERIOD_NS / 1e6,
            "ticks": periodic["events"],
            "bare_queue_us_per_event":
                round(1e6 * callbacks["wall_s"] / callbacks["events"], 3),
            "periodic_us_per_tick":
                round(1e6 * periodic["wall_s"] / periodic["events"], 3),
        }, indent=2))
        return 0
    processes = measure(run_processes)
    ratio = callbacks["events_per_sec"] / processes["events_per_sec"]
    print(json.dumps({
        "flows": FLOWS, "hops": HOPS,
        "callbacks": callbacks,
        "generator_processes": processes,
        "callback_speedup": round(ratio, 2),
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
