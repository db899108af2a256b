"""Tracing from outside: spans around the runners' steps and a per-layer
host-time budget of the drive.

Nothing under ``src/`` is edited.  For one *traced* repetition the
benchmark temporarily replaces the names the public runners call —
``build_testbed`` (and ``Testbed.restore``), ``Application.start``,
``SttcpPair.start``, ``Testbed.run_until`` (the drive),
``build_timeline``, ``ObsSession.finalize``, ``InvariantOracle.detach``
and, for the campaign, ``expand`` / ``execute_trial`` /
``CampaignResult.to_json`` — with wrappers that record a span ``{name, start_ns, end_ns, parent,
workload}`` and then call the original.  Spans stay in memory; ``run.py``
writes them out at the end.  Timed repetitions never run with these
wrappers installed.

Inside the drive span a ``cProfile.Profile`` is enabled (and only
there).  :func:`fold_layers` folds its call table to layers by source
path.  Time spent in built-ins and the standard library is charged to
the layer that called them, through the profile's callers table, so the
budget sums to the whole drive.  Hand-inlined code is charged to the
module it now lives in (``IpStack.send`` contains an inlined
``Nic.send``: that time is ``net.ip``, not ``net.nic``).
"""

from __future__ import annotations

import contextlib
import cProfile
import pstats
import time
from collections import defaultdict
from typing import Callable, Optional

__all__ = ["LAYERS", "Tracer", "fold_layers", "layer_of"]

#: The fixed layer list of the budget (``trace.<layer>.self_share``).
LAYERS = ("sim.core", "sim.timers", "net.cable", "net.switch", "net.nic",
          "net.ip", "net.arp", "net.pool", "tcp.connection", "tcp.buffers",
          "tcp.congestion", "tcp.stack", "tcp.segment", "sttcp", "host",
          "apps", "obs", "check", "workloads", "campaign", "other")

# Source file (relative to src/repro/) -> layer, for the files that do not
# simply take their package's name.  Unlisted files of a package fall to
# the package default below.
_FILE_LAYER = {
    "sim/timers.py": "sim.timers",
    "net/cable.py": "net.cable", "net/serial_link.py": "net.cable",
    "net/switch.py": "net.switch",
    "net/nic.py": "net.nic",
    "net/arp.py": "net.arp",
    # The wire wrappers the pools recycle live with the pools.
    "net/pool.py": "net.pool", "net/frame.py": "net.pool",
    "net/packet.py": "net.pool",
    "tcp/buffers.py": "tcp.buffers",
    "tcp/congestion.py": "tcp.congestion",
    "tcp/stack.py": "tcp.stack", "tcp/sockets.py": "tcp.stack",
    "tcp/segment.py": "tcp.segment",
}
_PACKAGE_LAYER = {
    "sim": "sim.core", "net": "net.ip", "tcp": "tcp.connection",
    "sttcp": "sttcp", "host": "host", "apps": "apps", "obs": "obs",
    "check": "check", "workloads": "workloads", "campaign": "campaign",
}


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to; None for built-ins and the
    standard library (whose time is charged to their callers)."""
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0:
        # The benchmark's own wrappers are "other"; everything else
        # outside the package is charged upward.
        return "other" if "/benchmarks/suite/" in filename else None
    relative = filename[at + len(marker):]
    layer = _FILE_LAYER.get(relative)
    if layer is None:
        layer = _PACKAGE_LAYER.get(relative.split("/", 1)[0], "other")
    return layer


def fold_layers(stats: dict) -> dict:
    """Fold a ``pstats`` table to ``{layer: {"self_s", "calls"}}`` plus
    the totals.  Self time sums to the profile's total by construction."""
    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)

    def charge(func, amount: float, depth: int) -> None:
        layer = layer_of(func[0])
        if layer is not None:
            self_s[layer] += amount
            return
        callers = stats[func][4] if func in stats else {}
        total = sum(row[2] for row in callers.values())
        if total <= 0 or depth > 8:
            self_s["other"] += amount
            return
        for caller, row in callers.items():
            if row[2] > 0:
                charge(caller, amount * row[2] / total, depth + 1)

    py_calls = 0
    for func, (_cc, ncalls, tottime, _ct, callers) in stats.items():
        py_calls += ncalls
        layer = layer_of(func[0])
        if layer is not None:
            self_s[layer] += tottime
            calls[layer] += ncalls
            continue
        # A built-in or stdlib function: its self time, split by caller.
        charged = 0.0
        for caller, row in callers.items():
            charge(caller, row[2], 1)
            charged += row[2]
        self_s["other"] += max(tottime - charged, 0.0)
    total_s = sum(self_s.values())
    return {
        "total_s": total_s,
        "py_calls": py_calls,
        "layers": {layer: {"self_s": self_s.get(layer, 0.0),
                           "self_share": (self_s.get(layer, 0.0) / total_s
                                          if total_s else 0.0),
                           "calls": calls.get(layer, 0)}
                   for layer in LAYERS},
    }


class Tracer:
    """Span recorder plus drive profiler for one traced repetition.

    ``after_drive`` (if given) is called with the testbed after every
    drive; the campaign pass uses it to read each trial's public counters,
    which no campaign record carries.
    """

    def __init__(self, workload: str, profile: bool = True,
                 after_drive: Optional[Callable] = None):
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._driving = False
        self._profiler = cProfile.Profile() if profile else None
        self._after_drive = after_drive
        self.drive_s = 0.0

    # ----------------------------------------------------------------- spans

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span; its parent is the innermost open span."""
        index = len(self.spans)
        self.spans.append({"name": name, "start_ns": time.perf_counter_ns(),
                           "end_ns": None,
                           "parent": self._open[-1] if self._open else None,
                           "workload": self.workload})
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index]["end_ns"] = time.perf_counter_ns()

    def self_times(self) -> dict:
        """Per span name: count, total and self seconds (a span's duration
        minus the part its child spans cover)."""
        child_ns: dict = defaultdict(int)
        for row in self.spans:
            if row["parent"] is not None:
                child_ns[row["parent"]] += row["end_ns"] - row["start_ns"]
        out: dict = {}
        for index, row in enumerate(self.spans):
            total = row["end_ns"] - row["start_ns"]
            entry = out.setdefault(row["name"],
                                   {"n": 0, "total_s": 0.0, "self_s": 0.0})
            entry["n"] += 1
            entry["total_s"] += total / 1e9
            entry["self_s"] += (total - child_ns[index]) / 1e9
        return out

    # -------------------------------------------------------------- wrappers

    def _spanned(self, name: str, original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            # App starts inside the drive (workload arrivals) belong to the
            # drive span and its profile, not to set-up.
            if self._driving:
                return original(*args, **kwargs)
            with self.span(name):
                return original(*args, **kwargs)
        return wrapper

    def _drive(self, original: Callable) -> Callable:
        def wrapper(testbed, *args, **kwargs):
            profiler = self._profiler
            with self.span("drive"):
                self._driving = True
                start = time.perf_counter()
                if profiler is not None:
                    profiler.enable()
                try:
                    return original(testbed, *args, **kwargs)
                finally:
                    if profiler is not None:
                        profiler.disable()
                    self.drive_s += time.perf_counter() - start
                    self._driving = False
                    if self._after_drive is not None:
                        self._after_drive(testbed)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        from repro.campaign import engine as campaign_engine
        from repro.check.oracle import InvariantOracle
        from repro.host.app import Application
        from repro.obs.export import ObsSession
        from repro.scenarios import builder as scenario_builder
        from repro.scenarios import runner as scenario_runner
        from repro.scenarios.builder import Testbed
        from repro.sttcp.manager import SttcpPair
        from repro.workloads import runner as workload_runner

        targets = [
            (scenario_runner, "build_testbed", "build_testbed"),
            (workload_runner, "build_testbed", "build_testbed"),
            # Campaign trials build (or thaw) their testbed themselves.
            (scenario_builder, "build_testbed", "build_testbed"),
            (Testbed, "restore", "restore_testbed"),
            (scenario_runner, "build_timeline", "build_timeline"),
            (workload_runner, "build_timeline", "build_timeline"),
            (Application, "start", "app_start"),
            (SttcpPair, "start", "pair_start"),
            (ObsSession, "finalize", "obs_finalize"),
            (InvariantOracle, "detach", "oracle_detach"),
            (campaign_engine, "expand", "expand"),
            (campaign_engine, "execute_trial", "execute_trial"),
            (campaign_engine.CampaignResult, "to_json", "to_json"),
        ]
        saved = []
        try:
            for owner, attr, name in targets:
                # vars(): a staticmethod must be saved (and put back) as
                # the descriptor, not as the function getattr returns.
                saved.append((owner, attr, vars(owner)[attr]))
                wrapper = self._spanned(name, getattr(owner, attr))
                if isinstance(vars(owner)[attr], staticmethod):
                    wrapper = staticmethod(wrapper)
                setattr(owner, attr, wrapper)
            saved.append((Testbed, "run_until", Testbed.run_until))
            Testbed.run_until = self._drive(Testbed.run_until)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # --------------------------------------------------------------- results

    def layer_budget(self) -> Optional[dict]:
        """The folded drive profile (None when profiling was off)."""
        if self._profiler is None:
            return None
        return fold_layers(pstats.Stats(self._profiler).stats)
