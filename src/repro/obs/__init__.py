"""repro.obs — the unified observability layer.

One registry of named probe points (:mod:`repro.obs.registry`), a probe
bus components fire into (:mod:`repro.obs.bus`), a metrics registry
(:mod:`repro.obs.metrics`), and exporters that turn a run into JSONL
artifacts (:mod:`repro.obs.export`).  See ``docs/observability.md``.

The exporters are imported lazily (PEP 562): :mod:`repro.sim.world`
imports the bus, and :mod:`repro.obs.export` imports the net layer, so an
eager import here would close a cycle back through ``World``.
"""

from repro.obs.bus import ProbeBus, ProbeEvent
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               format_snapshot_json, format_snapshot_text)
from repro.obs.registry import CATEGORIES, PROBES, ProbeSpec, UnknownProbeError

__all__ = [
    "ProbeBus", "ProbeEvent",
    "OBS_LEVELS", "ObsSession", "describe_frame",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "format_snapshot_json", "format_snapshot_text",
    "CATEGORIES", "PROBES", "ProbeSpec", "UnknownProbeError",
]

_LAZY = {"ObsSession", "OBS_LEVELS", "describe_frame", "jsonl_line"}


def __getattr__(name: str):
    if name in _LAZY:
        from repro.obs import export
        return getattr(export, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
