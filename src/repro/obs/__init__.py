"""repro.obs — the unified observability layer.

One registry of named probe points (:mod:`repro.obs.registry`), a probe
bus components fire into (:mod:`repro.obs.bus`), a metrics registry
(:mod:`repro.obs.metrics`), and exporters that turn a run into JSONL
artifacts (:mod:`repro.obs.export`).  See ``docs/observability.md``.

The exporters are imported from :mod:`repro.obs.export` itself:
:mod:`repro.sim.world` imports the bus, and the exporters import the net
layer, so importing them here would close a cycle back through
``World``.
"""

from repro.obs.bus import ProbeBus, ProbeEvent
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               format_snapshot_json, format_snapshot_text)
from repro.obs.registry import CATEGORIES, PROBES, ProbeSpec, UnknownProbeError

__all__ = [
    "ProbeBus", "ProbeEvent",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "format_snapshot_json", "format_snapshot_text",
    "CATEGORIES", "PROBES", "ProbeSpec", "UnknownProbeError",
]
