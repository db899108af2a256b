"""The probe bus — components fire named probe points, observers attach.

A fire of a ``traced`` probe also produces exactly the
:class:`~repro.sim.trace.TraceLog` record the component used to emit
directly (same category, source, message and fields), so trace-based
tests see identical output.  Non-traced probes (the high-volume packet
taps) reach only bus subscribers.

Dispatch is compiled, not looked up.  Every subscription or trace-filter
change rebuilds one table, ``probe -> (category, default message, sinks)``,
where ``sinks`` is an immutable tuple: the probe's own subscribers in
subscription order, then the wildcards, then — for a traced probe whose
category the trace log keeps — the log's mirror, last.  A fire indexes
that table once, builds one :class:`ProbeEvent` and walks the tuple.
Because the tuple a fire walks is never mutated, **a subscription change
made from inside a callback takes effect from the next fire**: every
sink attached when the fire began still sees the event, and none
attached during it does.

The design goal is zero overhead when nobody is listening.  Hot emitters
ask :meth:`ProbeBus.wants` first — a single dict lookup, true exactly
when the probe's sink tuple is non-empty — and skip building their field
values entirely when a fire would do no work.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Optional

from repro.obs.registry import PROBES, ProbeSpec, UnknownProbeError

__all__ = ["ProbeEvent", "ProbeBus"]


class ProbeEvent(NamedTuple):
    """One probe firing, as delivered to subscribers (immutable).

    ``fields`` holds what the emitter passed; a value may be a live
    simulator object that is only valid during the callback (``eth.frame``
    passes a pooled frame — copy it with
    :func:`~repro.obs.export.describe_frame` to keep it).
    """

    time: int                    # virtual time, ns
    probe: str                   # registered probe name, e.g. "tcp.retransmit"
    category: str                # the probe's trace category
    source: str                  # component name, e.g. "primary.tcp"
    message: str                 # human-readable summary
    fields: dict[str, Any]       # what the emitter passed, by keyword

    @property
    def time_s(self) -> float:
        """Event time in (float) seconds."""
        return self.time / 1_000_000_000


Subscriber = Callable[[ProbeEvent], None]

_new_event = tuple.__new__

# (category, default message, traced) per probe name, shared by every bus
# instance — the registry is immutable, so this is computed once at import.
_PROBE_INFO: dict[str, tuple[str, str, bool]] = {
    name: (spec.category, name.split(".", 1)[1] if "." in name else name,
           spec.traced)
    for name, spec in PROBES.items()}


class ProbeBus:
    """Named probe points with per-probe and wildcard subscribers."""

    __slots__ = ("_clock", "_trace", "_subs", "_all", "_table", "wants_map",
                 "fired")

    def __init__(self, clock: Callable[[], int], trace=None):
        self._clock = clock
        self._trace = trace
        self._subs: dict[str, list[Subscriber]] = {}
        self._all: list[Subscriber] = []
        # probe -> (category, default message, sinks, reaches a subscriber),
        # recompiled for every registered probe on any subscription or
        # trace-filter change — those are rare, per-frame fires are not.
        self._table: dict[str, tuple[str, str, tuple, bool]] = {}
        # probe -> "would a fire do any work" (a non-empty sink tuple).
        # Hot emitters index this dict directly (``probes.wants_map[...]``).
        self.wants_map: dict[str, bool] = {}
        self.fired = 0  # fires that reached a subscriber (mirror-only: no)
        self._invalidate()
        if trace is not None:
            trace.on_filter_change(self._invalidate)

    # ---------------------------------------------------------- subscribing

    def subscribe(self, probe: str, callback: Subscriber) -> Subscriber:
        """Attach ``callback`` to one probe point; returns the callback."""
        self._spec(probe)  # validate the name early
        self._subs.setdefault(probe, []).append(callback)
        self._invalidate()
        return callback

    def subscribe_all(self, callback: Subscriber) -> Subscriber:
        """Attach ``callback`` to every probe point."""
        self._all.append(callback)
        self._invalidate()
        return callback

    def unsubscribe(self, callback: Subscriber) -> None:
        """Detach a callback wherever it is attached (idempotent)."""
        for subs in self._subs.values():
            while callback in subs:
                subs.remove(callback)
        while callback in self._all:
            self._all.remove(callback)
        self._invalidate()

    def enabled(self, probe: str) -> bool:
        """True when a fire of ``probe`` would reach at least one
        subscriber.  Answers from the same compiled entry as
        :meth:`wants`; the one difference is that the trace-log mirror
        of a traced probe makes ``wants`` true but is not a subscriber."""
        return self.wants(probe) and self._table[probe][3]

    def wants(self, probe: str) -> bool:
        """True when a fire of ``probe`` would do *any* work — reach a
        subscriber, a wildcard, or (for traced probes) an enabled trace
        category.  One dict lookup: hot emitters guard with this (or index
        :attr:`wants_map` directly) and skip building field values."""
        try:
            return self.wants_map[probe]
        except KeyError:
            self._spec(probe)  # raises UnknownProbeError with the hint
            raise

    def _invalidate(self) -> None:
        """Recompile every probe's entry (subscription/filter change)."""
        subs = self._subs
        wildcards = tuple(self._all)
        trace = self._trace
        table = self._table
        wants_map = self.wants_map
        for name, (category, default_message, traced) in _PROBE_INFO.items():
            sinks = tuple(subs.get(name, ())) + wildcards
            subscribed = bool(sinks)
            if traced and trace is not None and trace.wants(category):
                sinks += (trace.mirror,)  # last: record order unchanged
            table[name] = (category, default_message, sinks, subscribed)
            wants_map[name] = bool(sinks)

    # --------------------------------------------------------------- firing

    def fire(self, probe: str, source: str, message: Optional[str] = None,
             **fields: Any) -> None:
        """Fire one probe point.

        ``message`` defaults to the probe's event name (the part after the
        category).  Unregistered probe names raise
        :class:`~repro.obs.registry.UnknownProbeError` — the registry is
        the single source of truth, so drift fails fast.
        """
        entry = self._table.get(probe)
        if entry is None:
            self._spec(probe)  # raises UnknownProbeError with the hint
        category, default_message, sinks, subscribed = entry
        if not sinks:
            return
        if subscribed:
            self.fired += 1
        # tuple.__new__ directly: the generated ProbeEvent.__new__ is one
        # more Python frame per fire for the same tuple.
        event = _new_event(ProbeEvent, (
            self._clock(), probe, category, source,
            message if message is not None else default_message, fields))
        for sink in sinks:
            sink(event)

    # ----------------------------------------------------------------- misc

    @staticmethod
    def _spec(probe: str) -> ProbeSpec:
        spec = PROBES.get(probe)
        if spec is None:
            raise UnknownProbeError(
                f"probe {probe!r} is not in the registry "
                f"(repro.obs.registry.PROBES; see docs/observability.md)")
        return spec

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        n_subs = sum(len(s) for s in self._subs.values())
        return f"<ProbeBus subs={n_subs} wildcard={len(self._all)}>"
