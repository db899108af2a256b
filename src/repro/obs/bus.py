"""The probe bus — components fire named probe points, observers attach.

The bus is the one emit path: every event a component reports is a fire
of a probe registered in :mod:`repro.obs.registry`, and everything that
watches — an :class:`~repro.obs.export.ObsSession`, the invariant oracle,
the milestone list ``World.trace`` — is a subscriber.

Dispatch is compiled, not looked up.  Every subscription change rebuilds
one table, ``probe -> (category, default message, sinks)``, where
``sinks`` is an immutable tuple: the probe's own subscribers in
subscription order, then the wildcards.  A fire indexes that table once,
builds one :class:`ProbeEvent` and walks the tuple.  Because the tuple a
fire walks is never mutated, **a subscription change made from inside a
callback takes effect from the next fire**: every sink attached when the
fire began still sees the event, and none attached during it does.
:meth:`ProbeBus.attach` takes any number of ``(probe, callback)`` pairs
for one compile, so a session that binds a handler to every registered
probe costs what one subscription costs.

The design goal is zero overhead when nobody is listening.  Hot emitters
ask :meth:`ProbeBus.wants` first — a single dict lookup, true exactly
when the probe's sink tuple is non-empty — and skip building their field
values entirely when a fire would do no work.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, NamedTuple, Optional

from repro.obs.registry import PROBES, ProbeSpec, UnknownProbeError

__all__ = ["ProbeEvent", "ProbeBus"]


class ProbeEvent(NamedTuple):
    """One probe firing, as delivered to subscribers (immutable).

    ``fields`` holds what the emitter passed; a value may be a live
    simulator object that is only valid during the callback (``eth.frame``
    passes a pooled frame — copy it with
    :func:`~repro.obs.export.describe_frame` to keep it; ``tcp.segment_tx``
    passes the sending connection — copy the state you need from it).  A
    subscriber that keeps ``fields`` past the callback must copy inside it.
    """

    time: int                    # virtual time, ns
    probe: str                   # registered probe name, e.g. "tcp.retransmit"
    category: str                # the probe's category
    source: str                  # component name, e.g. "primary.tcp"
    message: str                 # human-readable summary
    fields: dict[str, Any]       # what the emitter passed, by keyword

    @property
    def time_s(self) -> float:
        """Event time in (float) seconds."""
        return self.time / 1_000_000_000


Subscriber = Callable[[ProbeEvent], None]

_new_event = tuple.__new__

# The table of a bus nobody listens to: (category, default message, no
# sinks) per probe name.  Every bus starts as a copy — the registry is
# immutable, so this is computed once at import.
_IDLE_TABLE: dict[str, tuple[str, str, tuple]] = {
    name: (spec.category, name.split(".", 1)[1] if "." in name else name, ())
    for name, spec in PROBES.items()}


class ProbeBus:
    """Named probe points with per-probe and wildcard subscribers."""

    __slots__ = ("_clock", "_subs", "_all", "_table", "wants_map", "fired")

    def __init__(self, clock: Callable[[], int]):
        self._clock = clock
        self._subs: dict[str, list[Subscriber]] = {}
        self._all: list[Subscriber] = []
        # probe -> (category, default message, sinks), recompiled for
        # every registered probe on any subscription change — those are
        # rare, per-frame fires are not.
        self._table = _IDLE_TABLE.copy()
        # probe -> "would a fire do any work" (a non-empty sink tuple).
        # Hot emitters index this dict directly (``probes.wants_map[...]``).
        self.wants_map = dict.fromkeys(_IDLE_TABLE, False)
        self.fired = 0  # fires that had a sink

    # ---------------------------------------------------------- subscribing

    def attach(self, pairs: Iterable[tuple[str, Subscriber]]
               ) -> list[Subscriber]:
        """Attach every ``(probe, callback)`` pair with one table compile;
        returns the callbacks.  Every name is validated before anything
        changes, so a bad one leaves the bus as it was."""
        pairs = list(pairs)
        for probe, _callback in pairs:
            self._spec(probe)
        for probe, callback in pairs:
            self._subs.setdefault(probe, []).append(callback)
        self._invalidate()
        return [callback for _probe, callback in pairs]

    def subscribe(self, probe: str, callback: Subscriber) -> Subscriber:
        """Attach ``callback`` to one probe point; returns the callback."""
        self.attach(((probe, callback),))
        return callback

    def subscribe_all(self, callback: Subscriber) -> Subscriber:
        """Attach ``callback`` to every probe point."""
        self._all.append(callback)
        self._invalidate()
        return callback

    def unsubscribe(self, *callbacks: Subscriber) -> None:
        """Detach each callback wherever it is attached (idempotent);
        one table compile however many are given."""
        for subs in (*self._subs.values(), self._all):
            subs[:] = [sub for sub in subs if sub not in callbacks]
        self._invalidate()

    def wants(self, probe: str) -> bool:
        """True when a fire of ``probe`` would do *any* work — reach a
        subscriber or a wildcard.  One dict lookup: hot emitters guard
        with this (or index :attr:`wants_map` directly) and skip building
        field values."""
        try:
            return self.wants_map[probe]
        except KeyError:
            self._spec(probe)  # raises UnknownProbeError with the hint
            raise

    def _invalidate(self) -> None:
        """Recompile every probe's entry (subscription change)."""
        subs = self._subs
        wildcards = tuple(self._all)
        table = self._table
        wants_map = self.wants_map
        for name, idle in _IDLE_TABLE.items():
            sinks = tuple(subs.get(name, ())) + wildcards
            table[name] = (idle[0], idle[1], sinks) if sinks else idle
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
        category, default_message, sinks = entry
        if not sinks:
            return
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
