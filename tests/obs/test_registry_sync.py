"""The registry-drift guards.

The probe registry (``repro.obs.registry``) is the single source of truth
for instrumentation names.  These tests statically scan ``src/`` for the
string literals components actually emit and fail when anything is
missing from the registry — and when the registry itself is missing from
``docs/observability.md``.
"""

import importlib
import re
from pathlib import Path

from repro.obs.registry import CATEGORIES, PROBES
from repro.scenarios.builder import MILESTONE_CATEGORIES
from repro.sttcp.events import EventKind

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
DOCS = REPO / "docs"

_FIRE_LITERAL = re.compile(r'probes\.fire\(\s*\n?\s*"([\w.-]+)"')


def _scan(pattern):
    hits = {}
    for path in sorted(SRC.rglob("*.py")):
        for name in pattern.findall(path.read_text(encoding="utf-8")):
            hits.setdefault(name, []).append(path.relative_to(REPO))
    return hits


def test_every_fired_probe_literal_is_registered():
    """Each literal ``probes.fire("<name>", ...)`` in src/ must be a
    registered probe point."""
    fired = _scan(_FIRE_LITERAL)
    assert fired, "scan found no probes.fire call sites — regex broken?"
    unregistered = {name: paths for name, paths in fired.items()
                    if name not in PROBES}
    assert not unregistered, (
        f"probes fired but missing from repro.obs.registry.PROBES: "
        f"{unregistered}")


def test_every_registered_probe_has_a_fire_site():
    """The converse: a row nobody fires is a dead row.  (``sttcp.<kind>``
    rows are fired through one f-string; the next test covers them.)"""
    fired = _scan(_FIRE_LITERAL)
    engine = {f"sttcp.{v}" for k, v in vars(EventKind).items()
              if isinstance(v, str) and not k.startswith("_")}
    dead = [name for name in PROBES if name not in fired
            and name not in engine]
    assert not dead, f"registered probes with no probes.fire site: {dead}"


def _emitter_paths(emitted_by: str) -> list[str]:
    """``a.B.m1/m2`` names two methods of one owner; `` / `` separates
    full paths (the registry's convention)."""
    paths = []
    for full in emitted_by.split(" / "):
        first, *others = full.split("/")
        owner = first.rsplit(".", 1)[0]
        paths += [first, *(f"{owner}.{name}" for name in others)]
    return paths


def _resolve(path: str):
    """Import the longest module prefix of ``path``, walk the rest."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            target = getattr(target, name)
        return target
    raise ImportError(path)


def test_every_emitted_by_alternative_resolves():
    """A row's ``emitted_by`` names code that exists: each alternative
    imports and every attribute on the way resolves."""
    assert _emitter_paths("a.B.m1/m2 / c.D") == ["a.B.m1", "a.B.m2", "c.D"]
    unresolved = {}
    for spec in PROBES.values():
        for path in _emitter_paths(spec.emitted_by):
            try:
                _resolve(path)
            except (ImportError, AttributeError) as exc:
                unresolved[spec.name] = f"{path}: {exc!r}"
    assert not unresolved, unresolved


def test_every_engine_event_kind_has_a_probe():
    """SttcpEngine.emit fires ``sttcp.<kind>`` via an f-string, which the
    literal scan cannot see; require the registry to cover the whole
    EventKind vocabulary instead."""
    kinds = [v for k, v in vars(EventKind).items()
             if isinstance(v, str) and not k.startswith("_")]
    assert kinds, "EventKind introspection found nothing — API changed?"
    missing = [k for k in kinds if f"sttcp.{k}" not in PROBES]
    assert not missing, f"EventKind values with no sttcp.<kind> probe: " \
                        f"{missing}"


def test_default_trace_categories_are_registered():
    """What ``build_testbed`` keeps in ``world.trace``."""
    assert set(MILESTONE_CATEGORIES) <= set(CATEGORIES)


def test_probe_categories_are_registered():
    for spec in PROBES.values():
        assert spec.category in CATEGORIES, spec.name


def test_docs_list_every_probe_and_category():
    """docs/observability.md renders the registry for humans; a probe or
    category absent from the doc means the doc has drifted."""
    doc = (DOCS / "observability.md").read_text(encoding="utf-8")
    missing_probes = [name for name in PROBES if f"`{name}`" not in doc]
    assert not missing_probes, (
        f"probes missing from docs/observability.md: {missing_probes}")
    missing_cats = [cat for cat in CATEGORIES if f"`{cat}`" not in doc]
    assert not missing_cats, (
        f"categories missing from docs/observability.md: {missing_cats}")


def test_every_registered_probe_has_a_compiled_dispatch_entry():
    """The bus recompiles its whole dispatch table on every subscription
    change; a registered probe without an entry would make its emitter's
    ``wants_map[...]`` guard raise mid-run."""
    from repro.obs.bus import ProbeBus

    bus = ProbeBus(lambda: 0)

    def compiled():
        assert set(bus._table) == set(bus.wants_map) == set(PROBES)
        for name, (category, _message, sinks) in bus._table.items():
            assert category == PROBES[name].category
            assert isinstance(sinks, tuple)
            assert bus.wants_map[name] == bool(sinks)

    compiled()
    callback = bus.subscribe("tcp.segment_tx", lambda ev: None)
    compiled()
    bus.subscribe_all(callback)
    compiled()
    bus.attach((name, callback) for name in PROBES)
    compiled()
    bus.unsubscribe(callback)
    compiled()
    assert not any(bus.wants_map.values())
