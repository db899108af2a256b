"""docs/scheduler.md stays in sync with the kernel's queue constants.

The design chapter's parameter table quotes the `Simulator` class
constants; retuning the queue without retuning the chapter (or vice
versa) must fail CI, the same way docs/invariants.md is pinned to the
invariant catalogue by test_catalogue.py.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.sim.core import Simulator

DOC = Path(__file__).resolve().parents[2] / "docs" / "scheduler.md"

#: Every tuning constant the chapter must document.
CONSTANTS = ("COMPACT_MIN_QUEUE",)


def doc_table() -> dict[str, int]:
    text = DOC.read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([A-Z0-9_]+)` \| ([0-9_]+) \|", text,
                      flags=re.MULTILINE)
    return {name: int(value.replace("_", "")) for name, value in rows}


def test_doc_documents_every_queue_constant():
    table = doc_table()
    for name in CONSTANTS:
        assert name in table, f"{name} missing from {DOC.name}'s table"


def test_doc_values_match_the_code():
    for name, value in doc_table().items():
        actual = getattr(Simulator, name, None)
        assert actual is not None, (
            f"{DOC.name} documents {name}, which no longer exists on "
            f"Simulator — update the chapter")
        assert value == actual, (
            f"{DOC.name} says {name} = {value}, code says {actual} — "
            f"retune the chapter to match the kernel")


def test_no_undocumented_queue_constant_in_code():
    """A new tuning knob on Simulator must be added to the chapter
    (and to CONSTANTS above)."""
    code_constants = {name for name in vars(Simulator)
                      if re.fullmatch(r"[A-Z0-9_]+", name)}
    assert code_constants == set(CONSTANTS)


def test_doc_cross_references_exist():
    text = DOC.read_text(encoding="utf-8")
    for needle in ("tests/property/test_scheduler_properties.py",
                   "tests/integration/test_fleet_smoke.py",
                   "credit_events", "plan_transmit", "net_epoch"):
        assert needle in text, f"{needle!r} missing from {DOC.name}"
