"""Table 1, exhaustively: every single-failure row, both locations —
symptom classification AND recovery action.

``table1_pins.json`` holds, per cell, every ``sttcp`` and ``detect``
milestone of the run (instant, probe, source, message and the fields in
the order they were passed).  It was recorded before the two engines'
decision trees became one ``classify``, so any change in which detector
fires, when, with which reason or symptom, shows up here.  The runs are
the ``table1`` experiment's (:mod:`repro.experiments`).
"""

import json
import pathlib

import pytest

from repro.sttcp.events import EventKind

PINS = json.loads(pathlib.Path(__file__).with_name(
    "table1_pins.json").read_text(encoding="utf-8"))

# (row, the table1 experiment's run, expected detection kind, expected
# recovery)
MATRIX = [
    ("row1-primary", "hw_crash_primary",
     EventKind.PEER_CRASH_DETECTED, "takeover"),
    ("row1-backup", "hw_crash_backup",
     EventKind.PEER_CRASH_DETECTED, "non-ft"),
    ("row2-primary", "app_hang_primary",
     EventKind.APP_FAILURE_DETECTED, "takeover"),
    ("row2-backup", "app_hang_backup",
     EventKind.APP_FAILURE_DETECTED, "non-ft"),
    ("row3-primary", "app_crash_fin_primary",
     EventKind.APP_FAILURE_DETECTED, "takeover"),
    ("row3-backup", "app_crash_fin_backup",
     EventKind.APP_FAILURE_DETECTED, "non-ft"),
    ("row4-primary", "nic_failure_primary",
     EventKind.NIC_FAILURE_DETECTED, "takeover"),
    ("row4-backup", "nic_failure_backup",
     EventKind.NIC_FAILURE_DETECTED, "non-ft"),
]


def decision_rows(result):
    """The run's ``sttcp`` and ``detect`` milestones, as JSON reads them
    back (a connection key's tuple becomes a list)."""
    rows = [[e.time, e.probe, e.source, e.message, list(e.fields.items())]
            for e in result.testbed.world.trace
            if e.category in ("sttcp", "detect")]
    return json.loads(json.dumps(rows))


def test_every_cell_is_pinned():
    assert sorted(PINS) == sorted(m[0] for m in MATRIX)


@pytest.mark.parametrize("row_id,fault,kind,recovery",
                         MATRIX, ids=[m[0] for m in MATRIX])
def test_single_failure_masked_and_classified(row_id, fault, kind, recovery,
                                              experiment):
    result = experiment("table1")[fault]
    # The ST-TCP guarantee: the client never notices a single failure.
    assert result.stream_intact, f"{row_id}: stream damaged"
    pair = result.testbed.pair
    strip = result.testbed.power_strip

    if recovery == "takeover":
        assert pair.backup.events.has(kind), f"{row_id}: wrong classification"
        assert pair.backup.takeover_at is not None
        assert strip.was_powered_down("primary")
        assert pair.backup.mode == "active"
    else:
        assert pair.primary.events.has(kind), f"{row_id}: wrong classification"
        assert pair.backup.takeover_at is None
        assert strip.was_powered_down("backup")
        assert pair.primary.mode == "non-fault-tolerant"
    # Same detector, same instant, same reason and symptom, same fields.
    assert decision_rows(result) == PINS[row_id]
