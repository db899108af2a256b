"""Pins for the missed-byte recovery runs (Table 1 row 5 and the Sec. 4.3
logger): every engine event and what the client saw.

Each run's pin holds, per engine, the count of each event kind and a
SHA-256 of its ``(time, kind, sorted detail)`` rows, plus the client's
completed echoes and resets.  ``unrecoverable`` rows are kept in full and
left out of the hash: the pins were recorded when a connection could be
declared unrecoverable once per unavailable fetch reply, and today it is
declared once, at its first row.  Any other moved row is a change in
what the control traffic (ConnInit, FetchRequest/FetchReply, ConnClosed)
did.  Regenerate only for an intended behaviour change::

    PYTHONPATH=src python -m tests.integration.recovery_pins \\
        > tests/integration/recovery_pins.json
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from collections import Counter

from repro.sttcp.events import EventKind

PATH = pathlib.Path(__file__).with_name("recovery_pins.json")


def pin(tb, client) -> dict:
    """The run's pin: both engines' event streams and the client's tally."""
    out = {"client": {"echoes": len(client.rtts_ns),
                      "resets": client.reset_count}}
    for role, engine in (("primary", tb.pair.primary),
                         ("backup", tb.pair.backup)):
        events = [[e.time, e.kind, sorted(e.detail.items())]
                  for e in engine.events]
        # Through JSON, so tuples compare as the file reads them back.
        rows = json.loads(json.dumps(events))
        hashed = [r for r in rows if r[1] != EventKind.UNRECOVERABLE]
        out[role] = {
            "counts": dict(sorted(Counter(r[1] for r in rows).items())),
            "sha256": hashlib.sha256(
                json.dumps(hashed).encode("utf-8")).hexdigest(),
            "unrecoverable": [r for r in rows
                              if r[1] == EventKind.UNRECOVERABLE],
        }
    return out


def _first_per_key(rows: list) -> list:
    seen, first = set(), []
    for row in rows:
        key = json.dumps(dict(row[2]).get("key"))
        if key not in seen:
            seen.add(key)
            first.append(row)
    return first


def assert_pinned(name: str, tb, client) -> None:
    """Hold the run to its recorded pin, each connection's repeated
    ``unrecoverable`` rows excepted."""
    want = json.loads(PATH.read_text(encoding="utf-8"))[name]
    got = pin(tb, client)
    assert got["client"] == want["client"], name
    for role in ("primary", "backup"):
        expected = dict(want[role])
        expected["unrecoverable"] = _first_per_key(expected["unrecoverable"])
        counts = dict(expected["counts"])
        if expected["unrecoverable"]:
            counts[EventKind.UNRECOVERABLE] = len(expected["unrecoverable"])
        expected["counts"] = counts
        assert got[role] == expected, f"{name}: {role} events moved"


def _record() -> dict:
    from tests.integration import test_recovery
    from tests.sttcp import test_logger

    runs = {
        "loss-burst": test_recovery.loss_burst_run,
        "loss-burst-crash": test_recovery.loss_burst_crash_run,
        "sustained-overload": test_recovery.sustained_overload_run,
        "crash-mid-recovery": lambda: test_logger.crash_mid_recovery(
            with_logger=False)[:2],
        "crash-mid-recovery-logger": lambda: test_logger.crash_mid_recovery(
            with_logger=True)[:2],
    }
    for seed in test_logger.LOGGER_LOSS_SEEDS:
        runs[f"logger-loss-seed{seed}"] = (
            lambda seed=seed: test_logger.crash_mid_recovery(
                with_logger=True, seed=seed,
                logger_loss=test_logger.LOGGER_LOSS)[:2])
    return {name: pin(*run()) for name, run in runs.items()}


if __name__ == "__main__":
    print(json.dumps(_record(), indent=1, sort_keys=True))
