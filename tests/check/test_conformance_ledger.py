"""docs/rfc9293-conformance.md stays in sync with the code.

Every row the ledger claims names the method that implements it and the
test that holds it; a row that names a method or test that is gone, or
names none, fails here.  Every step method of
``TcpConnection.segment_arrived`` must have a row, and every non-goal a
reason.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
DOC = REPO / "docs" / "rfc9293-conformance.md"

METHOD = re.compile(r"`src/(repro/[\w/]+)\.py::([\w.]+)`")
TEST = re.compile(r"`(tests/[\w/]+\.py)::(\w+)`")
STEPS = ("_check_sequence", "_check_rst", "_check_syn", "_check_ack",
         "_process_text", "_check_fin")


def _table(heading: str) -> list[list[str]]:
    """The body rows of the first table under ``## heading``."""
    text = DOC.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in row.strip("|").split("|")]
            for row in rows[2:]]


def _resolves(module: str, symbol: str) -> bool:
    try:
        target = importlib.import_module(module.replace("/", "."))
        for name in symbol.split("."):
            target = getattr(target, name)
    except (ImportError, AttributeError):
        return False
    return True


def _test_exists(path: str, name: str) -> bool:
    file = REPO / path
    if not file.is_file():
        return False
    tree = ast.parse(file.read_text(encoding="utf-8"))
    return any(isinstance(node, ast.FunctionDef) and node.name == name
               for node in tree.body)


def test_every_claimed_row_names_a_live_method_and_test():
    rows = _table("Claimed")
    assert len(rows) >= 15, "the ledger lost its rows?"
    broken = []
    for section, requirement, level, methods, tests in rows:
        found_methods = METHOD.findall(methods)
        found_tests = TEST.findall(tests)
        if not found_methods or not found_tests:
            broken.append(f"{section}: names no method or no test")
        broken += [f"{section}: no method {m}.py::{s}"
                   for m, s in found_methods if not _resolves(m, s)]
        broken += [f"{section}: no test {p}::{n}"
                   for p, n in found_tests if not _test_exists(p, n)]
        if level not in ("MUST", "SHOULD", "rule", "deviation"):
            broken.append(f"{section}: level {level!r}")
    assert not broken, broken


def test_every_step_method_is_in_the_ledger():
    claimed = {symbol for row in _table("Claimed")
               for _, symbol in METHOD.findall(row[3])}
    missing = [step for step in STEPS
               if f"TcpConnection.{step}" not in claimed]
    assert not missing, missing


def test_the_step_table_names_the_step_methods_in_order():
    symbols = [METHOD.findall(row[1])[0][1]
               for row in _table("Segment arrival")]
    assert symbols == [f"TcpConnection.{step}" for step in STEPS]


def test_every_non_goal_says_why():
    rows = _table("Non-goals")
    assert rows, "no non-goals: challenge-ACK rate limiting at least"
    assert all(len(row) == 4 and row[3] for row in rows), rows
