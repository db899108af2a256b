"""docs/congestion.md stays in sync with the congestion-control code.

The registry in ``repro.tcp.congestion`` is the single source of truth;
the rendered page must cover every registered algorithm, every hook of
the interface contract, and must not document algorithms that do not
exist (same pattern as tests/check/test_catalogue.py for invariants.md).
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.tcp.congestion import (CC_ALGORITHMS, CongestionControl,
                                  cc_names)

DOC = Path(__file__).resolve().parents[2] / "docs" / "congestion.md"

HOOKS = ("on_new_ack", "on_dupack", "on_timeout", "on_retransmit",
         "on_exit_recovery", "send_window", "export_state")


def test_doc_mentions_every_registered_algorithm():
    text = DOC.read_text(encoding="utf-8")
    for name in cc_names():
        assert f"`{name}`" in text, f"{name} missing from {DOC.name}"


def test_doc_documents_no_phantom_algorithms():
    """Names in the four-machines table must all exist in the registry."""
    text = DOC.read_text(encoding="utf-8")
    table_names = re.findall(r"^\| `([a-z]+)` \|", text,
                             flags=re.MULTILINE)
    assert sorted(table_names) == sorted(CC_ALGORITHMS)


def test_doc_covers_the_whole_hook_surface():
    text = DOC.read_text(encoding="utf-8")
    for hook in HOOKS:
        assert hook in dir(CongestionControl)
        assert f"`{hook}" in text, f"hook {hook} missing from {DOC.name}"


def test_export_state_matches_documented_keys():
    """The doc promises a stable export_state surface; hold it to it."""
    text = DOC.read_text(encoding="utf-8")
    for name in cc_names():
        cls = CC_ALGORITHMS[name]
        state = cls(1460).export_state()
        assert state["cc"] == name
    for key in ("cwnd", "ssthresh", "in_fast_recovery",
                "fast_retransmits", "timeouts"):
        assert f"`{key}`" in text

