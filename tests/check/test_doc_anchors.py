"""Doc anchors that cannot rot.

The docs point into the code as `` `src/repro/<module>.py::<Symbol>` ``
(a pytest-style node id), never as ``path:line``: a line number is wrong
after the next edit above it, and nothing notices.  This test imports
every anchored module and walks every attribute of the symbol, the way
``tests/obs/test_registry_sync.py::test_every_emitted_by_alternative_resolves``
holds the probe registry's ``emitted_by`` names to the code.
"""

import importlib
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
DOCS = [REPO / "README.md", *sorted((REPO / "docs").rglob("*.md"))]

ANCHOR = re.compile(r"`src/(repro/[\w/]+)\.py::([\w.]+)`")
LINE_ANCHOR = re.compile(r"\bsrc/[\w/.-]+\.py:\d")


def _anchors():
    for doc in DOCS:
        for match in ANCHOR.finditer(doc.read_text(encoding="utf-8")):
            yield doc.relative_to(REPO).as_posix(), match.group(1), \
                match.group(2)


def test_the_anchor_pattern_reads_node_ids():
    found = ANCHOR.findall("see `src/repro/sttcp/engine.py::SttcpEngine._tick`")
    assert found == [("repro/sttcp/engine", "SttcpEngine._tick")]
    assert LINE_ANCHOR.search("`src/repro/sttcp/primary.py:306`")


def test_every_anchored_symbol_resolves():
    anchors = list(_anchors())
    assert len(anchors) >= 30, "paper-mapping.md lost its anchors?"
    unresolved = []
    for doc, path, symbol in anchors:
        try:
            target = importlib.import_module(path.replace("/", "."))
            for name in symbol.split("."):
                target = getattr(target, name)
        except (ImportError, AttributeError) as exc:
            unresolved.append(f"{doc}: {path}.py::{symbol} ({exc!r})")
    assert not unresolved, unresolved


def test_no_doc_anchors_by_line_number():
    strays = [f"{doc.relative_to(REPO)}: {m.group(0)}" for doc in DOCS
              for m in LINE_ANCHOR.finditer(doc.read_text(encoding="utf-8"))]
    assert not strays, f"use `path::Symbol` instead: {strays}"
