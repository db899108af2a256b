"""EXPERIMENTS.md quotes the committed tables, not its memory of them.

Each heading of EXPERIMENTS.md that names a :mod:`repro.experiments`
entry in backticks opens that entry's section.  A backticked span with a
digit in it is a quoted figure: it must appear verbatim in
``benchmarks/results/<entry>.txt``, the file the registry regenerates
and ``tests/integration/test_experiments.py`` holds to the runs.  A
figure outside an entry's section has no file to be checked against,
so it fails too.
"""

import re
from pathlib import Path

from repro.experiments import EXPERIMENTS

REPO = Path(__file__).resolve().parents[2]
DOC = REPO / "EXPERIMENTS.md"
RESULTS = REPO / "benchmarks" / "results"

FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
QUOTE = re.compile(r"`([^`\n]*\d[^`\n]*)`")


def _sections():
    """``(entry or None, body)`` per heading, fenced code removed."""
    entry, body = None, []
    for line in FENCE.sub("", DOC.read_text(encoding="utf-8")).splitlines():
        if line.startswith("#"):
            yield entry, "\n".join(body)
            named = [n for n in re.findall(r"`(\w+)`", line)
                     if n in EXPERIMENTS]
            entry, body = (named[0] if named else None), []
        else:
            body.append(line)
    yield entry, "\n".join(body)


def test_the_figure_pattern():
    assert QUOTE.findall("`605.5ms` and `2,000/2,000`, not `AppMaxLag`") \
        == ["605.5ms", "2,000/2,000"]


def test_every_entry_has_a_section():
    named = [entry for entry, _ in _sections() if entry is not None]
    assert sorted(named) == sorted(EXPERIMENTS)


def test_every_quoted_figure_is_in_its_entry_file():
    stray = []
    for entry, body in _sections():
        text = ((RESULTS / f"{entry}.txt").read_text(encoding="utf-8")
                if entry else "")
        stray += [(entry, figure) for figure in QUOTE.findall(body)
                  if figure not in text]
    assert not stray, f"figures not in the entry's results file: {stray}"
