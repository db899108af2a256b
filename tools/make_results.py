"""Regenerate benchmarks/results/<entry>.txt from the experiment registry.

Usage (from the repo root)::

    PYTHONPATH=src python tools/make_results.py [--check] [ENTRY ...]

A file is what ``python -m repro <entry>`` prints at the entry's
defaults.  The tables are deterministic: commit a changed one with its
cause.  ``--check`` writes nothing and exits 1 if any file would change.
"""

import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
RESULTS = REPO / "benchmarks" / "results"
sys.path.insert(0, str(REPO / "src"))

from repro.experiments import EXPERIMENTS  # noqa: E402


def main(argv) -> int:
    check = "--check" in argv
    changed = 0
    for name in [a for a in argv if a != "--check"] or EXPERIMENTS:
        text = EXPERIMENTS[name].render(EXPERIMENTS[name].run()) + "\n"
        path = RESULTS / f"{name}.txt"
        same = path.exists() and path.read_text(encoding="utf-8") == text
        changed += not same
        if not (same or check):
            path.write_text(text, encoding="utf-8")
        print(f"{name}: {'same' if same else 'changed'}")
    return 1 if check and changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
