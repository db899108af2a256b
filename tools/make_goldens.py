"""Regenerate the committed golden wire traces under tests/goldens/ and
the oracle-check / counters / summary pins in tests/obs/lazy_pins.json.

Usage (from the repo root)::

    PYTHONPATH=src python tools/make_goldens.py

Only run this after an *intended* wire-behaviour change, and commit the
refreshed files together with the change that caused them.  The scenario
registries live in tests/obs/test_golden_traces.py and
tests/obs/test_lazy_rows.py so the generator and the comparison tests can
never drift apart.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from tests.obs.test_golden_traces import (  # noqa: E402
    GOLDEN_ARTIFACTS, GOLDEN_DIR, SCENARIOS)
from tests.obs.test_lazy_rows import (  # noqa: E402
    CHECKED_SCENARIOS, PINS_PATH, observe)


def main() -> int:
    for name, scenario in sorted(SCENARIOS.items()):
        with tempfile.TemporaryDirectory() as tmp:
            paths = scenario(pathlib.Path(tmp))
            out_dir = GOLDEN_DIR / name
            out_dir.mkdir(parents=True, exist_ok=True)
            for artifact in GOLDEN_ARTIFACTS:
                dest = out_dir / artifact
                shutil.copyfile(paths[artifact], dest)
                print(f"{dest.relative_to(REPO_ROOT)}: "
                      f"{dest.stat().st_size} bytes")
    # After the goldens: observe() holds each checked run to them.
    pins = {}
    for name in sorted(CHECKED_SCENARIOS):
        with tempfile.TemporaryDirectory() as tmp:
            pins[name] = observe(name, tmp)
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    print(f"{PINS_PATH.relative_to(REPO_ROOT)}: "
          f"{PINS_PATH.stat().st_size} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
