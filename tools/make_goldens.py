"""Regenerate the committed golden wire traces under tests/goldens/ and
the oracle-check / counters / summary pins in tests/obs/lazy_pins.json.

Usage (from the repo root)::

    PYTHONPATH=src python tools/make_goldens.py [--check]

Only run this after an *intended* wire-behaviour change, and commit the
refreshed files together with the change that caused them.  The scenario
registries live in tests/obs/test_golden_traces.py and
tests/obs/test_lazy_rows.py so the generator and the comparison tests can
never drift apart.

``--check`` writes nothing: it regenerates into a temp dir and prints
what a refresh *would* change — per golden the first differing row, per
pinned artifact the keys added, removed and changed (a ``summary.json``
event is a key: one that moved or changed reads as removed + added).
Exit status 1 on any removed or changed entry; additions alone (a new
counter, a new summary event) exit 0.  Run it before every refresh and
put its output next to the refreshed pins.
"""

from __future__ import annotations

import collections
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


def _flatten(value, path=""):
    """``(key, value)`` per leaf; a list item is keyed by its own content
    (``path[] <json>`` -> how many), so inserting one moves no other."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _flatten(value[key], f"{path}/{key}")
    elif isinstance(value, list):
        items = collections.Counter(
            json.dumps(item, sort_keys=True) for item in value)
        for item, count in sorted(items.items()):
            yield f"{path}[] {item}", count
    else:
        yield path, value


def _diff_pinned(old, new) -> dict[str, list[str]]:
    old, new = dict(_flatten(old)), dict(_flatten(new))
    return {
        "added": [f"{k} = {new[k]}" for k in new if k not in old],
        "removed": [f"{k} = {old[k]}" for k in old if k not in new],
        "changed": [f"{k}: {old[k]} -> {new[k]}"
                    for k in old if k in new and old[k] != new[k]],
    }


def check() -> int:
    """Report what a refresh would change; write nothing."""
    bad = 0
    for name, scenario in sorted(SCENARIOS.items()):
        with tempfile.TemporaryDirectory() as tmp:
            paths = scenario(pathlib.Path(tmp))
            for artifact in GOLDEN_ARTIFACTS:
                want = (GOLDEN_DIR / name / artifact).read_text(
                    encoding="utf-8").splitlines()
                got = pathlib.Path(paths[artifact]).read_text(
                    encoding="utf-8").splitlines()
                if got == want:
                    print(f"goldens/{name}/{artifact}: identical "
                          f"({len(want)} rows)")
                    continue
                bad += 1
                row = next((i for i, (g, w) in enumerate(zip(got, want))
                            if g != w), min(len(got), len(want)))
                print(f"goldens/{name}/{artifact}: CHANGED — {len(want)} -> "
                      f"{len(got)} rows, first difference at row {row}")
    if bad:
        print("the goldens moved: the pins (recorded on golden runs) are "
              "not comparable")
        return 1
    pinned = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    for name in sorted(CHECKED_SCENARIOS):
        with tempfile.TemporaryDirectory() as tmp:
            observed = observe(name, tmp)
        for artifact, new in sorted(observed.items()):
            old = pinned.get(name, {}).get(artifact)
            if artifact.endswith(".json"):
                old, new = json.loads(old or "{}"), json.loads(new)
            diff = _diff_pinned(old or {}, new)
            print(f"lazy_pins/{name}/{artifact}: " + ", ".join(
                f"{len(entries)} {kind}" for kind, entries in diff.items()))
            for kind, entries in diff.items():
                for entry in entries:
                    print(f"  {kind:8s}{entry}")
            bad += len(diff["removed"]) + len(diff["changed"])
    print("additions only" if not bad else
          f"{bad} removed or changed entries")
    return 1 if bad else 0


def main() -> int:
    if sys.argv[1:] == ["--check"]:
        return check()
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
