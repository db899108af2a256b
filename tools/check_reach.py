#!/usr/bin/env python
"""Fail when a function under ``src/repro`` is never called.

Runs the tier-1 suite in this process with a ``sys.setprofile`` hook
that records the code object of every Python call, then lists each
function and method defined under ``src/repro`` that no test reached.
The hook is armed before collection (imports run module-level calls)
and re-armed around every test's setup, call and teardown,
because tests that profile a run (``sweep --profile``) install their own
and displace it.  ``coverage`` is not needed.

A function that runs only in a child process (a forked campaign worker,
a demo started as ``python -m repro``) or an abstract base a subclass
always overrides cannot be reached here; it goes in ``ALLOWED`` with
the reason.  Anything else never called is dead code — delete it.  An
``ALLOWED`` entry that is called after all, or no longer exists, fails
too, so the list cannot go stale.

Costs about 3x tier-1's wall time.  Run from the repo root::

    python tools/check_reach.py            # whole suite
    python tools/check_reach.py tests/tcp  # a subset (expect misses)

Exit code 0 = every function reached or allowed, 1 = otherwise.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PACKAGE = SRC / "repro"

#: ``module:qualified name`` -> why no in-process test can call it.
ALLOWED = {
    # Entry points that run only in a child process.
    "campaign/engine.py:_worker_main": "the forked campaign worker's loop",
    "cli.py:_demo1": "python -m repro demo1",
    "cli.py:_demo4": "python -m repro demo4",
    "cli.py:_demo5": "python -m repro demo5",
    "cli.py:_table1": "python -m repro table1",
    "cli.py:_workload": "python -m repro workload",
    # Abstract bases: every subclass overrides them.
    "faults/faults.py:Fault.inject": "abstract",
    "net/cable.py:CableEndpoint.receive_frame": "abstract",
    "net/frame.py:SizedPayload.size_bytes": "abstract",
    "sttcp/engine.py:SttcpEngine._on_control": "abstract",
    "sttcp/engine.py:SttcpEngine.housekeep": "abstract",
    "sttcp/engine.py:SttcpEngine.recover": "abstract",
    "tcp/congestion.py:CongestionControl.on_dupack": "abstract",
    "tcp/congestion.py:CongestionControl.on_new_ack": "abstract",
}


def _functions():
    """``module:qualname`` -> (line numbers a code object may start on)."""
    found = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{module}:{prefix}{child.name}"
                lines = {child.lineno,
                         *(d.lineno for d in child.decorator_list)}
                found[name] = (str(PACKAGE / module), lines)
                visit(child, module, f"{prefix}{child.name}.")
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        visit(ast.parse(path.read_text(encoding="utf-8")), module, "")
    return found


class ReachPlugin:
    """Records every code object called while a test runs."""

    def __init__(self):
        self.called = set()
        called = self.called

        def profile(frame, event, _arg):
            if event == "call":
                called.add(frame.f_code)
        self._profile = profile

    def pytest_runtest_setup(self, item):
        sys.setprofile(self._profile)

    def pytest_runtest_call(self, item):
        sys.setprofile(self._profile)

    def pytest_runtest_teardown(self, item):
        sys.setprofile(self._profile)

    def pytest_sessionfinish(self, session):
        sys.setprofile(None)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    os.chdir(REPO)
    import pytest

    plugin = ReachPlugin()
    # Armed before collection too: importing a module runs its top-level
    # calls (registries, decorators).
    sys.setprofile(plugin._profile)
    threading.setprofile(plugin._profile)
    status = pytest.main(["-q", "-p", "no:cacheprovider", *argv],
                         plugins=[plugin])
    reached = {(code.co_filename, code.co_firstlineno)
               for code in plugin.called}
    functions = _functions()
    never = sorted(name for name, (path, lines) in functions.items()
                   if not any((path, line) in reached for line in lines))
    dead = [name for name in never if name not in ALLOWED]
    stale = sorted(name for name in ALLOWED
                   if name not in functions or name not in never)
    print(f"check_reach: {len(functions)} functions, "
          f"{len(functions) - len(never)} called, "
          f"{len(never) - len(dead)} allowed uncalled")
    for name in dead:
        print(f"  never called: {name}")
    for name in stale:
        print(f"  allowlisted but called or gone: {name}")
    if status != 0:
        print(f"check_reach: the suite failed ({status}); a test that "
              f"stopped early may hide callers")
    return 1 if dead or stale or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
