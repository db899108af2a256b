"""The API tours under ``examples/`` run to their last line.

Each script is run in process as ``__main__`` (as ``python
examples/<name>.py`` would run it), with its output captured; the
scripts assert their own outcome, and the closing sentence shows the
run reached its end.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


@pytest.mark.parametrize("script, last_words", [
    ("quickstart.py", "the client never noticed. That is ST-TCP."),
    ("kvstore_failover.py", "determinism assumption (paper Sec. 2)."),
])
def test_example_runs_to_the_end(script, last_words, capsys):
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    assert capsys.readouterr().out.rstrip().endswith(last_words)
