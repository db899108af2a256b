"""Every paper experiment reproduces its committed table.

Each :mod:`repro.experiments` entry runs at its defaults; every one of
its claims must hold, and its render must equal
``benchmarks/results/<entry>.txt`` byte for byte — the tables are
deterministic, so a difference is a behaviour change (refresh with
``tools/make_results.py`` and commit the file with its cause).
"""

from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"


def test_every_results_file_has_an_entry():
    assert sorted(p.stem for p in RESULTS.glob("*.txt")) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_experiment_reproduces_its_results_file(name, experiment):
    runs = experiment(name)
    failed = [text for text, holds in EXPERIMENTS[name].claims(runs)
              if not holds]
    assert not failed, f"{name}: claims that do not hold: {failed}"
    committed = (RESULTS / f"{name}.txt").read_text(encoding="utf-8")
    assert EXPERIMENTS[name].render(runs) + "\n" == committed
