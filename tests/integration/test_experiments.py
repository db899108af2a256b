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


def test_a_run_two_entries_report_is_made_once(experiment):
    """Demo 2's runs are the takeover ablation's "wait" rows and
    cc_failover's default-algorithm row: the same objects, not reruns."""
    demo2 = experiment("demo2")
    kick = experiment("ablation_takeover_kick")
    assert kick["hb_200ms_wait"] is demo2["hb_200ms"]
    assert kick["hb_1000ms_wait"] is demo2["hb_1000ms"]
    assert experiment("cc_failover")["reno"] is demo2["hb_200ms"]
