"""Smoke tests for the ``python -m repro`` command-line interface."""

from pathlib import Path

from repro.cli import main
from repro.experiments import EXPERIMENTS, Experiment

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert f"  {name} " in out


def test_no_command_lists(capsys):
    assert main([]) == 0
    assert "demo1" in capsys.readouterr().out


def test_demo2_single_period(capsys):
    assert main(["demo2", "--hb", "200", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "200 ms" in out
    assert "failover time" in out


def test_demo3_small_size(capsys):
    assert main(["demo3", "--size", "5000000", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "overhead" in out
    assert "5 MB transfer time" in out


def test_an_entry_prints_exactly_its_results_file(capsys):
    assert main(["extension_watchdog"]) == 0
    assert capsys.readouterr().out == (
        RESULTS / "extension_watchdog.txt").read_text(encoding="utf-8")


def test_seed_defaults_to_the_entry_seed(monkeypatch, capsys):
    seeds = []
    run = Experiment.run

    def spy(self, options=None, **params):
        seeds.append(options.seed)
        return run(self, options, **params)

    monkeypatch.setattr(Experiment, "run", spy)
    assert main(["extension_watchdog"]) == 0
    assert main(["extension_watchdog", "--seed", "4"]) == 0
    assert seeds == [EXPERIMENTS["extension_watchdog"].seed, 4]


def test_check_on_a_self_built_entry(capsys):
    assert main(["extension_watchdog", "--check"]) == 0
    assert "invariant check: clean" in capsys.readouterr().out


def test_obs_out_writes_one_directory_per_run(tmp_path, capsys):
    assert main(["extension_watchdog", "--obs-out", str(tmp_path),
                 "--obs-level", "counters"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["base", "watchdog"]
    assert (tmp_path / "watchdog" / "counters.json").exists()


def test_a_failed_claim_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(EXPERIMENTS["extension_watchdog"], "claims",
                        lambda runs: [("never", False)])
    assert main(["extension_watchdog"]) == 1
    assert "claim does not hold: never" in capsys.readouterr().err
