"""``python -m repro sweep``: grid syntax, outputs, jobs-invariance."""

from __future__ import annotations

import json

from repro.cli import main

# Tiny but fault-spanning trials (~0.3 s each): see tests/campaign/
# test_engine.py for the sizing rationale.
BASE_ARGS = ["sweep", "--set", "total_bytes=2000000",
             "--set", "fault_at_s=0.1", "--run-until", "6",
             "--seed", "7", "--quiet"]


def test_sweep_writes_canonical_aggregate_and_jsonl(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    jsonl = tmp_path / "trials.jsonl"
    rc = main(BASE_ARGS + ["--grid", "hb_period_ms=100,200",
                           "--trials", "1",
                           "--out", str(out), "--jsonl", str(jsonl)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "2 ok, 0 failed" in printed
    assert "hb_period_ms=100" in printed

    aggregate = json.loads(out.read_text())
    assert aggregate["campaign"]["grid"] == {"hb_period_ms": [100, 200]}
    assert aggregate["campaign"]["base"]["total_bytes"] == 2_000_000
    assert aggregate["summary"]["ok"] == 2
    assert [r["params"]["hb_period_ms"] for r in aggregate["trials"]] == \
        [100, 200]

    lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert [r["index"] for r in lines] == [0, 1]
    assert lines == aggregate["trials"]


def test_sweep_output_is_jobs_invariant(tmp_path):
    # The CI smoke leg's contract, held as a test too: the --out file is
    # byte-identical whatever --jobs is.
    args = BASE_ARGS + ["--grid", "hb_period_ms=100", "--trials", "2"]
    out1, out2 = tmp_path / "j1.json", tmp_path / "j2.json"
    assert main(args + ["--jobs", "1", "--out", str(out1)]) == 0
    assert main(args + ["--jobs", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_profile_dumps_per_worker_stats(tmp_path, capsys):
    import pstats

    profdir = tmp_path / "profiles"
    rc = main(BASE_ARGS + ["--grid", "hb_period_ms=100", "--trials", "2",
                           "--jobs", "1", "--profile", str(profdir)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "profiles ->" in printed
    dump = profdir / "worker-0.pstats"
    assert dump.exists()
    stats = pstats.Stats(str(dump))
    # The trial loop ran under the profiler: the scenario executor must
    # be among the recorded functions.
    assert any("execute_trial" in str(func) for func in stats.stats)
    # The aggregated report: one merged dump plus a printed cumulative
    # top-N table covering every worker's share of the campaign.
    assert (profdir / "merged.pstats").exists()
    assert "aggregated profile (all workers, top 25" in printed
    assert "cumulative" in printed


def test_sweep_profile_merges_multiple_workers(tmp_path, capsys):
    import pstats

    profdir = tmp_path / "profiles"
    rc = main(BASE_ARGS + ["--grid", "hb_period_ms=100", "--trials", "2",
                           "--jobs", "2", "--profile", str(profdir),
                           "--profile-top", "5"])
    assert rc == 0
    printed = capsys.readouterr().out
    dumps = sorted(profdir.glob("worker-*.pstats"))
    assert len(dumps) == 2
    assert "2 worker stats file(s)" in printed
    assert "top 5 by cumulative time" in printed
    merged = pstats.Stats(str(profdir / "merged.pstats"))
    # The merge covers both workers: total call count is at least each
    # individual dump's.
    for dump in dumps:
        assert merged.total_calls >= pstats.Stats(str(dump)).total_calls
    assert any("execute_trial" in str(func) for func in merged.stats)


def test_sweep_profile_top_zero_suppresses_report(tmp_path, capsys):
    profdir = tmp_path / "profiles"
    rc = main(BASE_ARGS + ["--grid", "hb_period_ms=100", "--trials", "1",
                           "--jobs", "1", "--profile", str(profdir),
                           "--profile-top", "0"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "profiles ->" in printed
    assert "aggregated profile" not in printed
    assert (profdir / "merged.pstats").exists()


def test_sweep_named_fault_and_monte_carlo(capsys):
    rc = main(BASE_ARGS + ["--fault", "nic_failure_primary",
                           "--trials", "2"])
    assert rc == 0
    assert "2 ok" in capsys.readouterr().out


def test_sweep_rejects_bad_grid():
    try:
        main(BASE_ARGS + ["--grid", "hb_period_ms"])
    except ValueError as exc:
        assert "bad --grid" in str(exc)
    else:  # pragma: no cover
        raise AssertionError("bad grid syntax was accepted")


def test_sweep_listed_in_cli(capsys):
    assert main(["list"]) == 0
    assert "sweep" in capsys.readouterr().out


def test_sweep_without_quiet_reports_each_trial(capsys):
    rc = main([arg for arg in BASE_ARGS if arg != "--quiet"]
              + ["--trials", "2"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "trial    0 ok" in printed and "trial    1 ok" in printed
