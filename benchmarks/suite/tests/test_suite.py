"""Self-tests of the benchmark suite (outside tier-1):

    python -m pytest benchmarks/suite/tests

They run the real command at its smoke scale, so they take about a
minute.
"""

from __future__ import annotations

import copy
import json
import pathlib
import re
import shutil
import subprocess
import sys
import time

import pytest

SUITE_DIR = pathlib.Path(__file__).resolve().parents[1]
REPO_ROOT = SUITE_DIR.parents[1]
RUN = [sys.executable, str(SUITE_DIR / "run.py")]
BENCH = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(SUITE_DIR))
import compare  # noqa: E402  (the suite's own module)


def run_suite(*args, out: pathlib.Path):
    proc = subprocess.run([*RUN, *args, "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc, json.loads(out.read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """All five workloads at smoke scale, end to end and per layer."""
    out = tmp_path_factory.mktemp("suite") / "smoke.json"
    return run_suite("--smoke", "--trace", out=out)[1]


def test_smoke_runs_all_workloads_in_under_20_s(tmp_path):
    start = time.monotonic()
    _, result = run_suite("--smoke", out=tmp_path / "r.json")
    assert time.monotonic() - start < 20
    assert list(result["workloads"]) == WORKLOADS
    for row in result["workloads"].values():
        e2e = row["end_to_end"]
        assert e2e["failed"] == 0
        assert e2e["failed_frac"] == 0
        # Host-time metrics are the seconds as measured times the factor.
        host = e2e["host_speed"]
        assert host["factor"] == host["reference_s"] / host["kernel_s"]
        assert e2e["metrics"]["wall_s"] == pytest.approx(
            host["as_measured"]["wall_s"] * host["factor"])


def test_every_declared_metric_is_reported_for_every_workload(smoke):
    name_ok = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    declared = {"end_to_end": [m["name"] for m in BENCH["end_to_end"]],
                "per_layer": [m["name"] for m in BENCH["per_layer"]]}
    for names in declared.values():
        assert all(name_ok.match(n) for n in names)
        assert len(set(names)) == len(names)
    for workload in WORKLOADS:
        for part, names in declared.items():
            metrics = smoke["workloads"][workload][part]["metrics"]
            assert sorted(metrics) == sorted(names), (workload, part)
            for name, value in metrics.items():
                assert isinstance(value, (int, float)), (workload, name)


def test_layer_shares_sum_to_one(smoke):
    for workload in WORKLOADS:
        metrics = smoke["workloads"][workload]["per_layer"]["metrics"]
        shares = [v for k, v in metrics.items() if k.endswith(".self_share")]
        assert len(shares) == 21
        assert abs(sum(shares) - 1.0) <= 0.001, workload
        assert metrics["trace.py_calls"] > 0
        assert metrics["trace.overhead_ratio"] > 1.0


def test_environment_is_recorded(smoke):
    env = smoke["environment"]
    for key in ("nproc", "python", "cpu_model", "git_commit",
                "loadavg_start", "loadavg_end"):
        assert key in env
    assert smoke["seed"] == 3
    assert smoke["plan"]["campaign_table1"] == {"R": 1, "k": 1}
    layer_metrics = smoke["workloads"]["campaign_table1"]["per_layer"]["metrics"]
    assert layer_metrics["campaign.cpus"] == env["nproc"]


def test_digest_follows_the_seed(tmp_path):
    def digest(seed, tag):
        _, result = run_suite("--smoke", "--workload", "fleet_32c",
                              "--seed", str(seed), out=tmp_path / f"{tag}.json")
        return result["workloads"]["fleet_32c"]["end_to_end"]["digest"]

    first = digest(3, "a")
    assert digest(3, "b") == first
    assert digest(4, "c") != first


def test_driver_line_has_exactly_the_contract_keys(tmp_path):
    proc, _ = run_suite("--smoke", "--workload", "kv_128c", "--seed", "9",
                        "--seconds", "1", "--trace", "0",
                        out=tmp_path / "r.json")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert sorted(line["metrics"]) == sorted(
        m["name"] for m in BENCH["end_to_end"])
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    for name, entry in line["metrics"].items():
        assert sorted(entry) == ["unit", "value"]
        assert entry["unit"] == units[name] and entry["value"] > 0


def test_no_result_without_the_simulator(tmp_path):
    """In a directory holding only BENCHMARK.json and the suite, the
    command must fail without printing a result."""
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(SUITE_DIR, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "bulk_1c",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_verdicts(smoke, capsys):
    assert compare.compare(smoke, smoke, BENCH) == 0
    assert "worse" not in capsys.readouterr().out

    slower = copy.deepcopy(smoke)
    e2e = slower["workloads"]["bulk_1c"]["end_to_end"]
    e2e["metrics"]["wall_s"] *= 2
    e2e["digest"] = "0" * 64
    assert compare.compare(smoke, slower, BENCH) == 1
    out = capsys.readouterr().out
    assert re.search(r"bulk_1c\s+wall_s.*worse", out)
    assert "DIFFERENT: digest" in out

    # A spread wider than the bound cannot settle the question.
    noisy = copy.deepcopy(slower)
    spread = noisy["workloads"]["bulk_1c"]["end_to_end"]["spread"]["wall_s"]
    spread.update(q1=0.5 * spread["median"], q3=1.5 * spread["median"],
                  values=[spread["median"]] * 2)
    compare.compare(smoke, noisy, BENCH)
    assert re.search(r"bulk_1c\s+wall_s.*unresolved", capsys.readouterr().out)
