"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

For every workload and end-to-end metric, prints B's value as a ratio of
A's (the base), the bound ``BENCHMARK.json`` fixes for the metric, and a
verdict:

``ok``
    B is not worse than A by more than the bound.
``worse``
    B is worse than A by more than the bound.
``unresolved``
    the run-to-run spread of the repetitions (distance between the
    quartiles as a share of the median, in either file) is wider than the
    bound, so the files cannot settle the question — unless every
    repetition of B reads better than every repetition of A, which is
    ``ok``.

Simulated statistics (the digest, ``sim_failover_ms``, ``sim_done_s``,
every ``count.*`` and ``trace.py_calls``) must agree *exactly* when both
files used the same seed; each is reported ``same`` or ``DIFFERENT``.
The exit code is 1 if anything is ``worse`` or ``DIFFERENT``.

This is the tool for "two sets of runs of the same code agree" and for
later A/B claims (A = parent commit, B = change).
"""

from __future__ import annotations

import json
import pathlib
import sys

BENCHMARK_JSON = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Metrics computed from the best repetition's wall time: their spread is
#: the spread of the wall times.
_FROM_WALL = ("wall_s", "app_bytes_per_s", "ops_per_s", "us_per_event")


def _relative_spread(section: dict, metric: str) -> float:
    key = "wall_s" if metric in _FROM_WALL else metric
    spread = section["spread"].get(key)
    if not spread or "q1" not in spread or not spread["median"]:
        return 0.0
    return (spread["q3"] - spread["q1"]) / spread["median"]


def _all_better(a: dict, b: dict, metric: str) -> bool:
    """Every repetition of B faster than every repetition of A (only the
    wall times are kept per repetition)."""
    if metric not in _FROM_WALL:
        return False
    return max(b["spread"]["wall_s"]["values"]) < min(
        a["spread"]["wall_s"]["values"])


def verdict(a: dict, b: dict, spec: dict) -> tuple:
    """(ratio B/A, verdict) for one end-to-end metric of one workload."""
    name, bound = spec["name"], spec["bound"]
    base, value = a["metrics"][name], b["metrics"][name]
    ratio = value / base
    worse_by = ratio - 1 if spec["better"] == "lower" else 1 - ratio
    spread = max(_relative_spread(a, name), _relative_spread(b, name))
    if spread > bound:
        return ratio, "ok" if _all_better(a, b, name) else "unresolved"
    return ratio, "worse" if worse_by > bound else "ok"


def _exact_rows(name: str, a: dict, b: dict) -> list:
    rows = []
    e2e_a, e2e_b = a.get("end_to_end"), b.get("end_to_end")
    if e2e_a and e2e_b:
        for key in ("digest", "sim_failover_ms", "sim_done_s"):
            rows.append((name, key, e2e_a[key] == e2e_b[key]))
    layer_a, layer_b = a.get("per_layer"), b.get("per_layer")
    if layer_a and layer_b:
        for key, value in layer_a["metrics"].items():
            if key.startswith("count.") or key == "trace.py_calls":
                rows.append((name, key, value == layer_b["metrics"].get(key)))
    return rows


def compare(result_a: dict, result_b: dict, bench: dict) -> int:
    """Print the comparison; returns the exit code."""
    bad = 0
    print(f"{'workload':<20}{'metric':<18}{'A (base)':>14}{'B':>14}"
          f"{'B/A':>8}{'bound':>7}  verdict")
    for name, row_a in result_a["workloads"].items():
        row_b = result_b["workloads"].get(name)
        if row_b is None or "end_to_end" not in row_a \
                or "end_to_end" not in row_b:
            continue
        a, b = row_a["end_to_end"], row_b["end_to_end"]
        for spec in bench["end_to_end"]:
            ratio, word = verdict(a, b, spec)
            bad += word == "worse"
            print(f"{name:<20}{spec['name']:<18}"
                  f"{a['metrics'][spec['name']]:>14.6g}"
                  f"{b['metrics'][spec['name']]:>14.6g}{ratio:>8.3f}"
                  f"{spec['bound']:>7.2f}  {word}")
        for part, label in ((a, "A"), (b, "B")):
            if part["failed"]:
                bad += 1
                print(f"{name:<20}failed operations in {label}: "
                      f"{part['failed']} of {part['attempted']}  worse")
    if result_a["seed"] != result_b["seed"]:
        print(f"\nseeds differ ({result_a['seed']} vs {result_b['seed']}): "
              f"simulated statistics are not compared")
        return 1 if bad else 0
    print("\nsimulated statistics (must agree exactly for one seed):")
    for name, row_a in result_a["workloads"].items():
        row_b = result_b["workloads"].get(name, {})
        rows = _exact_rows(name, row_a, row_b)
        different = [key for _, key, same in rows if not same]
        bad += len(different)
        print(f"{name:<20}{len(rows) - len(different)} same"
              + (f", DIFFERENT: {', '.join(different)}" if different else ""))
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    result_a, result_b = (json.loads(pathlib.Path(p).read_text())
                          for p in argv)
    return compare(result_a, result_b,
                   json.loads(BENCHMARK_JSON.read_text()))


if __name__ == "__main__":
    sys.exit(main())
