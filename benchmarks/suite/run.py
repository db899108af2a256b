"""The repo benchmark: one command, five workloads, every metric by name.

    python3 benchmarks/suite/run.py                        # end to end
    python3 benchmarks/suite/run.py --trace --layers       # + per layer
    python3 benchmarks/suite/run.py --workload kv_128c --seed 7 \\
        --seconds 20 --trace 0                             # the driver's form
    python3 benchmarks/suite/run.py --smoke                # all five, small

The process started by this command never imports the simulator.  It
plans the repetitions, starts one *child* process per (round, workload) —
so imports, warm-up and peak memory are per workload — waits for each,
checks that the simulated results are correct and repeat exactly, scales
the seconds by how fast the host was during the run (hostspeed.py), and
prints every metric with its unit.  With exactly one ``--workload`` the
last line of standard output is the driver's JSON object.  The exit code
is non-zero when any operation failed.

``--trace 0`` measures end to end only, ``--trace 1`` per layer only (a
traced pass, the exact counters, one pass of the isolated layer drivers),
a bare ``--trace`` both.  ``--layers`` raises the isolated drivers to the
minimum of five passes.  See README.md for the method and every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

import hostspeed

SUITE_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = SUITE_DIR / "out"
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

#: Host seconds one repetition takes on the reference box.  Used only to
#: turn ``--seconds`` into fixed round and repetition counts, so the work
#: measured does not depend on how fast the host is.
REP_S = {"bulk_1c": 1.65, "fleet_32c": 1.4, "kv_128c": 2.2,
         "fleet_32c_observed": 3.3, "campaign_table1": 2.2}

#: Set-up is cheap to repeat and noisy, so it is sampled more often than
#: the workload is timed: extra children run imports + warm-up only.
SETUP_SAMPLES = 5

#: A child that has not answered by then is killed and the run fails
#: (the driver allows a run 180 s).
CHILD_TIMEOUT_S = 150.0


def plan(name: str, seconds: float, smoke: bool) -> tuple:
    """(rounds, repetitions per round) for ``seconds`` of measurement."""
    if smoke:
        return 1, 1
    rep_s = REP_S[name]
    rounds = max(1, min(3, int(seconds / rep_s)))
    return rounds, max(1, int(seconds / (rounds * rep_s)))


# ------------------------------------------------------------------- child

def _setup(spec: dict):
    """Import the simulator and run one warm-up instance; returns the
    workloads module, the function that puts the process back into the
    state a fresh command starts a repetition in, and the seconds since
    the parent started this process."""
    sys.path[:0] = [str(SRC_DIR), str(SUITE_DIR)]
    import workloads
    from repro.campaign import warm
    from repro.net import pool

    def fresh() -> None:
        # The in-process campaign would otherwise thaw the snapshots the
        # repetition before it built.
        warm.get_cache().clear()
        pool.clear()
        gc.collect()

    warmup = workloads.run_rep(spec["workload"], spec["seed"], smoke=True)
    if warmup["failed"]:
        raise RuntimeError(f"warm-up failed: {warmup['failures']}")
    return workloads, fresh, time.monotonic() - spec["t0"]


def _peak_rss_mb() -> float:
    # Linux reports kilobytes.  The fan-out pass's workers are children.
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024


def _counted_pass(workloads, name: str, seed: int, smoke: bool,
                  profile: bool, variant: str = "traced"):
    """One in-process pass with the span wrappers installed (and the
    profiler when asked); fills the campaign's event counts in."""
    import tracing

    per_testbed: list = []
    tracer = tracing.Tracer(
        name, profile=profile,
        after_drive=lambda tb: per_testbed.append(workloads.read_counts(tb)))
    with tracer.installed(), tracer.span("rep"):
        record = workloads.run_rep(name, seed, smoke, variant)
    return workloads.attach_counts(record, per_testbed), tracer


def child_timed(spec: dict) -> dict:
    """Imports, warm-up, ``k`` timed repetitions with default RunOptions
    (as the CLI runs), pools cleared and garbage collected between them."""
    workloads, fresh, setup_s = _setup(spec)
    import hostspeed
    name, seed, smoke = spec["workload"], spec["seed"], spec["smoke"]
    reps, kernel_s = [], [hostspeed.sample()]
    for _ in range(spec["k"]):
        fresh()
        reps.append(workloads.run_rep(name, seed, smoke))
        kernel_s.append(hostspeed.sample())
    out = {"setup_s": setup_s, "reps": reps, "kernel_s": kernel_s}
    if spec.get("campaign_checks"):
        # Two untimed passes of the same trials.  Under the span
        # wrappers: the only place the campaign's simulated events can
        # be counted.  Fanned out over 2 worker processes: the aggregate
        # must be byte-identical at any jobs count, and the fan-out
        # stays on record.
        fresh()
        out["counted"], _ = _counted_pass(workloads, name, seed, smoke,
                                          profile=False, variant="timed")
        fresh()
        out["fanout"] = workloads.campaign_pass(
            seed, smoke, jobs=workloads.FANOUT_JOBS)
    out["peak_rss_mb"] = _peak_rss_mb()
    return out


def child_trace(spec: dict) -> dict:
    """The per-layer passes of one workload, none of them timed for the
    end-to-end metrics: a plain pass (spans, exact counters, the base of
    the overhead ratio), the same pass under the profiler (the layer
    budget), and a pass with an ObsSession at ``counters``."""
    workloads, fresh, setup_s = _setup(spec)
    name, seed, smoke = spec["workload"], spec["seed"], spec["smoke"]
    fresh()
    plain, spans = _counted_pass(workloads, name, seed, smoke, profile=False)
    fresh()
    traced, tracer = _counted_pass(workloads, name, seed, smoke, profile=True)
    tcp_counts = plain["tcp_counts"]
    if tcp_counts is None:
        fresh()
        tcp_counts = workloads.run_rep(name, seed, smoke,
                                       "counters")["tcp_counts"]
    budget = tracer.layer_budget()
    return {
        "setup_s": setup_s, "plain": plain,
        "traced_digest": traced["digest"],
        "tcp_counts": tcp_counts,
        "spans": spans.spans, "span_times": spans.self_times(),
        "budget": budget,
        "overhead_ratio": tracer.drive_s / spans.drive_s,
    }


def child_layers(spec: dict) -> dict:
    sys.path[:0] = [str(SRC_DIR), str(SUITE_DIR)]
    import layers
    return {"metrics": layers.run_all(spec["passes"])}


_CHILD_MODES = {"timed": child_timed, "trace": child_trace,
                "layers": child_layers}


def child_main(spec: dict) -> int:
    result = _CHILD_MODES[spec["mode"]](spec)
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


# ------------------------------------------------------------------ parent

def spawn(spec: dict) -> dict:
    """Run one child to completion and return what it reported."""
    spec = dict(spec, t0=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(pathlib.Path(__file__).resolve()),
         "--child", json.dumps(spec)],
        stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The child may own campaign workers: stop its whole session.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"child {spec} exceeded {CHILD_TIMEOUT_S:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"child {spec} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"      # the driver's checkout is not a repository
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": cpu, "git_commit": commit,
            "loadavg_start": list(os.getloadavg())}


def _spread(values: list) -> dict:
    out = {"n": len(values), "min": min(values),
           "median": statistics.median(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def summarize_timed(children: list, setup_only: list) -> dict:
    """Fold a workload's children (and the set-up-only ones) into its
    end-to-end metrics.

    Host-time metrics take the *minimum* wall over all repetitions of all
    rounds (this box's noise only ever adds time); set-up takes the
    median of its samples, memory the maximum over rounds.  Seconds are
    then scaled by how fast the host was during the run: the reference
    kernel time over the fastest kernel pass timed next to the
    repetitions (see hostspeed.py)."""
    reps = [rep for child in children for rep in child["reps"]]
    failures = [f for rep in reps for f in rep["failures"]]
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    checks = next((c for c in children if "counted" in c), None)
    counted = checks and checks["counted"]
    digests = {rep["digest"] for rep in reps}
    for extra in (checks["counted"], checks["fanout"]) if checks else ():
        digests.add(extra["digest"])
        failures += extra["failures"]
        failed += extra["failed"]
        attempted += extra["attempted"]
    if len(digests) != 1:
        # Same seed, different simulated results: nothing can be trusted.
        failures.append(f"{len(digests)} different digests for one seed")
        failed = attempted
    best = min(reps, key=lambda rep: rep["wall_s"])
    events = (counted or best)["events"]
    kernel_s = min(s for c in children + setup_only for s in c["kernel_s"])
    speed = hostspeed.REFERENCE_S / kernel_s
    wall = best["wall_s"] * speed
    walls = [rep["wall_s"] * speed for rep in reps]
    setups = [c["setup_s"] * speed for c in children + setup_only]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "app_bytes_per_s": best["app_bytes"] / wall,
        "ops_per_s": (best["attempted"] - best["failed"]) / wall,
        "us_per_event": wall * 1e6 / events if events else 0.0,
        "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
    }
    first = counted or reps[0]
    out = {
        "metrics": metrics,
        "spread": {"wall_s": _spread(walls), "setup_s": _spread(setups)},
        "host_speed": {"kernel_s": kernel_s, "factor": speed,
                       "reference_s": hostspeed.REFERENCE_S,
                       "as_measured": {"wall_s": best["wall_s"],
                                       "setup_s": statistics.median(setups)
                                       / speed}},
        "attempted": attempted, "failed": failed, "failures": failures,
        "failed_frac": failed / attempted,
        "sim_failover_ms": first["sim_failover_ms"],
        "sim_done_s": first["sim_done_s"],
        "digest": best["digest"],
        "counts": first["counts"],
        "rounds": len(children), "reps_per_round": len(children[0]["reps"]),
    }
    if checks:
        out["fanout_wall_s"] = checks["fanout"]["wall_s"]
        out["fanout_ratio_full"] = best["wall_s"] / checks["fanout"]["wall_s"]
    return out


def summarize_trace(name: str, child: dict, layer_metrics: dict) -> dict:
    """Fold a workload's trace child (and the layer drivers' results)
    into its per-layer metrics."""
    plain, budget = child["plain"], child["budget"]
    failures = list(plain["failures"])
    failed = plain["failed"]
    if child["traced_digest"] != plain["digest"]:
        failures.append("the traced pass changed the simulated results")
        failed = plain["attempted"]
    metrics = {}
    for layer, row in budget["layers"].items():
        metrics[f"trace.{layer}.self_share"] = row["self_share"]
        metrics[f"trace.{layer}.calls"] = row["calls"]
    metrics["trace.py_calls"] = budget["py_calls"]
    metrics["trace.overhead_ratio"] = child["overhead_ratio"]
    metrics.update(plain["counts"] or {})
    metrics.update(child["tcp_counts"])
    for key in ("sim_failover_ms", "sim_done_s"):
        if plain[key] is None:
            failures.append(f"{key} was not observed")
            failed = plain["attempted"]
        metrics[key] = plain[key] or 0.0
    metrics.update(layer_metrics)
    return {"metrics": metrics, "attempted": plain["attempted"],
            "failed": failed, "failures": failures,
            "digest": plain["digest"], "span_times": child["span_times"],
            "trace_file": {
                "workload": name, "spans": child["spans"],
                "span_times": child["span_times"],
                "profile_total_s": budget["total_s"],
                "py_calls": budget["py_calls"],
                "overhead_ratio": child["overhead_ratio"],
                "layers": budget["layers"],
                "counts": {**(plain["counts"] or {}), **child["tcp_counts"]},
            }}


# ---------------------------------------------------------------- printing


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_report(result: dict, units: dict) -> None:
    for name, row in result["workloads"].items():
        print(f"\n== {name}")
        e2e = row.get("end_to_end")
        if e2e:
            print(f"   rounds={e2e['rounds']} x reps={e2e['reps_per_round']}"
                  f"  digest={e2e['digest'][:16]}")
            host = e2e["host_speed"]
            print(f"   host speed x{host['factor']:.3f} of the reference "
                  f"(kernel {host['kernel_s'] * 1e3:.2f} ms): as measured "
                  f"wall_s={host['as_measured']['wall_s']:.6g} "
                  f"setup_s={host['as_measured']['setup_s']:.6g}")
            for metric, value in e2e["metrics"].items():
                line = f"   {metric:<18}{_fmt(value):>14} {units[metric]}"
                spread = e2e["spread"].get(metric)
                if spread:
                    line += (f"   n={spread['n']} median="
                             f"{_fmt(spread['median'])}")
                    if "q1" in spread:
                        line += (f" q1={_fmt(spread['q1'])}"
                                 f" q3={_fmt(spread['q3'])}")
                print(line)
            print(f"   {'sim_failover_ms':<18}"
                  f"{_fmt(e2e['sim_failover_ms'] or 0.0):>14} sim_ms")
            print(f"   {'sim_done_s':<18}"
                  f"{_fmt(e2e['sim_done_s'] or 0.0):>14} sim_s")
            print(f"   {'failed_frac':<18}{_fmt(e2e['failed_frac']):>14} "
                  f"ratio   ({e2e['failed']} of {e2e['attempted']})")
            if "fanout_ratio_full" in e2e:
                print(f"   jobs=2 fan-out pass {e2e['fanout_wall_s']:.3f} s"
                      f" -> fan-out x{e2e['fanout_ratio_full']:.2f} on "
                      f"{result['environment']['nproc']} CPUs")
        per_layer = row.get("per_layer")
        if per_layer:
            for metric, value in per_layer["metrics"].items():
                print(f"   {metric:<36}{_fmt(value):>14} "
                      f"{units.get(metric, '')}")
        for part in (e2e, per_layer):
            for failure in (part or {}).get("failures", []):
                print(f"   FAILED: {failure}")


def driver_line(section: dict, units: dict) -> str:
    """The one JSON object the driver reads."""
    return json.dumps({
        "correct": section["failed"] == 0,
        "attempted": section["attempted"],
        "failed": section["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in section["metrics"].items()},
    })


# -------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(REP_S),
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float,
                        help="host seconds measured per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=("0", "1", "both"),
                        help="0: end to end only; 1: per layer only; "
                             "bare --trace: both")
    parser.add_argument("--layers", action="store_true",
                        help="isolated layer drivers, minimum of 5 passes")
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads scaled down, one repetition")
    parser.add_argument("--out", type=pathlib.Path,
                        default=OUT_DIR / "result.json",
                        help="where the result file goes (trace files "
                             "go next to it)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(json.loads(args.child))

    if not (SRC_DIR / "repro").is_dir() or not BENCHMARK_JSON.is_file():
        print(f"run.py: no simulator under {SRC_DIR} (or no BENCHMARK.json):"
              f" nothing to measure", file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK_JSON.read_text())
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = args.seconds if args.seconds else bench["run_seconds"]
    names = [args.workload] if args.workload else list(REP_S)
    want_e2e = args.trace in ("0", "both")
    want_trace = args.trace in ("1", "both")
    base = {"seed": args.seed, "smoke": args.smoke}
    env = environment()
    result = {"environment": env, "seed": args.seed, "seconds": seconds,
              "smoke": args.smoke, "plan": {}, "workloads": {}}
    rows = result["workloads"]

    if want_e2e:
        plans = {name: plan(name, seconds, args.smoke) for name in names}
        result["plan"] = {name: {"R": r, "k": k}
                          for name, (r, k) in plans.items()}
        timed = {name: [] for name in names}
        # Rounds are interleaved across workloads, so each workload's
        # repetitions are spread over the whole invocation.
        for round_index in range(max(r for r, _ in plans.values())):
            for name in names:
                rounds, k = plans[name]
                if round_index < rounds:
                    timed[name].append(spawn(dict(
                        base, mode="timed", workload=name, k=k,
                        campaign_checks=(name == "campaign_table1"
                                         and round_index == 0))))
        for name in names:
            extra = [spawn(dict(base, mode="timed", workload=name, k=0))
                     for _ in range(0 if args.smoke else
                                    SETUP_SAMPLES - plans[name][0])]
            rows.setdefault(name, {})["end_to_end"] = summarize_timed(
                timed[name], extra)

    if want_trace or args.layers:
        layer_metrics = spawn(dict(
            mode="layers", passes=5 if args.layers else 1))["metrics"]
        result["layers"] = layer_metrics
        if want_trace:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            for name in names:
                child = spawn(dict(base, mode="trace", workload=name))
                row = summarize_trace(name, child, layer_metrics)
                trace_file = row.pop("trace_file")
                trace_file["environment"] = env
                (args.out.parent / f"trace-{name}.json").write_text(
                    json.dumps(trace_file, indent=1) + "\n")
                rows.setdefault(name, {})["per_layer"] = row

    env["loadavg_end"] = list(os.getloadavg())
    print_report(result, units)
    if args.layers and not want_trace:
        print("\n== isolated layer drivers")
        for metric, value in result["layers"].items():
            print(f"   {metric:<36}{_fmt(value):>14}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"\nenvironment: {json.dumps(env)}")
    print(f"result file: {args.out}")

    failed = sum(part["failed"] for row in rows.values()
                 for part in row.values())
    if args.workload:
        print(driver_line(rows[args.workload]["per_layer" if args.trace == "1"
                                              else "end_to_end"], units))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
