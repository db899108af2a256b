"""Core simulator throughput on the 32-client workload.

Measures the discrete-event kernel end to end — scheduler, NIC/cable
frame handling, TCP, probe bus, pattern payloads — by timing the
standard many-connection failover workload and reporting events/sec and
wall-clock.  The committed ``BENCH_core_throughput.json`` at the repo
root keeps a dated ``trajectory`` list — one appended entry per
recorded measurement — so the perf history across changes stays
queryable instead of each record overwriting the last.  (The original
``before``/``after`` pair from the hot-path optimization pass is kept
verbatim and also seeds the first two trajectory entries.)

Usage::

    python benchmarks/bench_core_throughput.py                  # measure
    python benchmarks/bench_core_throughput.py --record <label> # + append json
    python benchmarks/bench_core_throughput.py --quick          # CI smoke

``--quick`` runs a scaled-down workload, writes its numbers to
``benchmarks/results/BENCH_core_throughput_quick.json`` and exits
non-zero if the run crashes or any connection loses its stream — the CI
smoke leg.

Every measured point also carries ``peak_rss_mb``: the ``ru_maxrss`` of
one more run of the same workload in a fresh child process with nothing
attached (``--rss-ceiling MB`` gates on it).  It cannot be read in the
measuring process, where it is the high-water mark of everything that
process ever held — the timed repeats' dead testbeds and, after the churn
probe, ``tracemalloc``'s own tables.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import resource
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

RESULT_JSON = REPO_ROOT / "BENCH_core_throughput.json"
QUICK_JSON = pathlib.Path(__file__).parent / "results" / \
    "BENCH_core_throughput_quick.json"

# The canonical measurement workload: 32 clients, 32 streaming
# connections with arrival churn, primary HW crash mid-run.  Runs on the
# faithful broadcast network (egress filtering off) so its events/sec is
# directly comparable with every older trajectory entry.
FULL = dict(num_clients=32, connections=32, bytes_per_conn=500_000,
            mean_interarrival_s=0.02, fault_at_s=1.0, run_until_s=45.0,
            egress_filtering=False)
QUICK = dict(num_clients=8, connections=8, bytes_per_conn=40_000,
             mean_interarrival_s=0.02, fault_at_s=0.5, run_until_s=20.0,
             egress_filtering=False)

# The fleet scaling curve (docs/performance.md).  32 clients stays on the
# faithful broadcast network; the 256/1024 points enable the switch's
# egress filtering (the IGMP-snooping analogue), without which flood
# fan-out work grows quadratically with the fleet.  Each point is
# labelled with its configuration — events/sec is only comparable
# between entries with the same num_clients + egress_filtering.
SCALING = [
    dict(FULL),
    dict(num_clients=256, connections=256, bytes_per_conn=60_000,
         mean_interarrival_s=0.005, fault_at_s=1.0, run_until_s=30.0,
         egress_filtering=True),
    dict(num_clients=1024, connections=1024, bytes_per_conn=15_000,
         mean_interarrival_s=0.002, fault_at_s=1.0, run_until_s=30.0,
         egress_filtering=True),
]


def run_workload(params: dict, seed: int = 3) -> dict:
    """One timed run; returns the measurement record."""
    from repro.scenarios.options import RunOptions
    from repro.workloads import WorkloadSpec, run_workload_failover

    from repro.sim import gcctl

    spec = WorkloadSpec(kind="stream",
                        connections=params["connections"],
                        bytes_per_conn=params["bytes_per_conn"],
                        mean_interarrival_s=params["mean_interarrival_s"])
    # Freeze the import graph *outside* the timed window so the runner's
    # gc_freeze collect below only scans the fresh testbed, not the
    # whole interpreter heap.
    gcctl.freeze_baseline()
    start = time.perf_counter()
    result = run_workload_failover(
        spec, num_clients=params["num_clients"],
        fault_at_s=params["fault_at_s"],
        # gc_freeze: the bench process exits after measuring, so the
        # testbed graph is frozen out of every safe-point collection.
        options=RunOptions(seed=seed, run_until_s=params["run_until_s"],
                           gc_freeze=True),
        egress_filtering=params.get("egress_filtering", False))
    wall_s = time.perf_counter() - start
    sim = result.testbed.world.sim
    return {
        "events": sim.events_processed,
        "wall_s": round(wall_s, 3),
        "events_per_sec": round(sim.events_processed / wall_s),
        "sim_seconds": round(sim.now / 1e9, 3),
        "all_intact": result.all_intact,
        "completed": result.engine.completed_count,
        "connections": len(result.records),
        "num_clients": params["num_clients"],
        "egress_filtering": params.get("egress_filtering", False),
    }


def measure(params: dict, repeats: int = 2) -> dict:
    """Best-of-N timing (the kernel is deterministic; wall clock is not),
    plus the peak resident size of one run in a process of its own."""
    from repro.sim import gcctl

    runs = []
    for _ in range(repeats):
        runs.append(run_workload(params))
        # Each run froze its testbed into the permanent generation
        # (gc_freeze); thaw between repeats so dead testbeds are
        # reclaimed instead of accumulating for the process lifetime.
        gcctl.thaw_baseline()
    best = min(runs, key=lambda r: r["wall_s"])
    child = subprocess.run(
        [sys.executable, __file__, "--rss-child", json.dumps(params)],
        check=True, stdout=subprocess.PIPE, text=True)
    best["peak_rss_mb"] = float(child.stdout.split()[-1])
    return best


def rss_child(params: dict) -> int:
    """The fresh process ``measure`` starts: one run, then its own peak
    resident size in MB (Linux reports kilobytes) on standard output."""
    run_workload(params)
    print(round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1))
    return 0


def run_churn_probe(params: dict, seed: int = 3) -> dict:
    """One *instrumented* (untimed) run: the memory-churn dimension.

    Runs the same workload under ``tracemalloc`` and reports what the
    allocator saw per processed event.  ``net_blocks_per_event`` is the
    growth of ``sys.getallocatedblocks()`` across the run divided by the
    event count — with every per-event object freed by refcount it
    amortizes the one-time testbed build to a small constant, and any
    per-event retention regression (a holder that keeps what it should
    drop) shows up as a step.  Peak memory is tracemalloc's traced
    high-water mark (the resident size is ``measure``'s ``peak_rss_mb``,
    from an untraced process).  GC counter deltas ride along for the CI
    artifact.
    """
    import gc
    import tracemalloc

    from repro.scenarios.options import RunOptions
    from repro.sim import gcctl
    from repro.workloads import WorkloadSpec, run_workload_failover

    spec = WorkloadSpec(kind="stream",
                        connections=params["connections"],
                        bytes_per_conn=params["bytes_per_conn"],
                        mean_interarrival_s=params["mean_interarrival_s"])
    gc.collect()
    gc_before = gcctl.stats()
    blocks_before = sys.getallocatedblocks()
    tracemalloc.start()
    result = run_workload_failover(
        spec, num_clients=params["num_clients"],
        fault_at_s=params["fault_at_s"],
        options=RunOptions(seed=seed, run_until_s=params["run_until_s"]),
        egress_filtering=params.get("egress_filtering", False))
    traced_current, traced_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    blocks_after = sys.getallocatedblocks()
    gc_after = gcctl.stats()
    events = result.testbed.world.sim.events_processed
    return {
        "events": events,
        "net_blocks_per_event": round(
            (blocks_after - blocks_before) / max(events, 1), 4),
        "net_blocks": blocks_after - blocks_before,
        "traced_peak_kb": traced_peak // 1024,
        "traced_current_kb": traced_current // 1024,
        "gc_collections": [a - b for a, b in
                           zip(gc_after["collections"],
                               gc_before["collections"])],
        "gc_collected": [a - b for a, b in
                         zip(gc_after["collected"], gc_before["collected"])],
        "safe_point_collects": (gc_after["safe_point_collects"]
                                - gc_before["safe_point_collects"]),
    }


def seed_trajectory(data: dict) -> list:
    """The trajectory list, seeded from the legacy before/after pair."""
    if "trajectory" not in data:
        data["trajectory"] = [
            dict(label=label, **data[label])
            for label in ("before", "after") if label in data
        ]
    return data["trajectory"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="scaled-down CI smoke run")
    parser.add_argument("--clients", type=int, metavar="N",
                        help="override the client count (with --quick: a "
                             "fleet-sized smoke run with egress filtering)")
    parser.add_argument("--scaling", action="store_true",
                        help="run the 32/256/1024 fleet scaling curve "
                             "(with --record: append one entry per point)")
    parser.add_argument("--record", metavar="LABEL",
                        help="append this measurement (dated, labelled) to "
                             "the trajectory in BENCH_core_throughput.json")
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--floor", type=int, metavar="EVENTS_PER_SEC",
                        help="exit non-zero if the measured events/sec "
                             "falls below this floor (the CI regression "
                             "gate; calibrate per runner class)")
    parser.add_argument("--churn", action="store_true",
                        help="also run the instrumented memory-churn probe "
                             "(always on for --quick)")
    parser.add_argument("--churn-ceiling", type=float,
                        metavar="BLOCKS_PER_EVENT",
                        help="exit non-zero if net allocated blocks per "
                             "event exceeds this ceiling (the allocation "
                             "regression gate; implies the churn probe)")
    parser.add_argument("--rss-ceiling", type=float, metavar="MB",
                        help="exit non-zero if a point's peak_rss_mb (one "
                             "run in a fresh process) exceeds this ceiling "
                             "(the footprint regression gate)")
    parser.add_argument("--rss-child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.rss_child:
        return rss_child(json.loads(args.rss_child))
    if args.scaling:
        return run_scaling(args)

    params = dict(QUICK if args.quick else FULL)
    if args.clients:
        # Fleet-sized variant: scale the load with the fleet and turn on
        # the switch's egress filtering (the fleet configuration).
        params.update(num_clients=args.clients, connections=args.clients,
                      bytes_per_conn=20_000, mean_interarrival_s=0.005,
                      fault_at_s=0.5, run_until_s=20.0,
                      egress_filtering=True)
    record = measure(params, repeats=args.repeats)
    want_churn = (args.quick or args.churn or args.record
                  or args.churn_ceiling is not None)
    if want_churn:
        # The churn probe runs *after* (and outside) the timed repeats:
        # tracemalloc roughly halves throughput, so its run is never the
        # one that produces events/sec.
        record["churn"] = run_churn_probe(params)
    print(json.dumps({"workload": params, "result": record}, indent=2))

    if args.quick:
        out = QUICK_JSON
        if args.clients:  # fleet smoke: keep the default smoke's file
            out = out.with_name(
                f"BENCH_core_throughput_quick_{args.clients}c.json")
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(
            {"benchmark": "core_throughput_quick", "workload": params,
             "result": record}, indent=2) + "\n")
        print(f"\nquick results -> {out}")
        if not record["all_intact"]:
            print("FAIL: not every connection kept its stream intact",
                  file=sys.stderr)
            return 1
        return check_gates(record, args)

    if args.record:
        append_trajectory(args.record, params, record)
    return check_gates(record, args)


def check_gates(record: dict, args) -> int:
    return (check_floor(record, args.floor)
            or check_churn(record, args.churn_ceiling)
            or check_rss(record, args.rss_ceiling))


def check_floor(record: dict, floor: "int | None") -> int:
    """The CI perf gate: best-of-N events/sec must clear ``floor``."""
    if floor is not None and record["events_per_sec"] < floor:
        print(f"FAIL: {record['events_per_sec']} events/sec is below the "
              f"perf floor of {floor}", file=sys.stderr)
        return 1
    return 0


def check_churn(record: dict, ceiling: "float | None") -> int:
    """The allocation regression gate: net blocks/event under ``ceiling``."""
    if ceiling is None:
        return 0
    per_event = record["churn"]["net_blocks_per_event"]
    if per_event > ceiling:
        print(f"FAIL: {per_event} net allocated blocks per event exceeds "
              f"the churn ceiling of {ceiling}", file=sys.stderr)
        return 1
    return 0


def check_rss(record: dict, ceiling: "float | None") -> int:
    """The footprint regression gate: peak resident MB under ``ceiling``."""
    if ceiling is not None and record["peak_rss_mb"] > ceiling:
        print(f"FAIL: peak RSS of {record['peak_rss_mb']} MB exceeds the "
              f"ceiling of {ceiling} MB", file=sys.stderr)
        return 1
    return 0


def append_trajectory(label: str, params: dict, record: dict) -> None:
    data = (json.loads(RESULT_JSON.read_text())
            if RESULT_JSON.exists() else
            {"benchmark": "core_throughput", "workload": params})
    trajectory = seed_trajectory(data)
    trajectory.append(dict(
        label=label,
        date=datetime.date.today().isoformat(),
        cpus=os.cpu_count(), **record))
    RESULT_JSON.write_text(json.dumps(data, indent=2) + "\n")
    print(f"\nrecorded '{label}' -> {RESULT_JSON} "
          f"({len(trajectory)} trajectory entries)")


def run_scaling(args) -> int:
    """Measure every point of the fleet scaling curve."""
    failed = False
    for params in SCALING:
        record = measure(params, repeats=args.repeats)
        print(json.dumps({"workload": params, "result": record}, indent=2))
        if not record["all_intact"] or check_rss(record, args.rss_ceiling):
            failed = True
        if args.record:
            suffix = "bcast" if not params["egress_filtering"] else "fleet"
            append_trajectory(
                f"{args.record}@{params['num_clients']}c-{suffix}",
                params, record)
    if failed:
        print("FAIL: a point lost a stream or exceeded --rss-ceiling",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
