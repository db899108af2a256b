"""Command-line interface: run the paper's experiments from a shell.

::

    python -m repro list                 # what can I run?
    python -m repro demo1                # seamless failover vs baseline
    python -m repro demo2 --hb 200 500 1000
    python -m repro demo3 --size 100000000
    python -m repro table1               # any repro.experiments entry
    python -m repro demo1 --seed 7       # default: the entry's own seed
    python -m repro demo1 --obs-out out/ --obs-level frames
    python -m repro sweep --grid hb_period_ms=200,500,1000 --trials 30 \
        --jobs 4 --out sweep.json       # parallel campaign engine

Each :mod:`repro.experiments` entry is a command: it prints the entry's
table (at its defaults, exactly ``benchmarks/results/<entry>.txt``) and
exits 1 if one of the paper's claims about it does not hold.

Every command accepts ``--obs-out DIR`` to export observability
artifacts (counter snapshot, per-connection TCP timeline, pcap-style
frame log — see ``docs/observability.md``), one run per ``DIR/<label>``,
and ``--obs-level`` to pick how much is recorded.  Exports are
deterministic per seed.

Every command also accepts ``--check``: the run is validated against the
protocol invariant oracle (``docs/invariants.md``) and the process exits
2 if any invariant was breached.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.experiments import EXPERIMENTS
from repro.metrics.report import banner, format_table
from repro.obs.export import OBS_LEVELS
from repro.tcp.congestion import cc_names


def _run_options(args, **defaults):
    """The RunOptions a command hands its runner — one place maps CLI
    flags (--seed/--obs-out/--obs-level/--check/--cc) onto the API."""
    from repro.scenarios.options import RunOptions

    changes = {"obs_level": args.obs_level if args.obs_out else None,
               "check": args.check, "cc": args.cc}
    if args.seed is not None:
        changes["seed"] = args.seed
    return RunOptions(**defaults).with_(**changes)


def _export_obs(obs, args, subdir: str = "") -> None:
    """Write one run's artifacts under ``--obs-out[/subdir]`` and say so."""
    if obs is None or not args.obs_out:
        return
    out = os.path.join(args.obs_out, subdir) if subdir else args.obs_out
    paths = obs.write(out)
    print(f"\nobservability artifacts ({obs.level}) -> {out}:")
    for name in sorted(paths):
        print(f"  {name}")


def _experiment(args) -> int:
    """Run one registry entry: print its table, export each run's
    artifacts under ``--obs-out/<label>``, exit 1 if a claim fails."""
    experiment = EXPERIMENTS[args.command]
    params = {name: getattr(args, name) for name in ("hb", "size")
              if getattr(args, name, None) is not None}
    runs = experiment.run(_run_options(args, seed=experiment.seed,
                                       run_until_s=experiment.run_until_s),
                          **params)
    print(experiment.render(runs))
    for label, result in runs.items():
        _export_obs(result.obs, args, subdir=label)
    failed = [text for text, holds in experiment.claims(runs) if not holds]
    for text in failed:
        print(f"claim does not hold: {text}", file=sys.stderr)
    return 1 if failed else 0


def _workload(args) -> int:
    from repro.workloads import WorkloadSpec, run_workload_failover

    print(f"Workload: {args.connections} {args.kind} connections over "
          f"{args.clients} clients, primary HW crash at t={args.fault_at}s")
    spec = WorkloadSpec(kind=args.kind, connections=args.connections,
                        bytes_per_conn=args.bytes,
                        mean_interarrival_s=args.churn_ms / 1000.0)
    result = run_workload_failover(
        spec, num_clients=args.clients, fault_at_s=args.fault_at,
        options=_run_options(args, run_until_s=args.run_until))
    summary = result.summary()
    print(format_table(
        ["connections", "clients", "completed", "intact", "all intact"],
        [[summary["connections"], summary["clients"], summary["completed"],
          summary["intact"], "yes" if summary["all_intact"] else "NO"]]))
    print("\ntimeline:", result.timeline.describe())
    not_intact = [r for r in result.records if not r.stream_intact]
    for record in not_intact[:10]:
        print(f"  not intact: {record!r}")
    _export_obs(result.obs, args)
    return 0 if result.all_intact else 1


def _sweep(args) -> int:
    from repro.campaign.cli import run_sweep

    return run_sweep(args)


_COMMANDS = {
    **{name: (_experiment, f"{e.title} ({e.section})")
       for name, e in EXPERIMENTS.items()},
    "workload": (_workload, "many-connection workload through a failover"),
    "sweep": (_sweep, "parallel campaign: grid sweep / Monte Carlo trials"),
}


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the ST-TCP paper's demonstrations.")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available demonstrations")
    for name, (_fn, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "sweep":
            # The campaign engine has its own knob surface (grid, jobs,
            # timeout, ...); workers always run with observability off.
            from repro.campaign.cli import add_sweep_args

            add_sweep_args(p)
            continue
        p.add_argument("--seed", type=int, default=None,
                       help="world RNG seed (default: the experiment's)")
        p.add_argument("--obs-out", metavar="DIR", default=None,
                       help="export observability artifacts into DIR "
                            "(an experiment's runs: DIR/<label>; see "
                            "docs/observability.md)")
        p.add_argument("--obs-level", choices=OBS_LEVELS, default="frames",
                       help="how much to record when --obs-out is given "
                            "(default: frames)")
        p.add_argument("--check", action="store_true",
                       help="validate the run against the protocol "
                            "invariant oracle (docs/invariants.md); "
                            "exit 2 on any violation")
        p.add_argument("--cc", choices=cc_names(), default=None,
                       help="congestion-control algorithm for every TCP "
                            "endpoint (default: the TcpConfig default, "
                            "reno; see docs/congestion.md)")
        if name == "demo2":
            p.add_argument("--hb", type=int, nargs="+",
                           help="heartbeat periods in ms "
                                "(default: 200 500 1000)")
        if name == "demo3":
            p.add_argument("--size", type=int,
                           help="file size in bytes (default: 100000000)")
        if name == "workload":
            p.add_argument("--kind", choices=("stream", "kv"),
                           default="stream")
            p.add_argument("--connections", type=int, default=32)
            p.add_argument("--clients", type=int, default=32,
                           help="client hosts on the switch")
            p.add_argument("--bytes", type=int, default=100_000,
                           help="payload bytes per stream connection")
            p.add_argument("--churn-ms", type=float, default=20.0,
                           help="mean interarrival gap between connections")
            p.add_argument("--fault-at", type=float, default=1.0)
            p.add_argument("--run-until", type=float, default=60.0)
    args = parser.parse_args(argv)
    if args.command in (None, "list"):
        print(banner("ST-TCP demonstrations"))
        for name, (_fn, help_text) in _COMMANDS.items():
            print(f"  {name:23s} {help_text}")
        return 0
    handler, _help = _COMMANDS[args.command]
    if args.check and args.command != "sweep":
        from repro.check.oracle import InvariantViolationError
        try:
            rc = handler(args)
        except InvariantViolationError as exc:
            print(f"\ninvariant check FAILED:\n{exc}", file=sys.stderr)
            return 2
        print("\ninvariant check: clean")
        return rc
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
