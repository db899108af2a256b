#!/usr/bin/env python3
"""Demo 5 as a script: NIC failures and the dual-link heartbeat.

Part 1 fails the primary's NIC, part 2 the backup's.  In both cases the
IP-link heartbeat dies while the serial null-modem heartbeat survives;
the servers then use the heartbeat's progress counters and gateway-ping
results (exchanged over the serial line) to work out whose NIC died.

Run:  python examples/nic_failure_demo.py
"""

from repro.faults import NicFailure
from repro.metrics import format_duration
from repro.scenarios import RunOptions, run_failover_experiment
from repro.sttcp import EventKind


def report(result, engine, title: str) -> None:
    print(f"\n--- {title} ---")
    events = engine.events
    print("  IP HB link down   :", events.has(EventKind.HB_IP_LINK_DOWN))
    print("  serial HB link    :",
          "stayed up" if not events.has(EventKind.HB_SERIAL_LINK_DOWN)
          else "DOWN")
    print("  gateway pings     :",
          "probing started" if events.has(EventKind.PING_PROBING) else "-")
    diagnosis = events.first(EventKind.NIC_FAILURE_DETECTED)
    print("  diagnosis         :",
          diagnosis.detail.get("symptom", "-") if diagnosis else "-")
    pair = result.testbed.pair
    if pair.backup.takeover_at is not None:
        print("  recovery          : backup took over; primary powered down")
        print("  failover time     :",
              format_duration(result.timeline.failover_time_ns))
    else:
        print("  recovery          : primary switched to non-fault-tolerant "
              "mode; backup powered down")
        print("  client impact     : none (stall "
              f"{format_duration(result.glitch_ns)})")
    print("  stream intact     :", result.stream_intact)


def main() -> None:
    print("30 MB stream; a NIC fails at t=1s while both hosts stay alive.")

    part1 = run_failover_experiment(
        lambda tb, sp, sb: NicFailure(tb.primary.nics[0]),
        total_bytes=30_000_000, fault_at_s=1.0,
        options=RunOptions(seed=6, run_until_s=60))
    report(part1, part1.testbed.pair.backup, "part 1: primary NIC fails")

    part2 = run_failover_experiment(
        lambda tb, sp, sb: NicFailure(tb.backup.nics[0]),
        total_bytes=30_000_000, fault_at_s=1.0,
        options=RunOptions(seed=6, run_until_s=60))
    report(part2, part2.testbed.pair.primary, "part 2: backup NIC fails")

    print("\nOne HB channel would have made these cases indistinguishable"
          "\nfrom a machine crash (see python -m repro ablation_dual_hb)"
          "\n— the serial link is what lets ST-TCP assign blame correctly.")


if __name__ == "__main__":
    main()
