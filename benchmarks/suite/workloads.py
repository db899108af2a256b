"""The five benchmark workloads, their correctness gate and their digest.

Every workload is a fixed batch of simulated work (closed: nothing is
offered faster because the host is faster) built from ``seed`` alone —
the seed is passed only as ``RunOptions.seed`` / ``CampaignSpec.seed``.
:func:`run_rep` runs one repetition through the repo's public runners,
times the whole call on the host clock, and then (outside the timed
region) scores it: every connection or trial is one *operation*, and an
operation that is not completed, not intact, reset, oracle-violating or
part of a run whose fault/takeover proof is missing counts as failed.

Each workload has a scaled-down ``smoke`` shape with the same structure;
it is the per-process warm-up and what ``run.py --smoke`` runs.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from typing import Optional

from repro.campaign import FAULTS, CampaignSpec, expand, run_campaign
from repro.check.oracle import InvariantViolationError
from repro.scenarios import RunOptions, run_failover_experiment
from repro.workloads import WorkloadSpec, run_workload_failover

__all__ = ["WORKLOADS", "FANOUT_JOBS", "run_rep", "read_counts",
           "campaign_pass", "attach_counts"]

#: ``campaign_table1`` is timed at jobs=1, in process: on this box's two
#: shared CPUs a repetition that fills both measured the host's other
#: tenants (see the README, "Spread").  Each run still fans the same
#: trials out over this many workers once, untimed, as a cross-check.
FANOUT_JOBS = 2


# ------------------------------------------------------------------ scoring

def _sha(parts) -> str:
    return hashlib.sha256(repr(parts).encode("ascii")).hexdigest()


def _median(values, per: float) -> Optional[float]:
    """Median of the values that are not None, in units of ``per``."""
    values = [v for v in values if v is not None]
    return statistics.median(values) / per if values else None


def _sum_counts(dicts, ratios: dict) -> dict:
    """Add count dicts key by key, then recompute each ratio in
    ``ratios`` (name -> (numerator, denominator names))."""
    total: dict = {}
    for counts in dicts:
        for name, value in counts.items():
            total[name] = total.get(name, 0) + value
    for name, (top, bottom) in ratios.items():
        total[name] = total[top] / max(sum(total[b] for b in bottom), 1)
    return total


def read_counts(tb) -> dict:
    """Exact per-seed counters of one finished testbed, read from the
    layers' public attributes (no probe attached)."""
    hosts = [*tb.clients, tb.primary, tb.backup]
    nics = [nic for host in hosts for nic in host.nics]
    received = sum(n.frames_received for n in nics)
    filtered = sum(n.frames_filtered for n in nics)
    cables = list(tb.cables.values())
    return {
        "count.events": tb.world.sim.events_processed,
        "count.frames_forwarded": tb.switch.frames_forwarded,
        "count.frames_flooded": tb.switch.frames_flooded,
        "count.frames_egress_filtered": tb.switch.frames_egress_filtered,
        "count.nic_frames_received": received,
        "count.nic_frames_filtered": filtered,
        "count.nic_filter_waste_ratio": filtered / max(received + filtered, 1),
        "count.cable_frames_delivered": sum(c.frames_delivered for c in cables),
        "count.cable_frames_lost": sum(c.frames_lost for c in cables),
        "count.ip_packets_sent": sum(h.ip.packets_sent for h in hosts),
        "count.ip_packets_not_for_us": sum(h.ip.packets_not_for_us
                                           for h in hosts),
        "count.tcp_segments_demuxed": sum(h.tcp.segments_demuxed
                                          for h in hosts),
        "count.hb_sent": tb.pair.primary.hb.sent + tb.pair.backup.hb.sent,
    }


def _timeline_instants(timeline) -> tuple:
    return (timeline.fault_at, timeline.detected_at, timeline.takeover_at,
            timeline.non_ft_at, timeline.stonith_at,
            timeline.client_resumed_at)


def _proof_failures(tb, timeline) -> list:
    """The fault must have fired and the backup must have taken over
    before the run's time counts (every injected fault is paired with the
    evidence that it did what the workload says)."""
    failures = []
    if tb.inject.injected_count != 1:
        failures.append("fault did not fire")
    if timeline.takeover_at is None:
        failures.append("no takeover on the timeline")
    return failures


def _tcp_counts(obs) -> Optional[dict]:
    """Segment counts only an attached ObsSession sees."""
    if obs is None:
        return None
    counters = obs.metrics.snapshot()["counters"]
    sent = counters.get("tcp.segments_sent_total", 0)
    retransmitted = counters.get("tcp.retransmissions_total", 0)
    return {
        "count.tcp_segments_sent": sent,
        "count.tcp_retransmissions": retransmitted,
        "count.tcp_retransmit_ratio": retransmitted / max(sent, 1),
        "count.sttcp_suppressed_segments":
            counters.get("sttcp.suppressed_segments_total", 0),
    }


def _score(wall_s: float, result, completed_at: list, intact: list,
           app_bytes: int, failover_ns: Optional[int]) -> dict:
    """Turn one finished in-process run into the repetition record."""
    tb, timeline = result.testbed, result.timeline
    attempted = len(completed_at)
    proof = _proof_failures(tb, timeline)
    ok = sum(1 for done, good in zip(completed_at, intact)
             if done is not None and good)
    failures = list(proof)
    if ok != attempted:
        failures.append(f"{attempted - ok} of {attempted} connections "
                        f"not completed intact")
    counts = read_counts(tb)
    done = [t for t in completed_at if t is not None]
    return {
        "wall_s": wall_s,
        "events": counts["count.events"],
        "app_bytes": app_bytes,
        "attempted": attempted,
        # A missing fault/takeover proof voids the whole repetition.
        "failed": attempted if proof else attempted - ok,
        "failures": failures,
        "sim_failover_ms": (failover_ns / 1e6
                            if failover_ns is not None else None),
        "sim_done_s": max(done) / 1e9 if done else None,
        "counts": counts,
        "tcp_counts": _tcp_counts(result.obs),
        "digest": _sha((sorted(counts.items()), _timeline_instants(timeline),
                        completed_at)),
    }


def _violation(exc: InvariantViolationError, wall_s: float,
               attempted: int) -> dict:
    return {"wall_s": wall_s, "events": None, "app_bytes": 0,
            "attempted": attempted, "failed": attempted,
            "failures": [f"oracle: {len(exc.violations)} violation(s)"],
            "sim_failover_ms": None, "sim_done_s": None, "counts": None,
            "tcp_counts": None, "digest": None}


# ---------------------------------------------------------------- workloads
#
# Every workload function takes (seed, smoke, variant).  "timed" is the
# workload as defined; "traced" is what the traced pass runs (the same,
# except that the campaign runs one trial per fault in process);
# "counters" attaches an ObsSession at obs_level="counters" for the TCP
# segment counts no public attribute carries.

def _obs_level(variant: str, default: Optional[str] = None) -> Optional[str]:
    return default or ("counters" if variant == "counters" else None)


def _bulk(seed: int, smoke: bool, variant: str) -> dict:
    total, fault_at, until = ((2_000_000, 0.1, 6.0) if smoke
                              else (25_000_000, 1.0, 8.0))
    start = time.perf_counter()
    result = run_failover_experiment(
        FAULTS["hw_crash_primary"], total_bytes=total, fault_at_s=fault_at,
        options=RunOptions(seed=seed, run_until_s=until,
                           obs_level=_obs_level(variant)))
    wall_s = time.perf_counter() - start
    client = result.client
    return _score(wall_s, result, [client.completed_at],
                  [result.stream_intact],
                  client.received if result.stream_intact else 0,
                  result.timeline.failover_time_ns)


def _workload_rep(spec: WorkloadSpec, num_clients: int, fault_at_s: float,
                  options: RunOptions, egress_filtering: bool) -> dict:
    start = time.perf_counter()
    try:
        result = run_workload_failover(
            spec, num_clients=num_clients, fault_at_s=fault_at_s,
            options=options, egress_filtering=egress_filtering)
    except InvariantViolationError as exc:
        return _violation(exc, time.perf_counter() - start, spec.connections)
    wall_s = time.perf_counter() - start
    records = result.records
    intact = [r.stream_intact for r in records]
    timeline = result.timeline
    if spec.kind == "stream":
        app_bytes = sum(r.app.received for r, ok in zip(records, intact) if ok)
        failover_ns = timeline.failover_time_ns
    else:
        # Reply lines plus their newlines: the bytes the clients read.
        app_bytes = sum(sum(len(reply) + 1 for reply in r.app.replies)
                        for r, ok in zip(records, intact) if ok)
        # No stream monitor on kv: takeover - fault is the failover time.
        failover_ns = (timeline.takeover_at - timeline.fault_at
                       if timeline.takeover_at is not None else None)
    return _score(wall_s, result, [r.completed_at_ns for r in records],
                  intact, app_bytes, failover_ns)


def _fleet(seed: int, smoke: bool, variant: str,
           observed: bool = False) -> dict:
    if smoke:
        clients, per_conn, fault_at, until = 8, 40_000, 0.15, 20.0
    else:
        # Exactly benchmarks/bench_core_throughput.py FULL.
        clients, per_conn, fault_at, until = 32, 500_000, 1.0, 45.0
    spec = WorkloadSpec(kind="stream", connections=clients,
                        bytes_per_conn=per_conn, mean_interarrival_s=0.02)
    options = RunOptions(
        seed=seed, run_until_s=until, check=observed,
        obs_level=_obs_level(variant, "frames" if observed else None))
    return _workload_rep(spec, clients, fault_at, options,
                         egress_filtering=False)


def _fleet_observed(seed: int, smoke: bool, variant: str) -> dict:
    return _fleet(seed, smoke, variant, observed=True)


def _kv(seed: int, smoke: bool, variant: str) -> dict:
    clients, conns, ops, fault_at = ((16, 32, 10, 0.15) if smoke
                                     else (128, 128, 25, 0.5))
    spec = WorkloadSpec(kind="kv", connections=conns, kv_ops=ops,
                        mean_interarrival_s=0.004)
    options = RunOptions(seed=seed, run_until_s=4.0,
                         obs_level=_obs_level(variant))
    return _workload_rep(spec, clients, fault_at, options,
                         egress_filtering=True)


def campaign_spec(seed: int, smoke: bool, trials: Optional[int] = None
                  ) -> CampaignSpec:
    """Table 1 as a campaign: every fault x ``trials`` seeds, oracle on."""
    base = ({"total_bytes": 500_000, "fault_at_s": 0.02} if smoke
            else {"total_bytes": 1_000_000, "fault_at_s": 0.05})
    if trials is None:
        trials = 1 if smoke else 2
    return CampaignSpec(
        scenario="failover", base=base, grid={"fault": sorted(FAULTS)},
        trials=trials, seed=seed,
        options=RunOptions(run_until_s=6.0, check=True))


def _trial_problem(record: dict) -> Optional[str]:
    """Why one trial record counts as a failed operation, or None."""
    if record["status"] != "ok":
        return f"{record['status']}: {record.get('error')}"
    if not record.get("stream_intact"):
        return "stream not intact"
    if record.get("oracle") != "clean":
        return f"oracle {record.get('oracle')}"
    # The proof that the fault fired and was acted on: a primary fault
    # ends in a takeover, a backup machine/NIC fault in the primary's
    # non-fault-tolerant mode.  A backup *application* fault is not
    # detected before the 1 MB stream ends (the lag detector's
    # confirmation window is longer), so there the proof is the absence
    # of a takeover: the healthy primary must keep serving.
    fault = record["params"].get("fault", "")
    took_over = record.get("takeover_at_ns") is not None
    if fault.endswith("_primary"):
        return None if took_over else "no takeover"
    if took_over:
        return "takeover on a backup fault"
    if fault.startswith("app_") or record.get("non_ft_at_ns") is not None:
        return None
    return "primary never entered non-FT mode"


def score_campaign(result) -> dict:
    """Repetition record of one finished campaign (host time from
    ``CampaignResult.wall_s``; events come from the in-process pass)."""
    records = result.records
    failures = []
    for record in records:
        problem = _trial_problem(record)
        if problem:
            failures.append(f"trial {record['index']} "
                            f"({record['params'].get('fault')}): {problem}")
    aggregate = result.to_json()
    return {
        "wall_s": result.wall_s,
        "events": None,
        "app_bytes": sum(r.get("bytes_received", 0) for r in records
                         if r.get("stream_intact")),
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures,
        "sim_failover_ms": _median((r.get("failover_time_ns")
                                    for r in records), 1e6),
        "sim_done_s": _median((r.get("client_resumed_at_ns")
                               for r in records), 1e9),
        "counts": None,
        "tcp_counts": None,
        "digest": hashlib.sha256(aggregate.encode("utf-8")).hexdigest(),
    }


def campaign_pass(seed: int, smoke: bool, jobs: int = 1,
                  trials: Optional[int] = None) -> dict:
    """One campaign run, scored.  ``jobs=1`` runs in process.  No
    campaign record carries event counts, so the counted pass (all
    trials) and the traced pass (one trial per fault) read them through
    :class:`tracing.Tracer`'s drive hook."""
    return score_campaign(run_campaign(campaign_spec(seed, smoke, trials),
                                       jobs=jobs))


def _campaign_counters(seed: int, smoke: bool) -> dict:
    """The traced pass's trials run directly with an ObsSession attached
    (campaign workers never carry one)."""
    per_trial = [
        _tcp_counts(run_failover_experiment(
            FAULTS[trial.params["fault"]],
            total_bytes=trial.params["total_bytes"],
            fault_at_s=trial.params["fault_at_s"],
            options=trial.options.with_(seed=trial.seed,
                                        obs_level="counters")).obs)
        for trial in expand(campaign_spec(seed, smoke, trials=1))]
    return {"tcp_counts": _sum_counts(per_trial, {
        "count.tcp_retransmit_ratio": ("count.tcp_retransmissions",
                                       ["count.tcp_segments_sent"])})}


def _campaign(seed: int, smoke: bool, variant: str) -> dict:
    if variant == "counters":
        return _campaign_counters(seed, smoke)
    if variant == "traced":
        return campaign_pass(seed, smoke, trials=1)
    return campaign_pass(seed, smoke)


#: name -> workload function.  Why each exists is in BENCHMARK.json and
#: the README; how long a repetition takes is in run.py (the parent
#: process plans repetitions without importing the simulator).
WORKLOADS = {
    "bulk_1c": _bulk,
    "fleet_32c": _fleet,
    "kv_128c": _kv,
    "fleet_32c_observed": _fleet_observed,
    "campaign_table1": _campaign,
}


def run_rep(name: str, seed: int, smoke: bool = False,
            variant: str = "timed") -> dict:
    """One repetition of workload ``name``; see the module docstring."""
    return WORKLOADS[name](seed, smoke, variant)


def attach_counts(record: dict, per_testbed: list) -> dict:
    """Fill a campaign record's counters from what the drive hook read."""
    if record.get("counts") is None and per_testbed:
        record["counts"] = _sum_counts(per_testbed, {
            "count.nic_filter_waste_ratio": (
                "count.nic_frames_filtered",
                ["count.nic_frames_received", "count.nic_frames_filtered"])})
        record["events"] = record["counts"]["count.events"]
    return record
