"""Trial scenario registry: what a campaign worker actually runs.

A scenario is a function ``TrialSpec -> record dict``.  Workers resolve
scenarios (and faults) *by name* inside the worker process, so nothing
callable ever crosses a process boundary — a :class:`TrialSpec` stays
plain picklable data.

Records are compact JSON-able dicts (virtual-time measurements and
verdicts only, never wall clock) so aggregated campaign output is
byte-identical regardless of worker count; see
:mod:`repro.campaign.spec` for the contract.

Built-in scenarios:

``failover``
    :func:`repro.scenarios.runner.run_failover_experiment` — single
    stream through a named fault (Table 1 / Demo 2 / Demo 4 / Demo 5).
``baseline``
    :func:`repro.scenarios.runner.run_baseline_failover` — the no-ST-TCP
    hot standby counterfactual.
``workload``
    :func:`repro.workloads.runner.run_workload_failover` — N
    connections over M client hosts through a mid-run fault.
``cc_ident``
    :func:`repro.scenarios.ccident.run_cc_ident` — stream under a chosen
    congestion-control algorithm on a lossy link, then classify the
    algorithm back from the cwnd timeline alone.

Every scenario accepts a ``cc`` parameter (usually a grid dimension:
``--grid cc=tahoe,reno,newreno,cubic``) selecting the congestion-control
algorithm for every TCP endpoint in the trial's testbed.

Custom scenarios register with :func:`register_scenario`; note that
worker processes are forked, so register before ``run_campaign`` is
called (spawn-based contexts only see import-time registrations).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.campaign.spec import TrialSpec
from repro.sim.core import NS_PER_S, millis, seconds

__all__ = ["register_scenario", "get_scenario", "scenario_names",
           "FAULTS", "execute_trial"]

ScenarioFn = Callable[[TrialSpec], dict]

_SCENARIOS: dict[str, ScenarioFn] = {}


def register_scenario(name: str, fn: ScenarioFn,
                      replace: bool = False) -> None:
    """Add (or with ``replace=True`` override) a scenario by name."""
    if name in _SCENARIOS and not replace:
        raise ValueError(f"scenario {name!r} is already registered")
    _SCENARIOS[name] = fn


def get_scenario(name: str) -> ScenarioFn:
    """Resolve a registered scenario; raises on unknown names."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise ValueError(f"unknown scenario {name!r}; "
                         f"available: {scenario_names()}") from None


def scenario_names() -> tuple[str, ...]:
    """Registered scenario names, sorted."""
    return tuple(sorted(_SCENARIOS))


# ------------------------------------------------------------------- faults

def _hw_crash_primary(tb, sp, sb):
    from repro.faults.faults import HwCrash
    return HwCrash(tb.primary)


def _hw_crash_backup(tb, sp, sb):
    from repro.faults.faults import HwCrash
    return HwCrash(tb.backup)


def _app_hang_primary(tb, sp, sb):
    from repro.faults.faults import AppHang
    return AppHang(sp)


def _app_hang_backup(tb, sp, sb):
    from repro.faults.faults import AppHang
    return AppHang(sb)


def _app_crash_fin_primary(tb, sp, sb):
    from repro.faults.faults import AppCrashWithCleanup
    return AppCrashWithCleanup(sp)


def _app_crash_fin_backup(tb, sp, sb):
    from repro.faults.faults import AppCrashWithCleanup
    return AppCrashWithCleanup(sb)


def _nic_failure_primary(tb, sp, sb):
    from repro.faults.faults import NicFailure
    return NicFailure(tb.primary.nics[0])


def _nic_failure_backup(tb, sp, sb):
    from repro.faults.faults import NicFailure
    return NicFailure(tb.backup.nics[0])


#: Fault name → factory ``(testbed, server_primary, server_backup) -> Fault``.
#: The ``workload`` scenario has no per-server app handles, so only the
#: testbed-addressed faults (hw crash, NIC failure) apply there.
FAULTS: dict[str, Callable] = {
    "hw_crash_primary": _hw_crash_primary,
    "hw_crash_backup": _hw_crash_backup,
    "app_hang_primary": _app_hang_primary,
    "app_hang_backup": _app_hang_backup,
    "app_crash_fin_primary": _app_crash_fin_primary,
    "app_crash_fin_backup": _app_crash_fin_backup,
    "nic_failure_primary": _nic_failure_primary,
    "nic_failure_backup": _nic_failure_backup,
}

_TESTBED_ONLY_FAULTS = frozenset(
    {"hw_crash_primary", "hw_crash_backup",
     "nic_failure_primary", "nic_failure_backup"})


def _resolve_fault(name: str, workload: bool = False) -> Callable:
    if name not in FAULTS:
        raise ValueError(f"unknown fault {name!r}; "
                         f"available: {sorted(FAULTS)}")
    if workload and name not in _TESTBED_ONLY_FAULTS:
        raise ValueError(
            f"fault {name!r} needs server-app handles and is not available "
            f"for the workload scenario; use one of "
            f"{sorted(_TESTBED_ONLY_FAULTS)}")
    return FAULTS[name]


# --------------------------------------------------------- shared param glue

def _pop_config(params: dict):
    """Build an SttcpConfig from the recognised config params, or None."""
    from repro.sttcp.config import SttcpConfig

    fields = {}
    if "hb_period_ms" in params:
        fields["hb_period_ns"] = millis(params.pop("hb_period_ms"))
    if "hb_miss_threshold" in params:
        fields["hb_miss_threshold"] = int(params.pop("hb_miss_threshold"))
    if "max_delay_fin_s" in params:
        fields["max_delay_fin_ns"] = seconds(params.pop("max_delay_fin_s"))
    if "kick_on_takeover" in params:
        fields["kick_on_takeover"] = bool(params.pop("kick_on_takeover"))
    if "use_serial_hb" in params:
        fields["use_serial_hb"] = bool(params.pop("use_serial_hb"))
    return SttcpConfig(**fields) if fields else None


def _apply_cc(params: dict, opts):
    """Fold an optional ``cc`` trial parameter (grid dimension) into the
    run options; every scenario accepts it."""
    cc = params.pop("cc", None)
    return opts.with_(cc=str(cc)) if cc is not None else opts


def _reject_unknown(params: dict, scenario: str) -> None:
    if params:
        raise ValueError(
            f"unknown {scenario} parameter(s): {sorted(params)}")


def _base_record(trial: TrialSpec) -> dict:
    return {
        "index": trial.index,
        "scenario": trial.scenario,
        "seed": trial.seed,
        "params": dict(trial.params),
        "status": "ok",
        "error": None,
    }


def _timeline_fields(timeline) -> dict:
    return {
        "failover_time_ns": timeline.failover_time_ns,
        "detection_ns": timeline.detection_latency_ns,
        "detection_kind": timeline.detection_kind,
        "backoff_residue_ns": timeline.backoff_residue_ns,
        "takeover_at_ns": timeline.takeover_at,
        "non_ft_at_ns": timeline.non_ft_at,
        "client_resumed_at_ns": timeline.client_resumed_at,
    }


def _goodput(bytes_received: int, run_until_s: float) -> float:
    """Client goodput over the whole run window, bytes/second."""
    return round(bytes_received / run_until_s, 3) if run_until_s else 0.0


# ---------------------------------------------------------------- scenarios

def _warm_testbed(key: tuple, opts, builder):
    """Pristine testbed via the warm snapshot cache, or None (cold path).

    Records never carry wall clock, so warm/cold is invisible in campaign
    output — the golden-trace suite pins the byte-identity.
    """
    from repro.campaign import warm

    if not warm.is_enabled():
        return None
    return warm.get_cache().acquire(key, opts.seed, builder)


def _run_failover(trial: TrialSpec) -> dict:
    from repro.check.oracle import InvariantViolationError
    from repro.scenarios.builder import build_testbed
    from repro.scenarios.runner import run_failover_experiment

    params = dict(trial.params)
    fault = _resolve_fault(params.pop("fault", "hw_crash_primary"))
    config = _pop_config(params)
    total_bytes = int(params.pop("total_bytes", 30_000_000))
    fault_at_s = float(params.pop("fault_at_s", 1.0))
    request_chunk = int(params.pop("request_chunk", 0))
    opts = _apply_cc(params, trial.options.with_(seed=trial.seed))
    _reject_unknown(params, "failover")

    tb = _warm_testbed(
        ("failover", repr(config), opts.cc), opts,
        lambda: build_testbed(seed=opts.seed, config=config, cc=opts.cc))
    record = _base_record(trial)
    record["oracle"] = "clean" if opts.check else "off"
    try:
        result = run_failover_experiment(
            fault, total_bytes=total_bytes, fault_at_s=fault_at_s,
            config=config, request_chunk=request_chunk, options=opts,
            testbed=tb)
    except InvariantViolationError as exc:
        record["status"] = "violation"
        record["oracle"] = f"violated:{len(exc.violations)}"
        return record
    record.update(_timeline_fields(result.timeline))
    record["stream_intact"] = result.stream_intact
    record["bytes_received"] = result.client.received
    record["goodput_bytes_per_s"] = _goodput(result.client.received,
                                             opts.run_until_s)
    return record


def _run_baseline(trial: TrialSpec) -> dict:
    from repro.check.oracle import InvariantViolationError
    from repro.scenarios.builder import build_testbed
    from repro.scenarios.runner import run_baseline_failover

    params = dict(trial.params)
    total_bytes = int(params.pop("total_bytes", 30_000_000))
    fault_at_s = float(params.pop("fault_at_s", 1.0))
    liveness_timeout_s = float(params.pop("liveness_timeout_s", 2.0))
    opts = _apply_cc(params, trial.options.with_(seed=trial.seed))
    _reject_unknown(params, "baseline")

    tb = _warm_testbed(
        ("baseline", opts.cc), opts,
        lambda: build_testbed(seed=opts.seed, mode="baseline", cc=opts.cc))
    record = _base_record(trial)
    record["oracle"] = "clean" if opts.check else "off"
    try:
        result = run_baseline_failover(
            total_bytes=total_bytes, fault_at_s=fault_at_s,
            liveness_timeout_s=liveness_timeout_s, options=opts,
            testbed=tb)
    except InvariantViolationError as exc:
        record["status"] = "violation"
        record["oracle"] = f"violated:{len(exc.violations)}"
        return record
    # The baseline client reconnects, so "failover time" here is the
    # client-visible disruption around the fault.
    record["failover_time_ns"] = result.disruption_ns
    record["reconnects"] = result.client.reconnect_count
    record["resets"] = result.client.reset_count
    record["bytes_received"] = result.client.received
    record["goodput_bytes_per_s"] = _goodput(result.client.received,
                                             opts.run_until_s)
    return record


def _run_workload(trial: TrialSpec) -> dict:
    from repro.check.oracle import InvariantViolationError
    from repro.scenarios.builder import build_testbed
    from repro.workloads import WorkloadSpec, run_workload_failover

    params = dict(trial.params)
    fault_name = params.pop("fault", "hw_crash_primary")
    fault = _resolve_fault(fault_name, workload=True)
    config = _pop_config(params)
    spec = WorkloadSpec(
        kind=params.pop("kind", "stream"),
        connections=int(params.pop("connections", 32)),
        bytes_per_conn=int(params.pop("bytes_per_conn", 100_000)),
        mean_interarrival_s=float(params.pop("churn_ms", 20.0)) / 1000.0)
    num_clients = int(params.pop("num_clients", 8))
    fault_at_s = float(params.pop("fault_at_s", 1.0))
    opts = _apply_cc(params, trial.options.with_(seed=trial.seed))
    _reject_unknown(params, "workload")

    tb = _warm_testbed(
        ("workload", repr(config), num_clients, opts.cc), opts,
        lambda: build_testbed(seed=opts.seed, config=config, cc=opts.cc,
                              num_clients=num_clients))
    record = _base_record(trial)
    record["oracle"] = "clean" if opts.check else "off"
    try:
        result = run_workload_failover(
            spec, make_fault=lambda tb: fault(tb, None, None),
            fault_at_s=fault_at_s, num_clients=num_clients,
            config=config, options=opts, testbed=tb)
    except InvariantViolationError as exc:
        record["status"] = "violation"
        record["oracle"] = f"violated:{len(exc.violations)}"
        return record
    engine = result.engine
    received = sum(getattr(r.app, "received", 0) or 0
                   for r in engine.records if r.app is not None)
    record.update(_timeline_fields(result.timeline))
    record["stream_intact"] = result.all_intact
    record["connections"] = len(engine.records)
    record["completed"] = engine.completed_count
    record["intact"] = engine.intact_count
    record["bytes_received"] = received
    record["goodput_bytes_per_s"] = _goodput(received, opts.run_until_s)
    return record


def _run_cc_ident(trial: TrialSpec) -> dict:
    from repro.scenarios.ccident import run_cc_ident

    params = dict(trial.params)
    cc = str(params.pop("cc", "reno"))
    total_bytes = int(params.pop("total_bytes", 4_000_000))
    loss_rate = float(params.pop("loss_rate", 0.01))
    _reject_unknown(params, "cc_ident")

    opts = trial.options.with_(seed=trial.seed, cc=cc)
    record = _base_record(trial)
    record["oracle"] = "off"
    result = run_cc_ident(cc, seed=opts.seed, total_bytes=total_bytes,
                          loss_rate=loss_rate,
                          run_until_s=opts.run_until_s)
    record["cc"] = cc
    record["guess"] = result.guess
    record["correct"] = result.correct
    record["features"] = result.features
    record["bytes_received"] = result.bytes_received
    return record


register_scenario("failover", _run_failover)
register_scenario("baseline", _run_baseline)
register_scenario("workload", _run_workload)
register_scenario("cc_ident", _run_cc_ident)


def execute_trial(trial: TrialSpec) -> dict:
    """Run one trial to a record; a raising trial yields a ``failed``
    record instead of killing the campaign (or its worker)."""
    try:
        fn = get_scenario(trial.scenario)
        record = fn(trial)
    except Exception as exc:  # noqa: BLE001 - a trial is a fault boundary
        record = _base_record(trial)
        record["status"] = "failed"
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record
