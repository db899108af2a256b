"""The paper's experiments, one registry entry each.

Every demo, table, ablation and extension this reproduction reports is
defined here once: how it runs, how its table reads, and what the paper
claims about it.  ``python -m repro <entry>`` prints an entry's table,
``benchmarks/results/<entry>.txt`` holds the committed copy
(``tools/make_results.py`` refreshes them) and the integration tests
read the same runs, so the three cannot drift apart.

An entry's :meth:`Experiment.run` returns its runs as a dict, label ->
result.  A label names one run (its fault, its configuration) and is
where ``--obs-out DIR`` writes that run's artifacts (``DIR/<label>``).
Every result carries ``obs``; the failover runs are
:class:`~repro.scenarios.runner.FailoverResult`, ``cc_ident``'s are
:class:`~repro.scenarios.ccident.CcIdentResult`, the rest are
:class:`Run`.  An entry whose runs another entry already makes reads
them from it, so each distinct simulation runs once per process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.apps.echo import EchoClient, EchoServer
from repro.apps.filetransfer import FileClient, FileServer
from repro.apps.streaming import StreamClient, StreamServer
from repro.campaign.scenarios import FAULTS
from repro.campaign.spec import CampaignSpec, expand
from repro.faults.faults import HwCrash, NicFailure, TransientLoss
from repro.metrics.figures import bar_chart
from repro.metrics.report import banner, format_duration, format_table
from repro.net.serial_link import SERIAL_DEFAULT_BAUD
from repro.obs.export import ObsSession
from repro.scenarios.builder import Testbed, build_testbed
from repro.scenarios.ccident import run_cc_ident
from repro.scenarios.options import RunOptions
from repro.scenarios.runner import (Watch, run_baseline_failover,
                                    run_failover_experiment)
from repro.sim.core import millis, seconds
from repro.sttcp.config import SttcpConfig
from repro.sttcp.events import EventKind
from repro.sttcp.state import PER_CONNECTION_BYTES
from repro.tcp.congestion import DEFAULT_CC, cc_names

__all__ = ["Experiment", "EXPERIMENTS", "Run"]

#: Entry name -> the registered :class:`Experiment`, in definition order.
EXPERIMENTS: dict[str, "Experiment"] = {}


class Experiment:
    """One paper experiment.  A subclass names itself (``name``, the
    paper ``section``, a one-line ``title``), sets its defaults (``seed``,
    ``run_until_s``) and defines ``runs(options, **params)`` -> label ->
    result, ``render(runs)`` -> its table, and ``claims(runs)`` -> the
    paper's statements about it as ``(text, holds)`` pairs.  Defining
    the subclass registers it in :data:`EXPERIMENTS`."""

    name: str
    section: str
    title: str
    seed: int
    run_until_s = 60.0

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        EXPERIMENTS[cls.name] = cls()

    def __init__(self):
        self._runs: dict = {}

    def options(self, **changes) -> RunOptions:
        """This entry's default run options, with ``changes`` applied."""
        return RunOptions(seed=self.seed,
                          run_until_s=self.run_until_s).with_(**changes)

    def run(self, options: Optional[RunOptions] = None, **params) -> dict:
        """Every run of the experiment, label -> result: run on the first
        call with these options and params, the same objects after."""
        options = options or self.options()
        key = (options, repr(sorted(params.items())))
        if key not in self._runs:
            self._runs[key] = self.runs(options, **params)
        return self._runs[key]


@dataclass
class Run:
    """A run on a testbed the entry wires itself."""

    testbed: Testbed
    client: object
    obs: Optional[ObsSession] = None
    #: Entry-specific measurements taken during the run.
    extra: dict = field(default_factory=dict)


def _yes(flag: bool) -> str:
    return "yes" if flag else "NO"


def _page(title: str, table: str, *notes: str, preface=()) -> str:
    """A rendered results page: banner, preface lines, table, notes."""
    return "\n".join([banner(title), *preface, table,
                      *(("", *notes) if notes else ())])


def _progress(title: str, result, width: int = 30) -> list:
    """The client's download progress every 500 ms as a bar — the
    headless form of the paper's GUI pie chart — marking the fault."""
    total = result.client.total_bytes
    lines = ["", title]
    for t_s, got in result.monitor.progress_series(millis(500)):
        filled = round(got / total * width)
        bar = "#" * filled + "." * (width - filled)
        crashed = abs(t_s * 1e9 - result.timeline.fault_at) < millis(260)
        lines.append(f"  t={t_s:6.2f}s [{bar}] {got / total:5.1%}"
                     + ("  <-- primary crashed" if crashed else ""))
    return lines


def _failover(options, fault: str, fault_at_s: float = 1.0,
              config: Optional[SttcpConfig] = None):
    """A 30 MB stream through the named Table-1 fault."""
    return run_failover_experiment(
        FAULTS[fault], total_bytes=30_000_000, fault_at_s=fault_at_s,
        options=options, config=config)


def _served(options, server, config=None, **build):
    """A testbed with ``server`` on both replicas and the pair started,
    watched as ``options`` ask; returns ``(testbed, watch, primary app)``."""
    tb = build_testbed(seed=options.seed, config=config, cc=options.cc,
                       **build)
    watch = Watch(tb, options)
    app = server(tb.primary, "srv-p", port=80)
    app.start()
    server(tb.backup, "srv-b", port=80).start()
    tb.pair.start()
    return tb, watch, app


def _stream_client(tb, total_bytes, **kwargs):
    client = StreamClient(tb.client, "client", tb.service_ip, port=80,
                          total_bytes=total_bytes, **kwargs)
    client.start()
    return client


def _settle(tb, watch, options, client, **extra) -> Run:
    tb.run_until(options.run_until_s)
    watch.close()
    return Run(tb, client, watch.obs, extra)


_FIN_HOLD = SttcpConfig(max_delay_fin_ns=seconds(5))


class Demo1(Experiment):
    name, section, seed = "demo1", "Demo 1", 3
    title = "client-transparent seamless failover vs baseline"

    def runs(self, options):
        return {"sttcp": _failover(options, "hw_crash_primary"),
                "baseline": run_baseline_failover(
                    total_bytes=30_000_000, fault_at_s=1.0,
                    liveness_timeout_s=2.0, options=options)}

    def render(self, runs):
        sttcp, baseline = runs["sttcp"], runs["baseline"]
        timeline = sttcp.timeline
        return _page(
            "Demo 1: client-transparent seamless failover",
            format_table(
                ["system", "bytes delivered", "resets seen", "reconnects",
                 "client-visible outage", "TCP stream intact"],
                [["ST-TCP", f"{sttcp.client.received:,}",
                  sttcp.client.reset_count, 0,
                  format_duration(sttcp.glitch_ns),
                  _yes(sttcp.stream_intact)],
                 ["hot standby, no ST-TCP", f"{baseline.client.received:,}",
                  baseline.client.reset_count,
                  baseline.client.reconnect_count,
                  format_duration(baseline.disruption_ns),
                  "n/a (app-level resume)"]]),
            f"ST-TCP timeline: {timeline.describe()}",
            "  detection latency : "
            + format_duration(timeline.detection_latency_ns),
            "  backoff residue   : "
            + format_duration(timeline.backoff_residue_ns),
            "  total failover    : "
            + format_duration(timeline.failover_time_ns),
            *_progress("Download progress, ST-TCP (client unmodified):",
                       sttcp),
            *_progress("Download progress, hot standby (client "
                       "reconnects):", baseline))

    def claims(self, runs):
        sttcp, baseline = runs["sttcp"], runs["baseline"]
        return [
            ("the ST-TCP client's stream is intact", sttcp.stream_intact),
            ("the hot standby's client has to reconnect",
             baseline.client.reconnect_count >= 1),
            ("ST-TCP's glitch is shorter than the hot standby's outage",
             sttcp.glitch_ns < baseline.disruption_ns),
        ]


class Demo2(Experiment):
    name, section, seed = "demo2", "Demo 2", 3
    title = "failover time vs heartbeat frequency"

    def runs(self, options, hb=(200, 500, 1000)):
        return {f"hb_{ms}ms": _failover(
            options, "hw_crash_primary", fault_at_s=2.0,
            config=SttcpConfig(hb_period_ns=millis(ms))) for ms in hb}

    @staticmethod
    def by_period(runs) -> list:
        """``(HB period in ms, result)``, shortest period first."""
        return sorted(((r.testbed.pair.config.hb_period_ns // 1_000_000, r)
                       for r in runs.values()), key=lambda pair: pair[0])

    def render(self, runs):
        rows = self.by_period(runs)
        return _page(
            "Demo 2: failover time vs heartbeat frequency",
            format_table(
                ["HB period", "detection time", "retransmission residue",
                 "failover time", "stream intact"],
                [[f"{ms} ms", format_duration(r.timeline.detection_latency_ns),
                  format_duration(r.timeline.backoff_residue_ns),
                  format_duration(r.timeline.failover_time_ns),
                  _yes(r.stream_intact)] for ms, r in rows]),
            bar_chart([f"{ms} ms" for ms, _ in rows],
                      [r.timeline.failover_time_ns / 1e9 for _, r in rows],
                      unit="s"),
            "",
            "failover time = detection (miss threshold x HB period) + residual",
            "wait until the next backed-off client/backup retransmission.")

    def claims(self, runs):
        times = [r.timeline.failover_time_ns for _, r in self.by_period(runs)]
        return [
            ("failover time grows with the HB period",
             all(a < b for a, b in zip(times, times[1:]))),
            ("every stream is intact",
             all(r.stream_intact for r in runs.values())),
        ]


class Demo3(Experiment):
    name, section, seed = "demo3", "Demo 3", 5
    title = "failure-free overhead (bulk transfer and echo RTT)"
    MODES = (("on", "sttcp"), ("off", "baseline"))

    def runs(self, options, size=100_000_000):
        def case(mode, server, client, **kwargs):
            tb = build_testbed(seed=options.seed, mode=mode, cc=options.cc)
            watch = Watch(tb, options)
            server(tb.primary, "srv-p", port=80).start()
            target = tb.addresses.primary_ip
            if tb.pair is not None:
                server(tb.backup, "srv-b", port=80).start()
                tb.pair.start()
                target = tb.service_ip
            app = client(tb.client, "client", target, port=80, **kwargs)
            app.start()
            return _settle(tb, watch, options, app)

        runs = {f"sttcp_{on}": case(mode, FileServer, FileClient,
                                    file_size=size)
                for on, mode in self.MODES}
        # The per-request view: 64-byte echo round trips.
        runs.update({f"echo_{on}": case(mode, EchoServer, EchoClient,
                                        message_size=64,
                                        interval_ns=millis(10), count=200)
                     for on, mode in self.MODES})
        return runs

    @staticmethod
    def overhead(runs) -> float:
        on = runs["sttcp_on"].client.transfer_time_ns
        off = runs["sttcp_off"].client.transfer_time_ns
        return (on - off) / off

    @staticmethod
    def rtt_overhead(runs) -> float:
        on = runs["echo_on"].client.mean_rtt_ns
        off = runs["echo_off"].client.mean_rtt_ns
        return (on - off) / off

    def render(self, runs):
        on, off = runs["sttcp_on"].client, runs["sttcp_off"].client
        labels = ("ST-TCP enabled", "ST-TCP disabled")
        return _page(
            "Demo 3: overhead during failure-free operation",
            format_table(
                ["configuration",
                 f"{on.total_bytes / 1e6:.0f} MB transfer time", "goodput"],
                [[label, f"{c.transfer_time_ns / 1e9:.4f} s",
                  f"{c.throughput_mbps:.1f} Mbps"]
                 for label, c in zip(labels, (on, off))]),
            f"ST-TCP overhead: {self.overhead(runs) * 100:+.2f}%  "
            "(paper claim: negligible)",
            "",
            format_table(
                ["configuration", "64-byte echo mean RTT", "echoes"],
                [[label, f"{r.client.mean_rtt_ns / 1e6:.3f} ms",
                  f"{len(r.client.rtts_ns)}/{r.client.count}"]
                 for label, r in zip(labels, (runs["echo_on"],
                                              runs["echo_off"]))]),
            "",
            f"RTT overhead: {self.rtt_overhead(runs) * 100:+.2f}%")

    def claims(self, runs):
        transfers = (runs["sttcp_on"].client, runs["sttcp_off"].client)
        echoes = (runs["echo_on"].client, runs["echo_off"].client)
        return [
            ("both transfers deliver the whole file uncorrupted",
             all(c.received == c.total_bytes and c.corrupt_at is None
                 for c in transfers)),
            ("ST-TCP's overhead is under 2%", self.overhead(runs) < 0.02),
            ("every echo completes in both runs",
             all(len(c.rtts_ns) == c.count for c in echoes)),
            ("ST-TCP's echo round trip is under 2% longer",
             self.rtt_overhead(runs) < 0.02),
        ]


class Demo4(Experiment):
    name, section, seed = "demo4", "Demo 4", 5
    title = "application crash failures"

    def runs(self, options):
        return {fault: _failover(options, fault, config=_FIN_HOLD)
                for fault in ("app_hang_primary", "app_crash_fin_primary")}

    @staticmethod
    def fin_held(runs) -> bool:
        return runs["app_crash_fin_primary"].testbed.pair.primary.events.has(
            EventKind.FIN_HELD)

    def render(self, runs):
        hang = runs["app_hang_primary"]
        symptom = hang.testbed.pair.backup.events.first(
            EventKind.APP_FAILURE_DETECTED).detail["symptom"]
        rows = []
        for name, result, fin in (
                ("crash without cleanup (no FIN)", hang, "no FIN generated"),
                ("crash with OS cleanup (FIN)", runs["app_crash_fin_primary"],
                 "FIN held" if self.fin_held(runs) else "FIN NOT held")):
            rows.append([name,
                         format_duration(result.timeline.detection_latency_ns),
                         format_duration(result.timeline.failover_time_ns),
                         fin, _yes(result.stream_intact)])
        return _page(
            "Demo 4: application crash failures",
            format_table(["scenario", "detection", "failover time",
                          "FIN handling", "stream intact"], rows),
            f"detection criterion observed: {symptom}")

    def claims(self, runs):
        return [
            ("both streams are intact",
             all(r.stream_intact for r in runs.values())),
            ("the OS-generated FIN is held", self.fin_held(runs)),
        ]


class Demo5(Experiment):
    name, section, seed = "demo5", "Demo 5", 6
    title = "NIC failures"

    def runs(self, options):
        return {fault: _failover(options, fault)
                for fault in ("nic_failure_primary", "nic_failure_backup")}

    def render(self, runs):
        primary, backup = (runs["nic_failure_primary"],
                           runs["nic_failure_backup"])

        def diagnosis(engine):
            event = engine.events.first(EventKind.NIC_FAILURE_DETECTED)
            return (event.detail.get("symptom", "-") if event else "-")[:48]

        return _page(
            "Demo 5: NIC failures",
            format_table(
                ["failed NIC", "diagnosis", "recovery action",
                 "client-visible stall", "stream intact"],
                [["primary NIC", diagnosis(primary.testbed.pair.backup),
                  "backup takes over; primary powered down",
                  format_duration(primary.timeline.failover_time_ns),
                  _yes(primary.stream_intact)],
                 ["backup NIC", diagnosis(backup.testbed.pair.primary),
                  "primary goes non-FT; backup powered down",
                  format_duration(backup.glitch_ns),
                  _yes(backup.stream_intact)]]),
            "Both diagnoses used the serial-link HB exchange "
            "(IP HB down, serial HB up).")

    def claims(self, runs):
        primary = runs["nic_failure_primary"].testbed.pair
        backup = runs["nic_failure_backup"].testbed.pair
        return [
            ("both streams are intact",
             all(r.stream_intact for r in runs.values())),
            ("the backup takes over from a primary with a dead NIC",
             primary.backup.takeover_at is not None),
            ("the backup does not take over when its own NIC dies",
             backup.backup.takeover_at is None),
            ("the primary goes non-FT when the backup's NIC dies",
             backup.primary.mode == "non-fault-tolerant"),
        ]


class Table1(Experiment):
    name, section, seed = "table1", "Table 1", 3
    title = "the full single-failure matrix"
    #: Paper row and failure label per fault kind; the cells are ``FAULTS``.
    ROWS = {"hw_crash": ("1", "HW/OS crash"),
            "app_hang": ("2", "App failure (no FIN)"),
            "app_crash_fin": ("3", "App failure (FIN)"),
            "nic_failure": ("4", "NIC failure")}

    def runs(self, options):
        return {fault: _failover(options, fault, config=_FIN_HOLD)
                for fault in FAULTS}

    def render(self, runs):
        rows = []
        for fault, result in runs.items():
            kind, location = fault.rsplit("_", 1)
            timeline = result.timeline
            if timeline.takeover_at is not None:
                action = "backup takes over; primary shut down"
            elif timeline.non_ft_at is not None:
                action = "primary non-FT; backup shut down"
            else:
                action = "-"
            rows.append([*self.ROWS[kind], location.capitalize(),
                         timeline.detection_kind or "-", action,
                         _yes(result.stream_intact)])
        return _page("Table 1: single-failure scenarios", format_table(
            ["#", "failure", "location", "observed symptom",
             "recovery action taken", "client unaffected"], rows))

    def claims(self, runs):
        return [(f"{fault}: the client is unaffected", result.stream_intact)
                for fault, result in runs.items()]


class Table1Row5(Experiment):
    name, section, seed = "table1_row5", "Table 1 row 5, Sec. 4.3", 11
    title = "temporary network failure and missed-byte recovery"

    def runs(self, options):
        def case(interval_ms, count, config=None):
            tb, watch, _app = _served(options, EchoServer, config=config)
            client = EchoClient(tb.client, "client", tb.service_ip, port=80,
                                message_size=4096,
                                interval_ns=millis(interval_ms), count=count)
            client.start()
            tb.inject.loss_burst(seconds(1), millis(300),
                                 TransientLoss(tb.backup_cable, 0.7))
            return _settle(tb, watch, options, client)

        return {
            "moderate": case(8, 1500),     # ~4 Mbps upload
            # "Unable to catch up": a small extra receive buffer and a
            # slow fetch pipeline, hit by a fast upload.
            "overload": case(2, 3000, SttcpConfig(
                retain_buffer_bytes=786432, fetch_max_bytes_per_round=16384,
                fetch_round_interval_ns=millis(200))),
        }

    def render(self, runs):
        rows = []
        for label, run in (
                ("moderate upload (4 Mbps)", runs["moderate"]),
                ("16 Mbps upload, slow fetch, small retain",
                 runs["overload"])):
            events = run.testbed.pair.backup.events
            rows.append([label,
                         len(events.of_kind(EventKind.FETCH_REQUESTED)),
                         len(events.of_kind(EventKind.FETCH_RECOVERED)),
                         run.testbed.pair.primary.mode,
                         f"{len(run.client.rtts_ns)}/{run.client.count}"])
        return _page(
            "Table 1 row 5: temporary network failure at the backup",
            format_table(["client upload", "fetch rounds",
                          "chunks recovered", "primary mode after",
                          "echoes completed"], rows),
            "Moderate loss: the backup requests and receives missed bytes and",
            "the pair stays fault-tolerant.  Under sustained overload the",
            "backup cannot catch up and the primary (correctly, per Sec. 4.3)",
            "declares it failed and runs non-fault-tolerant.")

    def claims(self, runs):
        moderate = runs["moderate"].testbed.pair
        overload = runs["overload"].testbed.pair
        return [
            ("moderate loss: the backup recovers missed bytes",
             moderate.backup.events.has(EventKind.FETCH_RECOVERED)),
            ("moderate loss: the pair stays fault-tolerant",
             moderate.primary.mode == "fault-tolerant"),
            ("overload: the primary declares the backup failed",
             overload.primary.mode == "non-fault-tolerant"),
            ("every echo completes in both runs",
             all(len(r.client.rtts_ns) == r.client.count
                 for r in runs.values())),
        ]


class HbBandwidth(Experiment):
    name, section, seed = "hb_bandwidth", "Sec. 3", 17
    title = "heartbeat bandwidth on the serial link"
    WARMUP_S = 1.0
    run_until_s = WARMUP_S + 10.0

    def runs(self, options):
        tb, watch, _app = _served(options, StreamServer)
        clients = [StreamClient(tb.client, f"c{i}", tb.service_ip, port=80,
                                total_bytes=100_000_000,  # never finishes
                                request_chunk=4096) for i in range(8)]
        for client in clients:
            client.start()
        tb.run_until(self.WARMUP_S)   # connections up and replicated
        bytes_before = tb.pair.primary.hb.bytes_sent_serial
        t_before = tb.world.sim.now
        run = _settle(tb, watch, options, clients)
        run.extra.update(
            bytes=tb.pair.primary.hb.bytes_sent_serial - bytes_before,
            elapsed_s=(tb.world.sim.now - t_before) / 1e9)
        return {"streams": run}

    @staticmethod
    def bps_per_conn(run) -> float:
        return (run.extra["bytes"] * 8 / run.extra["elapsed_s"]
                / len(run.client))

    def render(self, runs):
        run = runs["streams"]
        per_conn_bps = self.bps_per_conn(run)
        # On-wire serial cost includes 8N1 framing (10 bits/byte).
        capacity = (SERIAL_DEFAULT_BAUD / (per_conn_bps * 10 / 8)
                    if per_conn_bps else 0)
        return _page(
            "Sec. 3: heartbeat bandwidth on the serial link",
            format_table(["quantity", "measured", "paper"], [
                ["HB bytes per connection", f"{PER_CONNECTION_BYTES} B",
                 "< 20 B (paper)"],
                ["HB bandwidth per connection",
                 f"{per_conn_bps / 1000:.2f} kbps", "0.8 kbps (paper)"],
                ["serial link capacity", f"{capacity:.0f} connections",
                 "~100 (paper)"]]),
            f"measured over {run.extra['elapsed_s']:.1f}s with "
            f"{len(run.client)} replicated connections "
            f"({run.extra['bytes']} HB bytes on the serial line)")

    def claims(self, runs):
        # Paper: 0.8 kbps per connection (plus a little per-message base).
        return [("the HB costs 0.4-1.6 kbps per connection",
                 400 <= self.bps_per_conn(runs["streams"]) <= 1600)]


class AblationDualHb(Experiment):
    name, section, seed = "ablation_dual_hb", "Sec. 3", 9
    title = "ablation A2: dual vs single heartbeat link"

    def runs(self, options):
        def case(use_serial_hb):
            tb, watch, _app = _served(
                options, StreamServer,
                config=SttcpConfig(use_serial_hb=use_serial_hb))
            client = _stream_client(tb, 30_000_000)
            tb.inject.at(seconds(1), NicFailure(tb.backup.nics[0]))
            return _settle(tb, watch, options, client)

        return {"dual": case(True), "single": case(False)}

    def render(self, runs):
        rows = []
        for label, run in (("dual links (IP + serial)", runs["dual"]),
                           ("single link (UDP only, old design)",
                            runs["single"])):
            tb = run.testbed
            rows.append([
                label,
                "yes" if tb.pair.backup.takeover_at is not None else "no",
                "primary (WRONG)" if tb.power_strip.was_powered_down(
                    "primary") else "backup (correct)",
                f"{run.client.received:,}/{run.client.total_bytes:,}"])
        return _page(
            "Ablation A2: dual vs single heartbeat link",
            format_table(["HB design", "backup took over",
                          "server powered down", "bytes delivered"], rows),
            "With one HB channel the deaf backup kills the healthy primary —",
            "exactly the scenario that motivated the serial link (Sec. 3).",
            preface=("Injected fault: backup NIC failure.", ""))

    def claims(self, runs):
        dual, single = runs["dual"], runs["single"]
        return [
            ("dual links: the backup does not take over",
             dual.testbed.pair.backup.takeover_at is None),
            ("dual links: the healthy primary stays up",
             not dual.testbed.power_strip.was_powered_down("primary")),
            ("dual links: the client gets every byte",
             dual.client.received == dual.client.total_bytes),
            ("single link: the deaf backup takes over",
             single.testbed.pair.backup.takeover_at is not None),
            ("single link: the healthy primary is powered down",
             single.testbed.power_strip.was_powered_down("primary")),
        ]


class AblationArchitecture(Experiment):
    name, section, seed = "ablation_architecture", "Sec. 3", 9
    title = "ablation A1: state via HB vs tapping primary->client"
    run_until_s = 90.0
    #: ~65% CPU at the unidirectional frame rate of a full-speed transfer,
    #: ~130% once the mirrored primary->client traffic is added.
    FRAME_COST_NS = 80_000

    def runs(self, options):
        def case(mirror):
            tb, watch, _app = _served(options, StreamServer,
                                      mirror_to_backup=mirror,
                                      backup_frame_cost_ns=self.FRAME_COST_NS)
            client = _stream_client(tb, 60_000_000)
            return _settle(tb, watch, options, client)

        return {"new": case(False), "old": case(True)}

    @staticmethod
    def fault_tolerant(run) -> bool:
        pair = run.testbed.pair
        return (pair.primary.mode == "fault-tolerant"
                and pair.backup.mode == "fault-tolerant")

    def render(self, runs):
        rows = []
        for label, run in (("new (state via HB)", runs["new"]),
                           ("old (tap primary->client)", runs["old"])):
            tb, client = run.testbed, run.client
            if tb.pair.primary.mode != "fault-tolerant":
                outcome = "backup declared failed"
            elif tb.pair.backup.mode != "fault-tolerant":
                outcome = "backup mistook lag for primary crash"
            else:
                outcome = "stayed fault-tolerant"
            # Utilization over the transfer itself, not the idle tail.
            active_ns = client.completed_at or tb.world.sim.now
            rows.append([label, tb.backup.cpu.jobs_run,
                         f"{tb.backup.cpu.utilization(active_ns):.0%}",
                         outcome, f"{client.received:,}"])
        return _page(
            "Ablation A1: old vs new ST-TCP architecture",
            format_table(["architecture", "backup frames processed",
                          "backup CPU load", "outcome", "bytes delivered"],
                         rows),
            "Mirroring the primary->client stream overloads the backup's CPU;",
            "it lags and is declared failed — the Sec. 3 problem the HB state",
            "exchange eliminated without extra hardware.",
            preface=(f"backup per-frame CPU cost: "
                     f"{self.FRAME_COST_NS / 1000:.0f} us", ""))

    def claims(self, runs):
        new, old = runs["new"], runs["old"]
        return [
            ("new architecture: the pair stays fault-tolerant",
             self.fault_tolerant(new)),
            ("old architecture: the pair degrades out of fault tolerance",
             not self.fault_tolerant(old)),
            ("old architecture: the backup processes more frames",
             old.testbed.backup.cpu.jobs_run
             > new.testbed.backup.cpu.jobs_run),
            ("the service delivers every byte in both",
             all(r.client.received == r.client.total_bytes
                 for r in runs.values())),
        ]


class AblationTakeoverKick(Experiment):
    name, section, seed = "ablation_takeover_kick", "Demo 2", 3
    title = "ablation: wait for the RTO vs retransmit at takeover"
    PERIODS_MS = (200, 1000)

    def runs(self, options):
        # Waiting is the default policy: those runs are Demo 2's.
        waited = EXPERIMENTS["demo2"].run(options)
        runs = {}
        for ms in self.PERIODS_MS:
            runs[f"hb_{ms}ms_wait"] = waited[f"hb_{ms}ms"]
            runs[f"hb_{ms}ms_kick"] = _failover(
                options, "hw_crash_primary", fault_at_s=2.0,
                config=SttcpConfig(hb_period_ns=millis(ms),
                                   kick_on_takeover=True))
        return runs

    def render(self, runs):
        rows = []
        for ms in self.PERIODS_MS:
            for policy, label in (("wait", "wait for RTO (paper)"),
                                  ("kick", "immediate retransmit")):
                timeline = runs[f"hb_{ms}ms_{policy}"].timeline
                rows.append([f"{ms} ms", label,
                             format_duration(timeline.detection_latency_ns),
                             format_duration(timeline.backoff_residue_ns),
                             format_duration(timeline.failover_time_ns)])
        return _page(
            "Ablation: takeover retransmission policy",
            format_table(["HB period", "takeover policy", "detection",
                          "residue", "failover time"], rows),
            "Kicking the retransmission at takeover removes the backoff",
            "residue, leaving detection time as the whole failover cost.")

    def claims(self, runs):
        claims = []
        for ms in self.PERIODS_MS:
            waited = runs[f"hb_{ms}ms_wait"].timeline
            kicked = runs[f"hb_{ms}ms_kick"]
            claims += [
                (f"{ms} ms: kicking never lengthens failover",
                 kicked.timeline.failover_time_ns <= waited.failover_time_ns),
                (f"{ms} ms: kicking shrinks the residue",
                 kicked.timeline.backoff_residue_ns
                 < waited.backoff_residue_ns),
                (f"{ms} ms: the kicked stream is intact",
                 kicked.stream_intact),
            ]
        return claims


class ExtensionLogger(Experiment):
    name, section, seed = "extension_logger", "Sec. 4.3", 21
    title = "extension: the output-commit stream logger"
    run_until_s = 120.0

    def runs(self, options):
        def case(with_logger):
            tb, watch, _app = _served(options, EchoServer)
            logger = tb.add_logger().logger if with_logger else None
            client = EchoClient(tb.client, "client", tb.service_ip, port=80,
                                message_size=4096, interval_ns=millis(4),
                                count=2000)
            client.start()
            tb.inject.loss_burst(seconds(1), millis(300),
                                 TransientLoss(tb.backup_cable, 0.8))
            tb.inject.at(seconds(1) + millis(250), HwCrash(tb.primary))
            return _settle(tb, watch, options, client, logger=logger)

        return {"base": case(False), "logger": case(True)}

    @staticmethod
    def unrecoverable(run) -> bool:
        return run.testbed.pair.backup.events.has(EventKind.UNRECOVERABLE)

    def render(self, runs):
        rows = []
        for label, run in (("base ST-TCP (no logger)", runs["base"]),
                           ("with stream logger", runs["logger"])):
            logger = run.extra["logger"]
            rows.append([label, "yes" if self.unrecoverable(run) else "no",
                         run.client.reset_count,
                         f"{len(run.client.rtts_ns)}/{run.client.count}",
                         logger.fetches_served if logger else "-"])
        return _page(
            "Extension: output-commit logger (Sec. 4.3)",
            format_table(["configuration", "declared unrecoverable",
                          "client resets", "echoes completed",
                          "logger fetches"], rows),
            "Without a logger the acked-but-missed bytes died with the primary",
            "(the paper's documented unrecoverable case); the logger re-supplies",
            "them and the connection survives the compound failure.",
            preface=("Fault: loss burst at the backup, primary crash "
                     "mid-recovery.", ""))

    def claims(self, runs):
        base, logged = runs["base"], runs["logger"]
        return [
            ("without a logger the connection is declared unrecoverable",
             self.unrecoverable(base)),
            ("without a logger the client is reset",
             base.client.reset_count >= 1),
            ("with a logger nothing is unrecoverable",
             not self.unrecoverable(logged)),
            ("with a logger every echo completes",
             len(logged.client.rtts_ns) == logged.client.count),
            ("the logger serves fetches",
             logged.extra["logger"].fetches_served > 0),
        ]


class ExtensionWatchdog(Experiment):
    name, section, seed = "extension_watchdog", "Sec. 4.2.2", 31
    title = "extension: an application watchdog on an idle connection"
    run_until_s = 20.0
    CRASH_AT_S = 2.0

    def runs(self, options):
        def case(with_watchdog):
            tb, watch, app = _served(options, StreamServer)
            if with_watchdog:
                tb.pair.primary.attach_watchdog(app, period_ns=millis(100))
            # Complete a small transfer, then leave the connection idle.
            client = _stream_client(tb, 10_000, close_when_complete=False)
            tb.world.sim.schedule_at(seconds(self.CRASH_AT_S),
                                     lambda: app.crash(cleanup=False))
            return _settle(tb, watch, options, client)

        return {"base": case(False), "watchdog": case(True)}

    def render(self, runs):
        rows = []
        for label, run in (
                ("TCP-layer detection only (paper base)", runs["base"]),
                ("with application watchdog", runs["watchdog"])):
            takeover = run.testbed.pair.backup.takeover_at
            observed_s = run.testbed.world.sim.now / 1e9
            rows.append([
                label,
                "yes" if takeover else f"no (within {observed_s:.0f}s)",
                format_duration(takeover - seconds(self.CRASH_AT_S)
                                if takeover else None)])
        return _page(
            "Extension: application watchdog (Sec. 4.2.2)",
            format_table(["configuration", "idle-app failure detected",
                          "detection latency"], rows),
            "With no socket activity the AppMaxLag criteria carry no signal;",
            "the watchdog closes exactly the gap the paper describes.",
            preface=("Fault: primary application hangs on an IDLE "
                     "connection.", ""))

    def claims(self, runs):
        return [
            ("without a watchdog the idle hang goes undetected",
             runs["base"].testbed.pair.backup.takeover_at is None),
            ("with a watchdog the backup takes over",
             runs["watchdog"].testbed.pair.backup.takeover_at is not None),
        ]


class CcFailover(Experiment):
    name, section, seed = "cc_failover", "Sec. 2", 3
    title = "failover under each congestion-control algorithm"

    def runs(self, options):
        # cc=None runs DEFAULT_CC, so that row is Demo 2's 200 ms run,
        # which Demo 2 keeps under cc=None.
        default = EXPERIMENTS["demo2"].run(options.with_(cc=None))
        return {cc: default["hb_200ms"] if cc == DEFAULT_CC
                else _failover(options.with_(cc=cc), "hw_crash_primary",
                               fault_at_s=2.0) for cc in cc_names()}

    def render(self, runs):
        def ms(ns):
            return f"{ns / 1e6:.3f}" if ns is not None else "-"

        rows = []
        for cc in sorted(runs):
            result = runs[cc]
            timeline = result.timeline
            resumed, takeover = (timeline.client_resumed_at,
                                 timeline.takeover_at)
            recovery = (resumed - takeover if resumed is not None
                        and takeover is not None else None)
            run_s = result.testbed.world.sim.now / 1e9
            goodput = result.client.received / 1e6 / run_s
            rows.append([cc, ms(timeline.failover_time_ns), ms(recovery),
                         f"{goodput:.3f}", _yes(result.stream_intact)])
        return _page(
            "Failover by congestion-control algorithm",
            format_table(["cc", "failover (ms)", "post-handoff recovery (ms)",
                          "goodput (MB/s)", "stream intact"], rows))

    def claims(self, runs):
        return [
            ("every algorithm keeps the stream intact",
             all(r.stream_intact for r in runs.values())),
            # Detection rides on heartbeats, not data.
            ("failover time does not depend on the algorithm",
             len({r.timeline.failover_time_ns for r in runs.values()}) == 1),
        ]


class CcIdent(Experiment):
    name, section, seed = "cc_ident", "extension", 3
    title = "identifying the congestion-control algorithm from its cwnd"
    SEEDS = 10
    TOTAL_BYTES, LOSS_RATE = 4_000_000, 0.01

    def runs(self, options):
        # The campaign's trials: each algorithm on SEEDS seeds derived
        # from the entry's seed.
        trials = expand(CampaignSpec(scenario="cc_ident",
                                     grid={"cc": cc_names()},
                                     trials=self.SEEDS, seed=options.seed))
        return {f"{t.params['cc']}_{t.index}": run_cc_ident(
            options.with_(seed=t.seed, cc=t.params["cc"]),
            total_bytes=self.TOTAL_BYTES, loss_rate=self.LOSS_RATE)
            for t in trials}

    @staticmethod
    def correct(runs) -> int:
        return sum(r.correct for r in runs.values())

    def render(self, runs):
        names = cc_names()
        rows = []
        for actual in names:
            guesses = [r.guess for r in runs.values() if r.actual == actual]
            rows.append([actual, *(guesses.count(g) for g in names),
                         f"{guesses.count(actual) / len(guesses):.0%}"])
        return _page(
            "CC identification from the sender's cwnd timeline",
            format_table(["actual \\ guessed", *names, "accuracy"], rows),
            f"overall: {self.correct(runs)}/{len(runs)} correct "
            f"({self.correct(runs) / len(runs):.1%}); the bar is 90%",
            preface=(f"{len(names)} algorithms x {self.SEEDS} seeds, "
                     f"{self.TOTAL_BYTES:,} bytes per run over a "
                     f"{self.LOSS_RATE:.0%}-loss link.", ""))

    def claims(self, runs):
        return [
            ("every algorithm is run",
             {r.actual for r in runs.values()} == set(cc_names())),
            ("the matrix covers at least 20 runs", len(runs) >= 20),
            ("at least 90% of runs are identified",
             self.correct(runs) >= 0.9 * len(runs)),
        ]
