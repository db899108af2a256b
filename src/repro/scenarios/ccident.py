"""CC identification: classify a run's congestion-control algorithm from
its cwnd timeline (cf. "TCP Congestion Control Identification", PAPERS.md).

The scenario streams data over a deterministically lossy link (the
per-cable RNG stream makes the loss pattern a pure function of the world
seed), records the sender's ``tcp.segment_tx`` / ``tcp.retransmit``
probes, and classifies the algorithm from three trajectory fingerprints:

* **post-loss collapse** — Tahoe's fast retransmit leaves ``cwnd`` at one
  MSS (every other algorithm sits at ``ssthresh + 3*MSS``);
* **partial-ack retransmits** — NewReno retransmits the next hole from
  the new-ack path, after deflation, so the retransmission's tx row shows
  ``cwnd != ssthresh + 3*MSS``; Reno/CUBIC head retransmissions are all
  recovery *entries*, pinned at exactly ``ssthresh + 3*MSS``;
* **deflation ratio** — CUBIC's multiplicative decrease is ``0.7 * cwnd``
  where the Reno family uses ``flight/2``; both ``cwnd`` and ``flight``
  are copied off the sender at every tx, so each loss episode votes for
  the closer model.

Run it standalone via :func:`run_cc_ident`, or as the ``cc_ident``
campaign scenario (``python -m repro sweep --scenario cc_ident --grid
cc=tahoe,reno,newreno,cubic --trials N``).  The accuracy matrix over
every algorithm and ten seeds is the ``cc_ident`` experiment
(``python -m repro cc_ident``, ``benchmarks/results/cc_ident.txt``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.apps.streaming import StreamClient, StreamServer
from repro.obs.export import ObsSession
from repro.scenarios.builder import build_testbed
from repro.scenarios.options import RunOptions
from repro.scenarios.runner import Watch
from repro.tcp.connection import TcpConfig

__all__ = ["CcIdentResult", "run_cc_ident", "extract_features",
           "classify_features"]

#: Fraction of head retransmissions at ~1 MSS that reads as Tahoe.
TAHOE_COLLAPSE_FRACTION = 0.5
#: Head retransmissions off the entry window needed to read as NewReno.
#: The signature is structural — Reno/CUBIC fast retransmissions are all
#: recovery entries, pinned at exactly ``ssthresh + 3*MSS`` — so a single
#: occurrence is decisive.
PARTIAL_ACK_MIN = 1


@dataclass
class CcIdentResult:
    """One identification run: the guess and the evidence behind it."""

    actual: str
    guess: str
    features: dict = field(default_factory=dict)
    bytes_received: int = 0
    #: Attached when the run had ``options.obs_level`` set.
    obs: Optional[ObsSession] = None

    @property
    def correct(self) -> bool:
        return self.guess == self.actual


def extract_features(events: list) -> dict:
    """Reduce an ordered ``("tx"|"rtx", fields)`` probe stream to the
    classifier's feature dict.  A tx entry's fields are the sender's
    ``cwnd``/``ssthresh``/``flight``/``mss`` as the segment left; an rtx
    entry's are the ``tcp.retransmit`` fields.

    A *loss episode* is one ``kind="head"`` retransmission: its tx row
    (fired immediately after, same instant) carries the post-loss
    ``cwnd``/``ssthresh``, and the last ordinary tx row before it carries
    the pre-loss ``cwnd``/``flight``.
    """
    mss = next((f["mss"] for k, f in events if k == "tx"), 1460)
    episodes = []
    last_tx = None
    pending = None
    rto_count = 0
    for kind, f in events:
        if kind == "rtx":
            if f["kind"] == "head":
                pending = {
                    "off": f["off"],
                    "cwnd_before": last_tx["cwnd"] if last_tx else 0,
                    "flight_before": last_tx["flight"] if last_tx else 0,
                }
            else:
                rto_count += 1
            continue
        if pending is not None:
            pending["ssthresh"] = f["ssthresh"]
            pending["cwnd_after"] = f["cwnd"]
            episodes.append(pending)
            pending = None
        else:
            last_tx = f

    n = len(episodes)
    collapsed = sum(1 for e in episodes
                    if e["cwnd_after"] <= 1.5 * mss)
    # NewReno evidence: a recovery *entry* pins the retransmission's
    # window at exactly ssthresh + 3*MSS (the dupack-threshold inflation);
    # a partial-ack retransmission fires after deflation, anywhere else.
    # Tahoe's collapsed rows are excluded — tahoe is decided first.
    uncollapsed = [e for e in episodes if e["cwnd_after"] > 1.5 * mss]
    partials = sum(
        1 for e in uncollapsed
        if e["cwnd_after"] != e["ssthresh"] + 3 * mss)
    # Deflation-ratio vote on the entry episodes: is the new ssthresh
    # closer to CUBIC's 0.7*cwnd or to Reno's flight/2?  Floor-clamped
    # values (<= 2 MSS) collide for every algorithm and carry no signal.
    cubic_votes = reno_votes = 0
    for e in uncollapsed:
        if e["ssthresh"] <= 2 * mss or not e["cwnd_before"]:
            continue
        d_cubic = abs(e["ssthresh"] - int(0.7 * e["cwnd_before"]))
        d_reno = abs(e["ssthresh"] - e["flight_before"] // 2)
        if d_cubic < d_reno:
            cubic_votes += 1
        elif d_reno < d_cubic:
            reno_votes += 1
    return {
        "mss": mss,
        "episodes": n,
        "rto_count": rto_count,
        "collapse_fraction": round(collapsed / n, 4) if n else 0.0,
        "partial_retransmits": partials,
        "cubic_votes": cubic_votes,
        "reno_votes": reno_votes,
    }


def classify_features(features: dict) -> str:
    """Decision tree over :func:`extract_features` output."""
    if not features["episodes"]:
        return "reno"  # no loss evidence: the default is the best prior
    if features["collapse_fraction"] >= TAHOE_COLLAPSE_FRACTION:
        return "tahoe"
    if features["partial_retransmits"] >= PARTIAL_ACK_MIN:
        return "newreno"
    if features["cubic_votes"] > features["reno_votes"]:
        return "cubic"
    return "reno"


def run_cc_ident(options: RunOptions, total_bytes: int = 4_000_000,
                 loss_rate: float = 0.01) -> CcIdentResult:
    """Stream ``total_bytes`` under ``options.cc`` over a lossy link, then
    guess the algorithm back from the sender's timeline alone.

    The testbed is the baseline (no ST-TCP) Figure-2 topology; the client
    talks straight to the primary's own address, and the primary's cable
    drops frames at ``loss_rate`` from its deterministic per-cable RNG
    stream.  Equal options give byte-identical runs; ``cc=None`` runs the
    ``TcpConfig`` default, reno.

    The buffers are enlarged past the Figure-2 default 64 KiB so the
    window can grow wide enough for multi-loss flights — the situation
    that separates NewReno's partial-ack retransmit from Reno's
    wait-for-more-dupacks.
    """
    tcp_config = TcpConfig(send_buffer_bytes=262144,
                           recv_buffer_bytes=262144)
    tb = build_testbed(seed=options.seed, mode="baseline", cc=options.cc,
                       tcp_config=tcp_config)
    tb.cables["primary"].loss_rate = loss_rate
    watch = Watch(tb, options)

    events: list = []

    def on_tx(event) -> None:
        # The connection is live: copy its sender state now, or every
        # row would read the connection's final state.
        if event.source.startswith("primary."):
            conn = event.fields["conn"]
            events.append(("tx", {"cwnd": conn.cc.cwnd,
                                  "ssthresh": conn.cc.ssthresh,
                                  "flight": conn.flight_size,
                                  "mss": conn.config.mss}))

    def on_rtx(event) -> None:
        if event.source.startswith("primary."):
            events.append(("rtx", event.fields))

    tb.world.probes.subscribe("tcp.segment_tx", on_tx)
    tb.world.probes.subscribe("tcp.retransmit", on_rtx)

    StreamServer(tb.primary, "server-primary", port=80).start()
    client = StreamClient(tb.client, "client", tb.addresses.primary_ip,
                          port=80, total_bytes=total_bytes)
    client.start()
    tb.run_until(options.run_until_s)
    watch.close()

    features = extract_features(events)
    return CcIdentResult(actual=options.cc or tcp_config.cc,
                         guess=classify_features(features),
                         features=features,
                         bytes_received=client.received, obs=watch.obs)
