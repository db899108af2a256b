"""Failure-detection primitives.

:class:`LagTracker` implements the two criteria of paper Sec. 4.2.1 for
one progress counter:

1. **byte lag** — the peer lags the local replica by at least
   ``AppMaxLagBytes``, continuously for a short confirmation window;
2. **time lag** — a particular byte processed locally has not been
   processed by the peer for ``AppMaxLagTime``.

The same class, with different thresholds, powers the NIC-failure
detection of Sec. 4.3 (client-byte and client-ack lag).

:class:`PingScoreboard` tracks the gateway-ping exchange of Sec. 4.3:
consecutive local successes vs consecutive peer failures.

:func:`classify` is paper Table 1's decision tree, written once for both
engines: it turns the link states, the ping asymmetry and the managed
connections' trackers into at most one :class:`Verdict`.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from repro.sim.world import World

__all__ = ["LagTracker", "PingScoreboard", "Verdict", "classify"]


class LagTracker:
    """Watches one (local, peer) counter pair for pathological lag."""

    def __init__(self, world: World, max_lag_bytes: int, max_lag_time_ns: int,
                 confirm_ns: int = 0, name: str = "lag"):
        self._world = world
        self.max_lag_bytes = max_lag_bytes
        self.max_lag_time_ns = max_lag_time_ns
        self.confirm_ns = confirm_ns
        self.name = name
        self._local = 0
        self._peer = 0
        # Byte-lag window: opened when the lag first exceeds the threshold;
        # the peer "clears" it by covering the distance the local replica
        # had when the window opened.  Heartbeat snapshots are one period
        # stale, so raw (local - peer) exceeds any reasonable threshold
        # permanently during fast bulk transfer — progress against a fixed
        # target is what distinguishes *slow* from *dead*.
        self._byte_lag_since: Optional[int] = None
        self._byte_lag_target = 0
        # When the peer counter last advanced while still behind the local.
        self._stalled_since: Optional[int] = None
        # Edge-trigger for the detect.verdict probe: fire once per episode.
        self._verdict_fired = False

    def update(self, local: int, peer: int) -> None:
        """Feed the latest counters (local from the live connection, peer
        from the most recent heartbeat)."""
        now = self._world.sim.now
        if peer > self._peer:
            self._peer = peer
            self._stalled_since = None
        self._local = max(self._local, local)
        lag = self._local - self._peer
        if self._byte_lag_since is not None and self._peer >= self._byte_lag_target:
            self._byte_lag_since = None  # peer covered the window's target
        if lag >= self.max_lag_bytes:
            if self._byte_lag_since is None:
                self._byte_lag_since = now
                self._byte_lag_target = self._local
        else:
            self._byte_lag_since = None
        if lag > 0:
            if self._stalled_since is None:
                self._stalled_since = now
        else:
            self._stalled_since = None

    @property
    def lag_bytes(self) -> int:
        """Current local-minus-peer counter difference."""
        return self._local - self._peer

    def verdict(self, evidence_time: Optional[int] = None) -> Optional[str]:
        """Reason string if a failure criterion is met, else None.

        ``evidence_time`` is the instant of the latest proof that the peer
        *machine* is alive (its last heartbeat).  A lag window only
        matures if the peer demonstrated liveness for the whole window
        while still failing to progress — otherwise a crashed peer's
        frozen counters would masquerade as application lag and preempt
        the (row 1) crash detector."""
        now = self._world.sim.now
        matured_by = min(now, evidence_time) if evidence_time is not None \
            else now
        if (self._byte_lag_since is not None
                and matured_by - self._byte_lag_since >= self.confirm_ns):
            return self._verdict_reached(
                f"{self.name}: peer lags by {self.lag_bytes} bytes "
                f">= AppMaxLagBytes={self.max_lag_bytes}")
        if (self._stalled_since is not None
                and matured_by - self._stalled_since >= self.max_lag_time_ns):
            return self._verdict_reached(
                f"{self.name}: byte {self._peer} unprocessed by peer for "
                f">= AppMaxLagTime ({self.max_lag_time_ns / 1e9:.1f}s)")
        self._verdict_fired = False
        return None

    def _verdict_reached(self, reason: str) -> str:
        """Fire the ``detect.verdict`` probe once per verdict episode."""
        if not self._verdict_fired:
            self._verdict_fired = True
            self._world.probes.fire("detect.verdict", self.name,
                                    reason=reason, lag=self.lag_bytes)
        return reason

    def reset(self) -> None:
        """Clear all windows/streaks."""
        self._byte_lag_since = None
        self._byte_lag_target = 0
        self._stalled_since = None
        self._verdict_fired = False


class PingScoreboard:
    """Gateway-ping outcomes: ours (direct) and the peer's (via serial HB)."""

    def __init__(self, fail_threshold: int):
        self.fail_threshold = fail_threshold
        self._local_ok_streak = 0
        self._local_fail_streak = 0
        self._peer_ok_streak = 0
        self._peer_fail_streak = 0

    def record_local(self, ok: bool) -> None:
        """Record the outcome of one of our own gateway pings."""
        if ok:
            self._local_ok_streak += 1
            self._local_fail_streak = 0
        else:
            self._local_fail_streak += 1
            self._local_ok_streak = 0

    def record_peer(self, ok: Optional[bool]) -> None:
        """Record the peer's latest reported ping outcome."""
        if ok is None:
            return
        if ok:
            self._peer_ok_streak += 1
            self._peer_fail_streak = 0
        else:
            self._peer_fail_streak += 1
            self._peer_ok_streak = 0

    @property
    def latest_local_ok(self) -> Optional[bool]:
        """Most recent local ping outcome (None before any)."""
        if self._local_ok_streak == 0 and self._local_fail_streak == 0:
            return None
        return self._local_ok_streak > 0

    def peer_nic_failed(self) -> bool:
        """True when we reach the gateway but the peer repeatedly cannot —
        the Sec. 4.3 criterion for 'the failure is at the peer'."""
        return (self._local_ok_streak >= self.fail_threshold
                and self._peer_fail_streak >= self.fail_threshold)

    def reset(self) -> None:
        """Clear all windows/streaks."""
        self._local_ok_streak = self._local_fail_streak = 0
        self._peer_ok_streak = self._peer_fail_streak = 0


class Verdict(NamedTuple):
    """Which detector found the peer failed, on which connection (None for
    the connection-less detectors), and what it saw."""

    detector: str
    key: Optional[tuple]
    symptom: str


def classify(ip_up: bool, serial_up: bool, peer_hb_fresh: bool,
             peer_nic_failed: bool, evidence_ns: Optional[int],
             conns: Iterable) -> Optional[Verdict]:
    """Table 1's decision tree: the first failure verdict, or None.

    1. Both HB links silent: the peer machine crashed (row 1).
    2. IP link silent, serial alive: a NIC failed (row 4), and Sec. 4.3's
       criteria decide whose — per connection the NIC trackers, then the
       gateway-ping asymmetry.  App lag is not asked: divergence is the
       expected symptom of a NIC failure.
    3. Otherwise, while the peer's heartbeats are fresh, per connection
       the app trackers (rows 2 and 3), then the FIN rule (Sec. 4.2.2).

    Each connection of ``conns`` (dict order) brings its ``key``, its
    ``nic_trackers`` and ``app_trackers`` tuples, ``refresh_nic()`` and
    ``refresh_app()`` to fold its peer's latest progress into them, and
    ``fin_verdict()``.  Connections are asked lazily and the first answer
    wins: :meth:`LagTracker.verdict` fires ``detect.verdict`` and re-arms
    its edge trigger, so which trackers are asked is part of the result.
    """
    if not ip_up:
        if not serial_up:
            return Verdict("hb-silence", None, "HB failure on both links")
        for mc in conns:
            mc.refresh_nic()
            for tracker in mc.nic_trackers:
                symptom = tracker.verdict(evidence_ns)
                if symptom is not None:
                    return Verdict("nic-lag", mc.key, symptom)
        if peer_nic_failed:
            return Verdict("ping-asymmetry", None,
                           "gateway pings failing, ours succeed")
        return None
    if not peer_hb_fresh:
        return None  # silence is the crash detector's evidence, not ours
    for mc in conns:
        mc.refresh_app()
        for tracker in mc.app_trackers:
            symptom = tracker.verdict(evidence_ns)
            if symptom is not None:
                return Verdict("app-lag", mc.key, symptom)
        symptom = mc.fin_verdict()
        if symptom is not None:
            return Verdict("fin-disagreement", mc.key, symptom)
    return None
