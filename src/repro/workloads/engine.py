"""The workload engine: many concurrent connections with arrival churn.

A :class:`WorkloadSpec` describes the offered load (how many connections,
of which kind, how big, arriving how fast); the :class:`WorkloadEngine`
schedules the arrivals on the testbed's client hosts (round-robin),
tracks one :class:`ConnectionRecord` per connection, and scores each for
*intactness* — did every byte arrive exactly once, in order, with no
reset — which is the per-connection version of the paper's headline
"client doesn't notice the failover" property.

Arrival times are drawn from a named RNG stream
(``workload.arrivals``), so the same seed gives a byte-identical run and
adding other randomness consumers never perturbs the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.kvstore import KvClient
from repro.apps.streaming import StreamClient
from repro.host.host import Host
from repro.sim.core import NS_PER_S, millis, seconds

__all__ = ["WorkloadSpec", "ConnectionRecord", "WorkloadEngine"]

KINDS = ("stream", "kv")


@dataclass(frozen=True)
class WorkloadSpec:
    """The offered load, independent of any particular testbed.

    ``kind``
        ``"stream"`` — each connection is a :class:`StreamClient`
        downloading ``bytes_per_conn`` pattern bytes; ``"kv"`` — each
        connection is a :class:`KvClient` running a scripted, per-
        connection-namespaced SET/GET sequence with computable replies.
    ``connections``
        Total connections opened over the run.
    ``start_s`` / ``mean_interarrival_s``
        First arrival (absolute virtual time) and the mean of the
        exponential interarrival gaps — the churn knob.  Connections
        close as they complete, so the live population rises and falls.
    ``port``
        Service port; ``None`` means the testbed's tapped service port.
    """

    kind: str = "stream"
    connections: int = 64
    bytes_per_conn: int = 100_000
    request_chunk: int = 0
    kv_ops: int = 10
    kv_interval_ns: int = millis(2)
    start_s: float = 0.1
    mean_interarrival_s: float = 0.02
    port: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.connections < 1:
            raise ValueError(f"connections must be >= 1, got {self.connections}")


def kv_script(index: int, ops: int) -> tuple[list[bytes], list[bytes]]:
    """The scripted command sequence for kv connection ``index`` and the
    replies a correct (state-intact) server must produce.  Keys are
    namespaced per connection, so concurrent connections never interact
    and the expected replies are computable up front."""
    commands: list[bytes] = []
    expected: list[bytes] = []
    for op in range(ops):
        key = b"wl%d.k%d" % (index, op)
        value = b"v%d.%d" % (index, op)
        commands.append(b"SET %s %s" % (key, value))
        expected.append(b"OK")
    for op in range(ops):
        key = b"wl%d.k%d" % (index, op)
        commands.append(b"GET %s" % key)
        expected.append(b"VALUE v%d.%d" % (index, op))
    return commands, expected


class ConnectionRecord:
    """One workload connection's lifecycle and verdict."""

    __slots__ = ("index", "host_name", "kind", "opened_at_ns",
                 "completed_at_ns", "app", "expected_replies")

    def __init__(self, index: int, host_name: str, kind: str,
                 opened_at_ns: int):
        self.index = index
        self.host_name = host_name
        self.kind = kind
        self.opened_at_ns = opened_at_ns
        self.completed_at_ns: Optional[int] = None
        self.app = None
        self.expected_replies: Optional[list[bytes]] = None

    @property
    def completed(self) -> bool:
        """True once the connection finished its whole script/transfer."""
        return self.completed_at_ns is not None

    @property
    def stream_intact(self) -> bool:
        """The per-connection headline property: the full payload arrived
        exactly once, in order, uncorrupted, with no reset."""
        app = self.app
        if app is None or app.reset_count != 0:
            return False
        if self.kind == "stream":
            return (app.received == app.total_bytes
                    and app.corrupt_at is None)
        return app.done and app.replies == self.expected_replies

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        verdict = "intact" if self.stream_intact else "NOT-intact"
        return (f"<ConnectionRecord #{self.index} {self.kind} "
                f"on {self.host_name} {verdict}>")


class WorkloadEngine:
    """Opens the spec'd connections against the testbed and keeps score."""

    def __init__(self, testbed, spec: WorkloadSpec, monitor=None):
        self.testbed = testbed
        self.spec = spec
        #: Optional ClientStreamMonitor fed by every stream connection
        #: (aggregate arrival curve — the many-connection "pie chart").
        self.monitor = monitor
        self.records: list[ConnectionRecord] = []
        self._rng = testbed.world.rng.stream("workload.arrivals")
        self._port = spec.port if spec.port is not None else (
            testbed.pair.config.service_port if testbed.pair is not None
            else 80)
        self._started = False

    def start(self) -> None:
        """Schedule every arrival (exponential interarrival gaps),
        round-robin over the testbed's client hosts."""
        if self._started:
            raise RuntimeError("WorkloadEngine.start() called twice")
        self._started = True
        sim = self.testbed.world.sim
        clients = self.testbed.clients
        at = max(sim.now, seconds(self.spec.start_s))
        for index in range(self.spec.connections):
            host = clients[index % len(clients)]
            record = ConnectionRecord(index, host.name, self.spec.kind, at)
            self.records.append(record)
            sim.schedule_at(at, self._open, record, host,
                            label="workload.open")
            gap_s = self._rng.expovariate(1.0 / self.spec.mean_interarrival_s)
            at += max(1, round(gap_s * NS_PER_S))

    # ------------------------------------------------------------ internals

    def _open(self, record: ConnectionRecord, host: Host) -> None:
        service_ip = self.testbed.service_ip
        if record.kind == "stream":
            app = StreamClient(
                host, f"wl{record.index}", service_ip, port=self._port,
                total_bytes=self.spec.bytes_per_conn,
                request_chunk=self.spec.request_chunk,
                monitor=self.monitor,
                on_complete=lambda: self._completed(record),
                close_when_complete=True)
        else:
            commands, expected = kv_script(record.index, self.spec.kv_ops)
            record.expected_replies = expected
            app = KvClient(
                host, f"wl{record.index}", service_ip, port=self._port,
                commands=commands, interval_ns=self.spec.kv_interval_ns,
                on_complete=lambda: self._completed(record))
        record.app = app
        app.start()

    def _completed(self, record: ConnectionRecord) -> None:
        record.completed_at_ns = self.testbed.world.sim.now
        app = record.app
        # Kv connections stay open after their script; close to churn.
        if (record.kind == "kv" and app.sock is not None
                and app.sock.is_open):
            app.sock.close()

    # -------------------------------------------------------------- verdict

    @property
    def completed_count(self) -> int:
        """Connections that finished their transfer/script."""
        return sum(1 for r in self.records if r.completed)

    @property
    def intact_count(self) -> int:
        """Connections whose stream survived intact (see
        :attr:`ConnectionRecord.stream_intact`)."""
        return sum(1 for r in self.records if r.stream_intact)

    @property
    def all_intact(self) -> bool:
        """True when *every* connection completed with its stream intact."""
        return all(r.completed and r.stream_intact for r in self.records)

    def summary(self) -> dict:
        """A small, JSON-friendly scorecard."""
        return {
            "kind": self.spec.kind,
            "connections": len(self.records),
            "clients": len(self.testbed.clients),
            "completed": self.completed_count,
            "intact": self.intact_count,
            "all_intact": self.all_intact,
        }
