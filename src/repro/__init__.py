"""ST-TCP — Server fault-Tolerant TCP (DSN 2005), reproduced in full on a
deterministic discrete-event network simulator.

The package layers exactly as the paper's system does:

- :mod:`repro.sim` — deterministic event kernel (int-ns clock, world, RNG);
- :mod:`repro.net` — Ethernet switch/NICs/cables, ARP (static + dynamic),
  IP with aliasing, ICMP, UDP, RS-232 serial link;
- :mod:`repro.tcp` — a full TCP (handshake, Reno, RTO backoff, FIN/RST);
- :mod:`repro.host` — machines, OS, applications, CPU, power (STONITH);
- :mod:`repro.sttcp` — **the contribution**: dual-link heartbeat, replica
  tap with output suppression, ISN matching, retain-buffer + missed-byte
  fetch, Table-1 failure detection, seamless takeover;
- :mod:`repro.faults` — injection of every Table-1 single failure;
- :mod:`repro.apps` — deterministic demo applications;
- :mod:`repro.scenarios` — the Figure-2 testbed and experiment runners;
- :mod:`repro.metrics` — stream monitors, failover timelines, reports.

Quickstart::

    from repro.scenarios import build_testbed
    from repro.apps import StreamServer, StreamClient
    from repro.faults import HwCrash
    from repro.sim import seconds

    tb = build_testbed(seed=1)
    StreamServer(tb.primary, "srv-p").start()   # the service...
    StreamServer(tb.backup, "srv-b").start()    # ...and its replica
    tb.pair.start()                             # ST-TCP on
    client = StreamClient(tb.client, "c", tb.service_ip,
                          total_bytes=50_000_000)
    client.start()
    tb.inject.at(seconds(2), HwCrash(tb.primary))
    tb.run_until(30)
    assert client.received == client.total_bytes   # seamless failover
"""

__version__ = "1.0.0"

from repro.errors import (
    ConfigurationError,
    ReproError,
    SttcpError,
    TcpConnectionReset,
    TcpError,
    UnrecoverableFailureError,
)

__all__ = [
    "ConfigurationError",
    "ReproError",
    "SttcpError",
    "TcpConnectionReset",
    "TcpError",
    "UnrecoverableFailureError",
    "__version__",
]
