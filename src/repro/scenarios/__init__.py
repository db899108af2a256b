"""Scenario construction: the Figure-2 testbed, canned experiment runners,
the shared :class:`RunOptions` surface, and the non-ST-TCP baselines.

This module is the public face of the experiment layer: build a testbed
with :func:`build_testbed` (``mode="sttcp"`` / ``"baseline"``,
``num_clients=N``), run a canned experiment with
:func:`run_failover_experiment` / :func:`run_baseline_failover`, and
steer any runner with one :class:`RunOptions` value.  Many-connection
workloads live next door in :mod:`repro.workloads`.
"""

from repro.scenarios.baselines import ReconnectingStreamClient
from repro.scenarios.builder import (
    Addresses,
    LoggerAttachment,
    Testbed,
    build_testbed,
)
from repro.scenarios.options import RunOptions
from repro.scenarios.runner import (
    BaselineResult,
    FailoverResult,
    run_baseline_failover,
    run_failover_experiment,
)

__all__ = [
    "Addresses",
    "BaselineResult",
    "FailoverResult",
    "LoggerAttachment",
    "ReconnectingStreamClient",
    "RunOptions",
    "Testbed",
    "build_testbed",
    "run_baseline_failover",
    "run_failover_experiment",
]
