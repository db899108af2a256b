"""One options surface for every experiment runner.

Before this module each runner (and each CLI demo) grew its own ad-hoc
keyword set — ``seed=...``, ``obs_level=...``, ``check=...``,
``run_until_s=...`` — repeated and occasionally drifting.  A single
:class:`RunOptions` value now travels through
:func:`repro.scenarios.runner.run_failover_experiment`,
:func:`repro.scenarios.runner.run_baseline_failover`,
:func:`repro.workloads.runner.run_workload_failover` and the CLI, so an
experiment's "how to run" is one composable object instead of a keyword
cloud.  ``options=RunOptions(...)`` is the only run API: the old
per-runner keyword shims (and their ``resolve_run_options`` merger) were
removed after their deprecation release.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.obs.export import OBS_LEVELS
from repro.tcp.congestion import CC_ALGORITHMS

__all__ = ["RunOptions"]


@dataclass(frozen=True)
class RunOptions:
    """How to run an experiment — everything that is not *what* to run.

    ``seed``
        World RNG seed; equal seeds give byte-identical runs.
    ``run_until_s``
        Absolute virtual time to run the world to.
    ``obs_level``
        ``None`` (no observability session) or one of
        :data:`repro.obs.export.OBS_LEVELS`; when set, the runner attaches
        an :class:`~repro.obs.export.ObsSession` and returns it finalized.
    ``check``
        Attach the :class:`~repro.check.oracle.InvariantOracle` for the
        whole run and raise on any violation.
    ``cc``
        Congestion-control algorithm for every TCP endpoint in the
        testbed: ``None`` (keep whatever the supplied ``TcpConfig`` says —
        the default config says ``"reno"``) or a registered name from
        :func:`repro.tcp.congestion.cc_names`.
    ``gc_freeze``
        After the testbed is built (or supplied), collect once and
        ``gc.freeze()`` the surviving heap into the permanent generation
        (:func:`repro.sim.gcctl.freeze_baseline`).  Only for runs whose
        testbed lives until the process exits — benchmarks, one-shot CLI
        experiments; frozen cycles are never reclaimed, so per-trial
        loops must leave this off.
    """

    seed: int = 3
    run_until_s: float = 60.0
    obs_level: Optional[str] = None
    check: bool = False
    cc: Optional[str] = None
    gc_freeze: bool = False

    def __post_init__(self) -> None:
        if self.obs_level is not None and self.obs_level not in OBS_LEVELS:
            raise ValueError(
                f"obs_level must be None or one of {OBS_LEVELS}, "
                f"got {self.obs_level!r}")
        if self.cc is not None and self.cc not in CC_ALGORITHMS:
            raise ValueError(
                f"cc must be None or one of "
                f"{sorted(CC_ALGORITHMS)}, got {self.cc!r}")

    def with_(self, **changes) -> "RunOptions":
        """A copy with the given fields replaced."""
        return replace(self, **changes)
