"""The operating-system model.

Thin by design: the OS is where the paper's failure taxonomy draws its
lines (HW crash vs OS crash vs app crash with/without cleanup), so this
module exists to make scenarios read like Table 1 rows rather than to
simulate scheduling.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.host.app import Application
    from repro.host.host import Host

__all__ = ["OperatingSystem"]


class OperatingSystem:
    """Per-host OS: app lifecycle and crash semantics."""

    def __init__(self, host: "Host"):
        self._host = host
        self.crashed = False

    def crash(self) -> None:
        """Kernel panic: the whole machine stops instantly.

        At the abstraction level of ST-TCP this is indistinguishable from a
        hardware crash (Table 1 row 1 treats HW/OS failure as one symptom):
        no FIN, no HB, silence on every interface.
        """
        self.crashed = True
        self._host.world.probes.fire("fault.os-crash", self._host.name,
                                     "OS crashed")
        self._host.power_off(reason="OS crash")

    def hang_app(self, app: "Application") -> None:
        """The app wedges (infinite loop / lost thread): no cleanup, sockets
        stay open, no FIN (paper Sec. 4.2.1)."""
        app.crash(cleanup=False)
