"""Application base class.

ST-TCP assumes server applications are *deterministic*: given the same
input TCP stream, the primary's application and its replica on the backup
produce byte-identical output (paper Sec. 2).  Subclasses get:

* tracked sockets (so the OS model can clean them up on a crash);
* tracked timers (``after``/``every``) that stop when the app dies;
* the two crash modes of paper Sec. 4.2 via :meth:`crash`:
  ``cleanup=False`` (app hangs, socket stays open, no FIN) and
  ``cleanup=True`` (OS closes the socket, generating a FIN).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.sim.timers import PeriodicTimer, Timer
from repro.tcp.sockets import Socket

if TYPE_CHECKING:  # pragma: no cover
    from repro.host.host import Host

__all__ = ["Application"]


class Application:
    """Base class for simulated applications."""

    def __init__(self, host: "Host", name: str):
        self.host = host
        self.world = host.world
        self.name = name
        self.running = False
        self.crashed = False
        # Cached is_alive: every transition (start/stop/crash/host down)
        # funnels through a method below, so guards read one bool per
        # socket event instead of walking two property chains.
        self.alive = False
        self.crash_had_cleanup: Optional[bool] = None
        self._sockets: list[Socket] = []
        self._timers: list = []
        host.register_app(self)

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Begin operation (listen/connect).  Idempotent."""
        if self.running:
            return
        self.running = True
        self.alive = not self.crashed and self.host.is_up
        self.on_start()

    def on_start(self) -> None:
        """Subclass hook: set up listeners/connections/timers."""

    def crash(self, cleanup: bool) -> None:
        """Application crash (paper Sec. 4.2).

        ``cleanup=False``: the app hangs/dies silently — it stops reading,
        writing and ticking, but its sockets remain open at the TCP layer
        (no FIN is generated).

        ``cleanup=True``: the OS reaps the process and closes its sockets,
        so TCP generates a FIN (e.g. a SEGV-killed process).
        """
        if self.crashed:
            return
        self.crashed = True
        self.running = False
        self.alive = False
        self.crash_had_cleanup = cleanup
        self._stop_timers()
        self.on_crash()
        self.world.probes.fire("fault.app-crash", self.name,
                               "application crashed", cleanup=cleanup)
        if cleanup:
            # OS-side cleanup: close every socket the process owned.  The
            # FIN this generates is exactly what ST-TCP must intercept.
            for sock in list(self._sockets):
                if sock.is_open:
                    sock.close()

    def on_crash(self) -> None:
        """Subclass hook: extra teardown on crash (rarely needed)."""

    def stop(self) -> None:
        """Orderly shutdown: stop timers; sockets are closed by subclasses."""
        self.running = False
        self.alive = False
        self._stop_timers()

    def host_went_down(self) -> None:
        """Called by the host on power-off / OS crash."""
        self.running = False
        self.alive = False
        self._stop_timers()

    @property
    def is_alive(self) -> bool:
        """True while the app runs on a healthy, powered host."""
        return self.running and not self.crashed and self.host.is_up

    # ------------------------------------------------------------- helpers

    def track_socket(self, sock: Socket) -> Socket:
        """Register a socket so crash-with-cleanup can close it."""
        self._sockets.append(sock)
        return sock

    def untrack_socket(self, sock: Socket) -> None:
        """Forget a socket (it will not be closed on cleanup-crash)."""
        if sock in self._sockets:
            self._sockets.remove(sock)

    @property
    def sockets(self) -> list[Socket]:
        """Snapshot of the sockets this application owns."""
        return list(self._sockets)

    def after(self, delay_ns: int, fn: Callable[[], None]) -> Timer:
        """One-shot timer that dies with the application."""
        timer = Timer(self.world.sim, self._guarded(fn),
                      label=f"{self.name}.after")
        timer.start(delay_ns)
        self._timers.append(timer)
        return timer

    def every(self, period_ns: int, fn: Callable[[], None],
              fire_immediately: bool = False) -> PeriodicTimer:
        """Periodic timer that dies with the application."""
        timer = PeriodicTimer(self.world.sim, self._guarded(fn), period_ns,
                              label=f"{self.name}.every")
        timer.start(fire_immediately=fire_immediately)
        self._timers.append(timer)
        return timer

    def _guarded(self, fn: Callable[[], None]) -> Callable[[], None]:
        def run() -> None:
            """Invoke ``fn`` only while the application is alive."""
            if self.alive:
                fn()
        return run

    def guard_callback(self, fn: Callable) -> Callable:
        """Wrap a socket callback so it is ignored once the app is dead —
        a hung process does not service socket events."""
        def run(*args, **kwargs):
            """Invoke ``fn`` only while the application is alive."""
            if self.alive:
                return fn(*args, **kwargs)
        return run

    def _stop_timers(self) -> None:
        for timer in self._timers:
            timer.stop()
        self._timers.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("crashed" if self.crashed
                 else "running" if self.running else "stopped")
        return f"<{type(self).__name__} {self.name} {state}>"
