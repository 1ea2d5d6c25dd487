"""Heartbeat watchdog for the obfuscator's userspace daemon.

The daemon bumps a logical heartbeat every time it computes a noise
window. The watchdog is polled from the protection service's control
loop (the simulation's equivalent of a systemd watchdog timer): when
the heartbeat stops advancing for ``stale_polls`` consecutive polls the
daemon is declared stale and restarted in place — the kernel module is
re-armed, the precomputed noise buffer is dropped (it will refill
before the next release, never after it), and the restart lands in
``daemon.restarts`` telemetry. Logical polls instead of wall-clock
keep the state machine deterministic and testable.
"""

from __future__ import annotations

import logging

from repro.telemetry import runtime as telemetry

logger = logging.getLogger(__name__)


class DaemonWatchdog:
    """Monitors a :class:`~repro.core.obfuscator.daemon.UserspaceDaemon`.

    Parameters
    ----------
    daemon:
        Anything with a monotonically increasing ``heartbeat`` integer
        and a ``restart()`` method.
    stale_polls:
        Consecutive polls without heartbeat progress before the daemon
        is restarted.
    """

    def __init__(self, daemon, stale_polls: int = 2) -> None:
        if stale_polls < 1:
            raise ValueError(f"stale_polls must be >= 1, got {stale_polls}")
        self.daemon = daemon
        self.stale_polls = stale_polls
        self.restarts = 0
        self._last_beat = int(daemon.heartbeat)
        self._stale = 0

    def poll(self) -> bool:
        """One watchdog tick. Returns True while the daemon is healthy.

        A stale daemon (no heartbeat progress for ``stale_polls``
        polls) is restarted and the poll reports False once; the next
        poll starts a fresh staleness window.
        """
        beat = int(self.daemon.heartbeat)
        if beat != self._last_beat:
            self._last_beat = beat
            self._stale = 0
            return True
        self._stale += 1
        if self._stale < self.stale_polls:
            return True
        self.restart()
        return False

    def restart(self) -> None:
        """Restart the supervised daemon and reset the staleness window."""
        self.restarts += 1
        self._stale = 0
        registry = telemetry.metrics()
        if registry.enabled:
            registry.counter("daemon.restarts").inc()
        logger.warning("watchdog: daemon heartbeat stale; restarting "
                       "(restart %d)", self.restarts)
        self.daemon.restart()
        self._last_beat = int(self.daemon.heartbeat)
