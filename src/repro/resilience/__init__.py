"""Resilience: deterministic fault injection, supervision, degradation.

Three pillars (DESIGN.md section 9):

- :mod:`repro.resilience.faults` — named fault points a seeded
  :class:`FaultPlan` arms to raise, hang, corrupt, or kill, with every
  firing decision a pure function of (seed, point, key, attempt) so
  chaos runs are reproducible.
- :mod:`repro.resilience.supervisor` — the shard supervisor campaign
  shards and coverage-search chunks fan out through: per-shard
  timeouts, bounded retries with seeded backoff, poison-shard
  bisection, quarantine.
- :mod:`repro.resilience.watchdog` — the obfuscator daemon's heartbeat
  watchdog (fail-closed degradation lives with the daemon itself).

The process-global injector lives in :mod:`repro.resilience.runtime`;
instrumented sites call ``runtime.check(point, ...)``.
"""

from repro.resilience.faults import (
    FAULT_MODES,
    FAULT_POINTS,
    KILL_EXIT_STATUS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    corrupt_text,
    stable_key,
)
from repro.resilience.supervisor import (
    QuarantineRecord,
    ShardFailure,
    ShardSupervisor,
    SupervisorError,
    SupervisorPolicy,
    SupervisorReport,
)
from repro.resilience.watchdog import DaemonWatchdog

__all__ = [
    "FAULT_MODES",
    "FAULT_POINTS",
    "KILL_EXIT_STATUS",
    "DaemonWatchdog",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "QuarantineRecord",
    "ShardFailure",
    "ShardSupervisor",
    "SupervisorError",
    "SupervisorPolicy",
    "SupervisorReport",
    "corrupt_text",
    "stable_key",
]
