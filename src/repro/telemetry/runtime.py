"""Process-global telemetry runtime.

Instrumented library code never owns a tracer: it asks this module for
the process-global one (:func:`tracer`, :func:`metrics`,
:func:`ledger`). Until :func:`configure` is called those accessors hand
back shared no-op singletons, so instrumentation costs one function
call and a dict miss on the disabled path — cheap enough to leave on in
hot loops.

:func:`session` scopes a configuration: campaign workers open a
per-shard session (``process="shard-00003"``) around each shard so its
spans and metrics land in shard-owned files that the parent merges
deterministically (:mod:`repro.telemetry.aggregate`), then the previous
runtime — the parent's, under fork — is restored. The global slot is a
:class:`repro.utils.runtime.ProcessGlobal`, the helper all three
runtime modules (telemetry, resilience, observability) share.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.telemetry.ledger import NOOP_LEDGER, PrivacyLedger
from repro.telemetry.metrics import (
    NOOP_METRICS,
    MetricsRegistry,
    NoopMetricsRegistry,
)
from repro.telemetry.spans import NOOP_TRACER, NoopTracer, Tracer
from repro.utils.runtime import ProcessGlobal


@dataclass
class TelemetryRuntime:
    """One configured (tracer, metrics, ledger) triple."""

    tracer: "Tracer | NoopTracer"
    metrics: "MetricsRegistry | NoopMetricsRegistry"
    ledger: "PrivacyLedger | object"
    trace_dir: "Path | None"
    process: str

    def flush(self) -> "list[Path]":
        """Write this process's trace + metrics files under trace_dir."""
        if self.trace_dir is None:
            return []
        written = []
        if isinstance(self.tracer, Tracer):
            written.append(self.tracer.write(
                self.trace_dir / f"trace-{self.process}.jsonl"))
        if isinstance(self.metrics, MetricsRegistry):
            written.append(self.metrics.write(
                self.trace_dir / f"metrics-{self.process}.json"))
        return written


_DISABLED = TelemetryRuntime(tracer=NOOP_TRACER, metrics=NOOP_METRICS,
                             ledger=NOOP_LEDGER, trace_dir=None,
                             process="noop")

_slot: "ProcessGlobal[TelemetryRuntime]" = ProcessGlobal(_DISABLED)


def _build(trace_dir: "str | Path | None", metrics_enabled: bool,
           process: str) -> TelemetryRuntime:
    registry = MetricsRegistry() if metrics_enabled else NOOP_METRICS
    return TelemetryRuntime(
        tracer=Tracer(process=process),
        metrics=registry,
        ledger=(PrivacyLedger(registry) if metrics_enabled else NOOP_LEDGER),
        trace_dir=(Path(trace_dir) if trace_dir is not None else None),
        process=process)


def configure(trace_dir: "str | Path | None" = None,
              metrics_enabled: bool = True,
              process: str = "main") -> TelemetryRuntime:
    """Install a live runtime; returns it.

    ``trace_dir=None`` keeps everything in memory (still queryable via
    the accessors); with a directory, :func:`flush` exports
    ``trace-<process>.jsonl`` and ``metrics-<process>.json``.
    """
    return _slot.install(_build(trace_dir, metrics_enabled, process))


def disable() -> None:
    """Restore the no-op runtime."""
    _slot.reset()


def enabled() -> bool:
    return _slot.enabled()


def active() -> TelemetryRuntime:
    return _slot.active()


def tracer() -> "Tracer | NoopTracer":
    return _slot.active().tracer


def metrics() -> "MetricsRegistry | NoopMetricsRegistry":
    return _slot.active().metrics


def ledger():
    return _slot.active().ledger


def trace_dir() -> "Path | None":
    return _slot.active().trace_dir


def flush() -> "list[Path]":
    """Export the active runtime's files (no-op when disabled)."""
    return _slot.active().flush()


def session(trace_dir: "str | Path | None" = None,
            metrics_enabled: bool = True, process: str = "main"):
    """Scoped runtime: configure, yield, flush, restore the previous one.

    Flushing happens even when the body raises, so a crashed stage still
    leaves its partial telemetry on disk for post-mortems.
    """
    return _slot.scoped(_build(trace_dir, metrics_enabled, process),
                        on_exit=TelemetryRuntime.flush)
