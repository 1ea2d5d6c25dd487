"""Process-global observability runtime.

Third subscriber to the :class:`repro.utils.runtime.ProcessGlobal`
pattern (after telemetry and resilience): hot paths ask
:func:`active` for the process-global plane and check ``.enabled``
before paying for a clock read, so the disabled path stays one
function call and an attribute read — the same contract the <5%
telemetry overhead gate already holds the other runtimes to.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.observability.detectors import DetectorRegistry
from repro.observability.exposition import SnapshotExporter
from repro.observability.profiler import SamplingProfiler
from repro.observability.signals import SignalExtractor
from repro.observability.slo import NOOP_SLO, NoopSloTracker, SloTracker
from repro.telemetry import runtime as telemetry
from repro.utils.runtime import ProcessGlobal


@dataclass
class ObservabilityRuntime:
    """One configured observability plane."""

    slo: SloTracker
    extractor: SignalExtractor
    detectors: DetectorRegistry
    exporter: "SnapshotExporter | None" = None
    profiler: "SamplingProfiler | None" = None
    enabled: bool = True

    def ingest_read(self, tenant_id: str, slot: int, at: float) -> None:
        """Fold one host read into features and run the detectors."""
        stream = self.extractor.ingest(tenant_id, slot, at)
        self.detectors.evaluate(tenant_id, stream.features(), at)

    def export_snapshot(self) -> "int | None":
        """Append the live metrics snapshot; returns its seq number."""
        if self.exporter is None:
            return None
        return self.exporter.export(telemetry.metrics().snapshot())

    def snapshot(self) -> dict:
        """JSON-ready view for status outputs: SLO + ranked alerts."""
        return {"slo": self.slo.readouts(),
                "alerts": self.detectors.snapshot(ranked=True)}

    def close(self) -> None:
        """Stop the profiler and flush a final snapshot export."""
        if self.profiler is not None:
            self.profiler.stop()
        self.export_snapshot()


class _DisabledObservability:
    """Shared no-op plane handed out until something is configured."""

    enabled = False
    slo: NoopSloTracker = NOOP_SLO
    extractor = None
    detectors = None
    exporter = None
    profiler = None

    def ingest_read(self, tenant_id: str, slot: int, at: float) -> None:
        return None

    def export_snapshot(self) -> None:
        return None

    def snapshot(self) -> dict:
        return {"slo": {}, "alerts": []}

    def close(self) -> None:
        return None


NOOP_OBSERVABILITY = _DisabledObservability()

_slot: "ProcessGlobal[ObservabilityRuntime]" = \
    ProcessGlobal(NOOP_OBSERVABILITY)


def _build(export_path: "str | Path | None",
           detectors: "DetectorRegistry | None", profile: bool,
           profile_interval_s: float) -> ObservabilityRuntime:
    runtime = ObservabilityRuntime(
        slo=SloTracker(),
        extractor=SignalExtractor(),
        detectors=(detectors if detectors is not None
                   else DetectorRegistry.default()),
        exporter=(SnapshotExporter(Path(export_path))
                  if export_path is not None else None),
        profiler=(SamplingProfiler(interval_s=profile_interval_s)
                  if profile else None))
    if runtime.profiler is not None:
        runtime.profiler.start()
    return runtime


def configure(export_path: "str | Path | None" = None,
              detectors: "DetectorRegistry | None" = None,
              profile: bool = False,
              profile_interval_s: float = 0.05) -> ObservabilityRuntime:
    """Install a live observability plane; returns it."""
    return _slot.install(_build(export_path, detectors, profile,
                                profile_interval_s))


def disable() -> None:
    """Restore the no-op plane."""
    active = _slot.active()
    if active is not NOOP_OBSERVABILITY:
        active.close()
    _slot.reset()


def enabled() -> bool:
    return _slot.enabled()


def active() -> ObservabilityRuntime:
    return _slot.active()


def session(export_path: "str | Path | None" = None,
            detectors: "DetectorRegistry | None" = None,
            profile: bool = False,
            profile_interval_s: float = 0.05):
    """Scoped plane: configure, yield, close, restore the previous one."""
    return _slot.scoped(_build(export_path, detectors, profile,
                               profile_interval_s),
                        on_exit=ObservabilityRuntime.close)
