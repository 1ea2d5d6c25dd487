"""The fleet observability plane: SLOs, attack detectors, exposition.

Layered on the telemetry runtime, three live capabilities:

- :mod:`repro.observability.slo` — latency-histogram tracking with
  whole-run p50/p95/p99 readouts for the fleet's hot operations
  (``serve_window``, ``tick``, batch evals);
- :mod:`repro.observability.signals` + ``detectors`` — per-tenant
  host-read feature extraction and a pluggable detector registry that
  turns SEV-Step single-step cadences, polling bursts, and register
  rotation sweeps into a severity-ranked alert stream (detection only;
  policy reaction is a follow-up);
- :mod:`repro.observability.exposition` + ``dashboard`` — OpenMetrics
  text rendering, sequence-numbered JSONL snapshot export, and the
  ``fleet status --watch`` / ``repro top`` terminal frames.

Everything is scoped through the process-global runtime
(:mod:`repro.observability.runtime`): until configured, call sites see
the shared no-op plane and pay one attribute check.
"""

from repro.observability.dashboard import render_status_frame, render_top
from repro.observability.detectors import (
    SEVERITY_RANK,
    Alert,
    BurstPollingDetector,
    Detector,
    DetectorRegistry,
    EwmaDetector,
    RotationScanDetector,
    SingleStepCadenceDetector,
)
from repro.observability.exposition import (
    SnapshotExporter,
    metric_name,
    read_export,
    render_openmetrics,
    write_openmetrics,
)
from repro.observability.profiler import SamplingProfiler
from repro.observability.runtime import (
    NOOP_OBSERVABILITY,
    ObservabilityRuntime,
    active,
    configure,
    disable,
    enabled,
    session,
)
from repro.observability.signals import (
    DEFAULT_BURST_INTERVAL,
    SignalExtractor,
    TenantReadStream,
)
from repro.observability.slo import (
    NOOP_SLO,
    SLO_QUANTILES,
    NoopSloTracker,
    SloTracker,
)

__all__ = [
    "Alert",
    "BurstPollingDetector",
    "DEFAULT_BURST_INTERVAL",
    "Detector",
    "DetectorRegistry",
    "EwmaDetector",
    "NOOP_OBSERVABILITY",
    "NOOP_SLO",
    "NoopSloTracker",
    "ObservabilityRuntime",
    "RotationScanDetector",
    "SEVERITY_RANK",
    "SLO_QUANTILES",
    "SamplingProfiler",
    "SignalExtractor",
    "SingleStepCadenceDetector",
    "SloTracker",
    "SnapshotExporter",
    "TenantReadStream",
    "active",
    "configure",
    "disable",
    "enabled",
    "metric_name",
    "read_export",
    "render_openmetrics",
    "render_status_frame",
    "render_top",
    "session",
    "write_openmetrics",
]
