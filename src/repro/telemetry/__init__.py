"""End-to-end telemetry: spans, metrics, and the privacy ε-ledger.

Four layers, all cheap enough to leave compiled into hot paths:

- :mod:`repro.telemetry.spans` — nested span tracing with monotonic
  timing and JSONL export; span structure (names/ids/attrs) is
  deterministic even though durations are not.
- :mod:`repro.telemetry.metrics` — counters, gauges, fixed-bucket
  histograms; the disabled registry returns shared no-op singletons.
- :mod:`repro.telemetry.ledger` — every DP noise release updates
  ``privacy.*`` metrics so the composed (sequential + advanced)
  guarantee is queryable live.
- :mod:`repro.telemetry.aggregate` — campaign workers emit per-shard
  telemetry files that the parent merges deterministically into one
  ``trace.jsonl`` + ``metrics.json`` run report, rendered by
  :mod:`repro.telemetry.render`.

Library code uses the process-global accessors::

    from repro import telemetry

    with telemetry.tracer().span("fuzz.screen_shard", shard=i):
        telemetry.metrics().counter("fuzz.gadgets_screened").inc()

which are no-ops until :func:`configure` (or a :func:`session`) is
active — the CLI's ``--trace-dir`` / ``--metrics`` flags turn them on.
"""

from repro.telemetry.aggregate import (
    MERGED_METRICS,
    MERGED_TRACE,
    RunTelemetry,
    load_run,
    merge_run,
)
from repro.telemetry.ledger import (
    NOOP_LEDGER,
    NoopPrivacyLedger,
    PrivacyLedger,
    epsilon_summary,
)
from repro.telemetry.metrics import (
    BUCKET_PRESETS,
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS,
    NOOP_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NoopMetricsRegistry,
    histogram_quantile,
    histogram_readout,
    merge_snapshots,
    read_snapshot,
    resolve_bounds,
)
from repro.telemetry.render import render_run, render_trace_dir
from repro.telemetry.runtime import (
    TelemetryRuntime,
    active,
    configure,
    disable,
    enabled,
    flush,
    ledger,
    metrics,
    session,
    trace_dir,
    tracer,
)
from repro.telemetry.spans import (
    NOOP_TRACER,
    NoopTracer,
    SpanRecord,
    Tracer,
    read_spans,
)

__all__ = [
    "BUCKET_PRESETS",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "LATENCY_BUCKETS",
    "Histogram",
    "MERGED_METRICS",
    "MERGED_TRACE",
    "MetricsRegistry",
    "NOOP_LEDGER",
    "NOOP_METRICS",
    "NOOP_TRACER",
    "NoopMetricsRegistry",
    "NoopPrivacyLedger",
    "NoopTracer",
    "PrivacyLedger",
    "RunTelemetry",
    "SpanRecord",
    "TelemetryRuntime",
    "Tracer",
    "active",
    "configure",
    "disable",
    "enabled",
    "epsilon_summary",
    "flush",
    "histogram_quantile",
    "histogram_readout",
    "ledger",
    "load_run",
    "merge_run",
    "merge_snapshots",
    "metrics",
    "read_snapshot",
    "read_spans",
    "render_run",
    "render_trace_dir",
    "resolve_bounds",
    "session",
    "trace_dir",
    "tracer",
]
