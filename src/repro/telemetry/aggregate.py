"""Deterministic cross-process merge of a run's telemetry files.

A traced run leaves one ``trace-<process>.jsonl`` and one
``metrics-<process>.json`` per participating process under the trace
directory — ``main`` for the parent, ``shard-NNNNN`` for each campaign
shard (whether it ran in-process or on a pool worker). The merge is a
pure function of those files: spans are ordered by (process class,
process name, span id) and metrics are reduced with the commutative
rules of :func:`repro.telemetry.metrics.merge_snapshots`, so a
1-worker and an N-worker campaign produce the identical merged report
apart from wall-clock values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.telemetry.ledger import epsilon_summary
from repro.telemetry.metrics import merge_snapshots, read_snapshot
from repro.telemetry.spans import SpanRecord, read_spans

#: Merged artifact names (deliberately outside the per-process globs).
MERGED_TRACE = "trace.jsonl"
MERGED_METRICS = "metrics.json"


def _process_sort_key(process: str) -> tuple:
    """main first, then shards in index order, then anything else."""
    if process == "main":
        return (0, "")
    if process.startswith("shard-"):
        return (1, process)
    return (2, process)


def per_process_trace_files(trace_dir: "str | Path") -> list[Path]:
    return sorted(Path(trace_dir).glob("trace-*.jsonl"),
                  key=lambda p: _process_sort_key(p.stem[len("trace-"):]))


def per_process_metric_files(trace_dir: "str | Path") -> list[Path]:
    return sorted(Path(trace_dir).glob("metrics-*.json"),
                  key=lambda p: _process_sort_key(p.stem[len("metrics-"):]))


@dataclass
class RunTelemetry:
    """The merged telemetry of one run."""

    spans: list[SpanRecord] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def structural_key(self) -> tuple:
        """Deterministic view: span structure + metrics, no wall times."""
        return (tuple(span.structural_key() for span in self.spans),
                json.dumps(self.metrics, sort_keys=True))

    # -- queries over the merged run ---------------------------------

    def stage_seconds(self) -> "dict[str, float]":
        """Wall seconds of the main process's top-level spans."""
        stages: dict[str, float] = {}
        for span in self.spans:
            if span.process == "main" and span.parent_id is None:
                stages[span.name] = stages.get(span.name, 0.0) \
                    + span.duration_s
        return stages

    def shard_spans(self) -> list[SpanRecord]:
        """The per-shard screening spans, in shard order."""
        shards = [span for span in self.spans
                  if span.name == "fuzz.screen_shard"]
        return sorted(shards, key=lambda s: s.attrs.get("shard", -1))

    def shard_seconds(self) -> list[float]:
        return [span.duration_s for span in self.shard_spans()]

    def epsilon(self) -> dict:
        """Composed privacy guarantee recorded by the ε-ledger."""
        return epsilon_summary(self.metrics)


def merge_run(trace_dir: "str | Path", write: bool = True) -> RunTelemetry:
    """Merge every per-process telemetry file under ``trace_dir``.

    With ``write=True`` the merged artifacts are persisted as
    ``trace.jsonl`` and ``metrics.json`` in the same directory
    (durably, so a crashed merge never leaves half a report).
    """
    trace_dir = Path(trace_dir)
    spans: list[SpanRecord] = []
    for path in per_process_trace_files(trace_dir):
        spans.extend(read_spans(path))
    spans.sort(key=lambda s: (_process_sort_key(s.process), s.span_id))
    snapshots = [read_snapshot(path)
                 for path in per_process_metric_files(trace_dir)]
    merged = RunTelemetry(spans=spans, metrics=merge_snapshots(snapshots))
    if write:
        # Imported here: the fleet package imports this one.
        from repro.fleet.statefile import write_text_atomic
        write_text_atomic(
            trace_dir / MERGED_TRACE,
            "".join(json.dumps(s.to_dict()) + "\n" for s in spans))
        write_text_atomic(
            trace_dir / MERGED_METRICS,
            json.dumps(merged.metrics, indent=2, sort_keys=True))
    return merged


def load_run(trace_dir: "str | Path") -> RunTelemetry:
    """Load a previously merged run (re-merging if artifacts are absent)."""
    trace_dir = Path(trace_dir)
    trace_path = trace_dir / MERGED_TRACE
    metrics_path = trace_dir / MERGED_METRICS
    if not trace_path.exists() or not metrics_path.exists():
        return merge_run(trace_dir, write=False)
    return RunTelemetry(spans=read_spans(trace_path),
                        metrics=read_snapshot(metrics_path))
