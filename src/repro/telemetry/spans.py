"""Span-based tracing with nested spans and JSONL export.

A :class:`Tracer` records *spans* — named, attributed intervals measured
with the monotonic clock — in a parent/child tree::

    with tracer.span("fuzz.screen_shard", shard=3):
        with tracer.span("fuzz.measure"):
            ...

Span ids are assigned in start order, so the *structure* of a trace
(names, ids, parents, attributes) is deterministic for a deterministic
program even though durations are not. The disabled path is a shared
no-op context manager: zero allocation, safe to leave in hot paths.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: Span fields that carry wall-clock measurements (non-deterministic).
TIMING_FIELDS = ("start_s", "duration_s")


@dataclass
class SpanRecord:
    """One finished span."""

    name: str
    span_id: int
    parent_id: "int | None"
    process: str
    start_s: float
    duration_s: float
    status: str = "ok"
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "process": self.process,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "status": self.status,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SpanRecord":
        return cls(name=payload["name"], span_id=int(payload["span_id"]),
                   parent_id=(None if payload["parent_id"] is None
                              else int(payload["parent_id"])),
                   process=payload["process"],
                   start_s=float(payload["start_s"]),
                   duration_s=float(payload["duration_s"]),
                   status=payload.get("status", "ok"),
                   attrs=dict(payload.get("attrs", {})))

    def structural_key(self) -> tuple:
        """Everything deterministic about the span (no wall times)."""
        return (self.process, self.span_id, self.parent_id, self.name,
                self.status, tuple(sorted(self.attrs.items())))


class _ActiveSpan:
    """Context manager for one in-flight span."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span_id", "_parent_id",
                 "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        self._span_id = tracer._next_id
        tracer._next_id += 1
        self._parent_id = tracer._stack[-1] if tracer._stack else None
        tracer._stack.append(self._span_id)
        tracer._name_stack.append(self._name)
        self._start = tracer._clock()
        return self

    def set_attr(self, key: str, value) -> None:
        """Attach an attribute discovered while the span runs."""
        self._attrs[key] = value

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        end = tracer._clock()
        tracer._stack.pop()
        tracer._name_stack.pop()
        tracer._records.append(SpanRecord(
            name=self._name, span_id=self._span_id,
            parent_id=self._parent_id, process=tracer.process,
            start_s=self._start - tracer._epoch,
            duration_s=end - self._start,
            status="error" if exc_type is not None else "ok",
            attrs=self._attrs))


class _NoopSpan:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set_attr(self, key: str, value) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Records nested spans for one process.

    Parameters
    ----------
    process:
        Label identifying the emitting process in merged traces
        (``"main"``, ``"shard-00003"``, ...).
    clock:
        Monotonic time source (injectable for tests).
    """

    enabled = True

    def __init__(self, process: str = "main",
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.process = process
        self._clock = clock
        self._epoch = clock()
        self._records: list[SpanRecord] = []
        self._stack: list[int] = []
        self._name_stack: list[str] = []
        self._next_id = 0

    def span(self, name: str, **attrs) -> _ActiveSpan:
        """Open a span; use as a context manager."""
        return _ActiveSpan(self, name, attrs)

    def current_span_name(self) -> "str | None":
        """Name of the innermost open span, for sample attribution."""
        return self._name_stack[-1] if self._name_stack else None

    def records(self) -> list[SpanRecord]:
        """Finished spans sorted in start order."""
        return sorted(self._records, key=lambda r: r.span_id)

    def clear(self) -> None:
        self._records.clear()
        self._stack.clear()
        self._name_stack.clear()
        self._next_id = 0

    def to_jsonl(self) -> str:
        """One JSON object per finished span, start-ordered."""
        return "".join(json.dumps(r.to_dict()) + "\n"
                       for r in self.records())

    def write(self, path: "str | Path") -> Path:
        """Durably export the trace as a JSONL file."""
        # Imported here: the fleet package imports this one.
        from repro.fleet.statefile import write_text_atomic
        return write_text_atomic(path, self.to_jsonl())


class NoopTracer:
    """Disabled tracer: ``span`` hands back one shared no-op object."""

    enabled = False
    process = "noop"

    def span(self, name: str, **attrs) -> _NoopSpan:
        return NOOP_SPAN

    def current_span_name(self) -> "str | None":
        return None

    def records(self) -> list[SpanRecord]:
        return []

    def clear(self) -> None:
        return None

    def to_jsonl(self) -> str:
        return ""


NOOP_TRACER = NoopTracer()


def read_spans(path: "str | Path") -> list[SpanRecord]:
    """Parse a JSONL trace file back into span records."""
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            records.append(SpanRecord.from_dict(json.loads(line)))
    return records
