"""Bench-side spans around the public entry points of each layer.

:class:`SpanTracer` replaces a method or module function with a wrapper
that records a span (name, parent, start, end, optional attributes) in
memory while the tracer is active, and is a pass-through call
otherwise. The spans are written as JSONL when the benchmark ends.

A span's *self time* is its duration minus the part of that interval
its child spans cover. Only the thread that created the tracer records
spans. Work done in worker processes is invisible here: a forked worker
inherits the wrappers, but its spans stay in the worker's memory, so a
fan-out shows up as the self time of the span that waits for it.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    span_id: int
    parent_id: "int | None"
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanTracer:
    """Records spans from wrapped callables while :attr:`active`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self._thread = threading.get_ident()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``attrs(args, result)`` may return a dict of numbers to attach
        to the span; it runs after the span's end time is taken.
        """
        original = getattr(owner, attr)
        own = attr in vars(owner)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if (not tracer.active
                    or threading.get_ident() != tracer._thread):
                return original(*args, **kwargs)
            span_id = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[span_id] = Span(span_id, parent, name, start,
                                             end)
            if attrs is not None:
                tracer.spans[span_id].attrs = attrs(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, own))

    def unwrap_all(self) -> None:
        """Restore every wrapped callable (an inherited one by deletion)."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the time its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.start, span.end))
    return {span.span_id: span.duration
            - covered_length(children[span.span_id], span.start, span.end)
            for span in spans}


def rollup(spans) -> dict[str, dict]:
    """Per span name: calls, summed wall and self seconds, summed attrs."""
    own = self_times(spans)
    layers: dict[str, dict] = {}
    for span in spans:
        layer = layers.setdefault(span.name,
                                  {"calls": 0, "wall_s": 0.0, "self_s": 0.0})
        layer["calls"] += 1
        layer["wall_s"] += span.duration
        layer["self_s"] += own[span.span_id]
        for key, value in span.attrs.items():
            layer[key] = layer.get(key, 0) + value
    return layers


def attributed_seconds(spans, umbrellas) -> float:
    """Summed self time of the spans whose name is not in ``umbrellas``.

    An umbrella span wraps a whole operation; its self time is work the
    tracer cannot place in any layer, as is time outside every span.
    """
    own = self_times(spans)
    return sum(own[span.span_id] for span in spans
               if span.name not in umbrellas)
