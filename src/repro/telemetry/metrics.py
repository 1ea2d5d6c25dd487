"""Counters, gauges, and fixed-bucket histograms.

Cheap enough to leave on in hot paths: instruments are plain attribute
updates behind a memoized name lookup, and the disabled registry hands
back shared no-op singletons so instrumented code needs no ``if``
guards. Snapshots are plain dicts; :func:`merge_snapshots` is the
deterministic cross-process reduction (counters and histogram buckets
sum, gauges take the maximum — both associative and commutative, so the
merge is invariant to worker count and completion order).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

#: Default histogram bucket upper bounds (last bucket is +inf overflow).
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
                   50.0, 100.0)

#: Latency-tuned bounds: ``serve_window`` and friends complete in tens
#: of microseconds to single-digit milliseconds, where DEFAULT_BUCKETS
#: collapses everything into its first two buckets. Roughly
#: 1-2.5-5 per decade from 1 µs to 1 s.
LATENCY_BUCKETS = (1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
                   1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
                   1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0)

#: Quantiles every :func:`histogram_readout` reports.
READOUT_QUANTILES = (0.5, 0.95, 0.99)

#: Named bound presets accepted wherever ``bounds`` is: callers across
#: processes that name the same preset get byte-identical bounds, so
#: the cross-process bucket reduction in :func:`merge_snapshots` never
#: sees a mismatch.
BUCKET_PRESETS = {"default": DEFAULT_BUCKETS, "latency": LATENCY_BUCKETS}


def resolve_bounds(bounds: "Iterable[float] | str") -> tuple:
    """Bucket bounds for ``bounds`` (a preset name or an iterable)."""
    if isinstance(bounds, str):
        try:
            return BUCKET_PRESETS[bounds]
        except KeyError as exc:
            raise ValueError(
                f"unknown bucket preset {bounds!r}; choose from "
                f"{sorted(BUCKET_PRESETS)}") from exc
    return tuple(float(b) for b in bounds)


class Counter:
    """Monotonically increasing sum."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """Last-written value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with sum and count.

    ``bounds`` are ascending upper bounds; an observation lands in the
    first bucket whose bound is >= the value, or the overflow bucket.
    """

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self,
                 bounds: "Iterable[float] | str" = DEFAULT_BUCKETS) -> None:
        bounds = resolve_bounds(bounds)
        if not bounds or any(b <= a for b, a in zip(bounds[1:], bounds)):
            raise ValueError("bounds must be non-empty and ascending")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def payload(self) -> dict:
        """The snapshot form :func:`merge_snapshots` and
        :func:`histogram_readout` read."""
        return {"bounds": list(self.bounds), "counts": list(self.counts),
                "total": self.total, "count": self.count}


class _NoopInstrument:
    """Shared disabled counter/gauge/histogram."""

    __slots__ = ()
    value = 0.0
    total = 0.0
    count = 0
    mean = 0.0
    bounds: tuple = ()
    counts: list = []

    def inc(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None


NOOP_INSTRUMENT = _NoopInstrument()


class MetricsRegistry:
    """Named instruments, memoized by name."""

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str,
                  bounds: "Iterable[float] | str" = DEFAULT_BUCKETS
                  ) -> Histogram:
        bounds = resolve_bounds(bounds)
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(bounds)
        elif instrument.bounds != bounds:
            raise ValueError(
                f"histogram {name!r} already registered with bounds "
                f"{instrument.bounds}, requested {bounds}")
        return instrument

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def snapshot(self) -> dict:
        """Plain-dict view of every instrument, keys sorted."""
        return {
            "counters": {name: self._counters[name].value
                         for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name].value
                       for name in sorted(self._gauges)},
            "histograms": {name: h.payload() for name, h
                           in sorted(self._histograms.items())},
        }

    def write(self, path: "str | Path") -> Path:
        """Durably export the snapshot as JSON."""
        # Imported here: the fleet package imports this one.
        from repro.fleet.statefile import write_text_atomic
        return write_text_atomic(
            path, json.dumps(self.snapshot(), indent=2, sort_keys=True))


class NoopMetricsRegistry:
    """Disabled registry: every lookup returns the shared no-op."""

    enabled = False

    def counter(self, name: str) -> _NoopInstrument:
        return NOOP_INSTRUMENT

    def gauge(self, name: str) -> _NoopInstrument:
        return NOOP_INSTRUMENT

    def histogram(self, name: str,
                  bounds: "Iterable[float] | str" = DEFAULT_BUCKETS
                  ) -> _NoopInstrument:
        return NOOP_INSTRUMENT

    def clear(self) -> None:
        return None

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NOOP_METRICS = NoopMetricsRegistry()


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Deterministically reduce metric snapshots from many processes.

    Counters and histogram bucket counts sum; gauges take the maximum.
    Both reductions are associative and commutative, so the result is
    independent of process count and merge order.
    """
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0.0) + float(value)
        for name, value in snapshot.get("gauges", {}).items():
            value = float(value)
            gauges[name] = max(gauges.get(name, value), value)
        for name, payload in snapshot.get("histograms", {}).items():
            merged = histograms.get(name)
            if merged is None:
                histograms[name] = {
                    "bounds": list(payload["bounds"]),
                    "counts": list(payload["counts"]),
                    "total": float(payload["total"]),
                    "count": int(payload["count"])}
                continue
            if merged["bounds"] != list(payload["bounds"]):
                raise ValueError(
                    f"histogram {name!r} has mismatched bucket bounds")
            merged["counts"] = [a + b for a, b in
                                zip(merged["counts"], payload["counts"])]
            merged["total"] += float(payload["total"])
            merged["count"] += int(payload["count"])
    return {
        "counters": {k: counters[k] for k in sorted(counters)},
        "gauges": {k: gauges[k] for k in sorted(gauges)},
        "histograms": {k: histograms[k] for k in sorted(histograms)},
    }


def histogram_quantile(payload: dict, q: float) -> float:
    """Estimate quantile ``q`` from a snapshot histogram payload.

    Prometheus-style linear interpolation inside the bucket that holds
    the target rank. Observations in the overflow bucket clamp to the
    last finite bound. Deterministic for a given payload.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    bounds = list(payload["bounds"])
    counts = list(payload["counts"])
    count = int(payload["count"])
    if count == 0:
        return 0.0
    rank = q * count
    cumulative = 0
    for i, bucket_count in enumerate(counts):
        if not bucket_count:
            continue
        previous = cumulative
        cumulative += bucket_count
        if cumulative < rank:
            continue
        if i >= len(bounds):  # overflow: no upper edge to interpolate to
            return float(bounds[-1])
        lo = bounds[i - 1] if i else 0.0
        hi = bounds[i]
        return lo + (hi - lo) * ((rank - previous) / bucket_count)
    return float(bounds[-1])


def histogram_readout(payload: dict) -> dict:
    """The latency readout of one snapshot histogram payload.

    ``count``, the exact ``mean`` (``total / count``) and one ``pNN``
    per :data:`READOUT_QUANTILES` from :func:`histogram_quantile`; all
    zeros for an empty histogram. Every SLO readout in the repo — the
    live tracker's, a sharded fleet's merged one, ``repro top``'s and
    ``report --trace``'s — is this function, so they agree wherever
    they cover the same observations.
    """
    count = int(payload["count"])
    readout = {"count": count,
               "mean": float(payload["total"]) / count if count else 0.0}
    for q in READOUT_QUANTILES:
        readout[f"p{int(q * 100)}"] = histogram_quantile(payload, q)
    return readout


def slo_readouts(histograms: dict) -> dict:
    """Readouts of the non-empty ``slo.<operation>.seconds`` payloads in
    a snapshot's ``"histograms"`` block, keyed by operation, sorted."""
    return {name[len("slo."):-len(".seconds")]:
            histogram_readout(histograms[name])
            for name in sorted(histograms)
            if name.startswith("slo.") and name.endswith(".seconds")
            and histograms[name]["count"]}


def read_snapshot(path: "str | Path") -> dict:
    """Load a metrics snapshot JSON file."""
    return json.loads(Path(path).read_text(encoding="utf-8"))
