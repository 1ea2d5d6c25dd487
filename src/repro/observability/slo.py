"""Sliding-window SLO latency tracking.

ROADMAP item 4 asks for a p50/p99 read-latency objective on the fleet.
The tracker keeps one fixed-capacity ring buffer per tracked operation
(``fleet.serve_window``, ``fleet.tick``, ``batch.execute``), so the
quantile readout always reflects the most recent observations rather
than the whole run. Every observation is
also mirrored into the telemetry metrics registry as a
latency-preset histogram (``slo.<name>.seconds``), which is what
survives the cross-process merge — the ring buffer gives exact
nearest-rank quantiles locally, the histogram gives interpolated ones
fleet-wide.
"""

from __future__ import annotations

from repro.telemetry import runtime as telemetry

#: Quantiles every readout reports.
SLO_QUANTILES = (0.5, 0.95, 0.99)

#: Default ring capacity: large enough to cover a whole smoke replay,
#: small enough that a sorted copy per readout is trivial.
DEFAULT_WINDOW = 1024


class SloWindow:
    """Fixed-capacity ring buffer of latency observations."""

    __slots__ = ("capacity", "count", "_values", "_cursor")

    def __init__(self, capacity: int = DEFAULT_WINDOW) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.count = 0
        self._values: list[float] = []
        self._cursor = 0

    def observe(self, value: float) -> None:
        value = float(value)
        if len(self._values) < self.capacity:
            self._values.append(value)
        else:
            self._values[self._cursor] = value
            self._cursor = (self._cursor + 1) % self.capacity
        self.count += 1

    def values(self) -> list[float]:
        """Retained observations, oldest first."""
        return self._values[self._cursor:] + self._values[:self._cursor]

    def quantile(self, q: float) -> float:
        """Exact nearest-rank quantile over the retained window."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._values:
            return 0.0
        ordered = sorted(self._values)
        rank = max(int(-(-q * len(ordered) // 1)), 1)  # ceil, floor at 1
        return ordered[rank - 1]

    def readout(self) -> dict:
        values = self._values
        payload = {
            "count": self.count,
            "window": len(values),
            "mean": sum(values) / len(values) if values else 0.0,
            "max": max(values) if values else 0.0,
        }
        for q in SLO_QUANTILES:
            payload[f"p{int(q * 100)}"] = self.quantile(q)
        return payload


class SloTracker:
    """Named SLO windows plus the metrics-histogram mirror."""

    enabled = True

    def __init__(self, capacity: int = DEFAULT_WINDOW,
                 mirror_metrics: bool = True) -> None:
        self.capacity = int(capacity)
        self.mirror_metrics = mirror_metrics
        self._windows: dict[str, SloWindow] = {}

    def window(self, name: str) -> SloWindow:
        window = self._windows.get(name)
        if window is None:
            window = self._windows[name] = SloWindow(self.capacity)
        return window

    def observe(self, name: str, seconds: float) -> None:
        self.window(name).observe(seconds)
        if self.mirror_metrics:
            registry = telemetry.metrics()
            if registry.enabled:
                registry.histogram(f"slo.{name}.seconds",
                                   "latency").observe(seconds)

    def names(self) -> list[str]:
        return sorted(self._windows)

    def readout(self, name: str) -> dict:
        return self.window(name).readout()

    def readouts(self) -> dict:
        """Every tracked operation's readout, name-sorted."""
        return {name: self._windows[name].readout()
                for name in sorted(self._windows)}

    def export_values(self) -> "dict[str, list[float]]":
        """Raw retained observations per window, oldest first.

        This is what crosses a process boundary: shard workers export
        their windows and the fleet supervisor merges them with
        :func:`merge_values` into fleet-wide quantiles — exact over the
        union of retained samples, not an average of averages.
        """
        return {name: self._windows[name].values()
                for name in sorted(self._windows)}

    def clear(self) -> None:
        self._windows.clear()


class NoopSloTracker:
    """Disabled tracker: observations vanish, readouts are empty."""

    enabled = False

    def window(self, name: str) -> SloWindow:
        raise RuntimeError("observability is disabled; no SLO windows")

    def observe(self, name: str, seconds: float) -> None:
        return None

    def names(self) -> list[str]:
        return []

    def readout(self, name: str) -> dict:
        return {"count": 0, "window": 0, "mean": 0.0, "max": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0}

    def readouts(self) -> dict:
        return {}

    def clear(self) -> None:
        return None


NOOP_SLO = NoopSloTracker()


def merge_values(exports: "list[dict[str, list[float]]]",
                 capacity: "int | None" = None) -> dict:
    """Merge per-shard :meth:`SloTracker.export_values` payloads into
    fleet-wide readouts.

    Every shard's retained observations for one operation pour into a
    single window (sized to hold them all unless ``capacity`` caps it),
    so the resulting p50/p95/p99 are exact nearest-rank quantiles over
    the union — the fleet-level latency objective, not a mean of
    per-shard quantiles (which would be statistically meaningless).
    """
    pooled: dict[str, list[float]] = {}
    for export in exports:
        for name, values in export.items():
            pooled.setdefault(name, []).extend(values)
    merged = {}
    for name in sorted(pooled):
        values = pooled[name]
        window = SloWindow(capacity if capacity is not None
                           else max(1, len(values)))
        for value in values:
            window.observe(value)
        merged[name] = window.readout()
    return merged
