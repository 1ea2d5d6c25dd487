"""SLO latency tracking on the latency-preset histograms.

The fleet's serving latency is its SLO (ROADMAP item 4). The tracker
keeps one ``"latency"``-preset :class:`~repro.telemetry.metrics.Histogram`
per tracked operation (``fleet.serve_window``, ``fleet.tick``,
``batch.execute``) and mirrors every observation into the telemetry
metrics registry as ``slo.<name>.seconds``. A readout covers the whole
run and is :func:`~repro.telemetry.metrics.histogram_readout` of the
operation's histogram — the same function that reads the exported
histograms, and the merged ones of a sharded fleet, so every view of
one run answers "what was its p99" alike.
"""

from __future__ import annotations

from repro.telemetry import runtime as telemetry
from repro.telemetry.metrics import (READOUT_QUANTILES, Histogram,
                                     histogram_readout)

#: Quantiles every readout reports.
SLO_QUANTILES = READOUT_QUANTILES


class SloTracker:
    """One latency histogram per named operation, plus the registry
    mirror."""

    enabled = True

    def __init__(self) -> None:
        self._histograms: dict[str, Histogram] = {}

    def observe(self, name: str, seconds: float) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram("latency")
        histogram.observe(seconds)
        registry = telemetry.metrics()
        if registry.enabled:
            registry.histogram(f"slo.{name}.seconds",
                               "latency").observe(seconds)

    def names(self) -> list[str]:
        return sorted(self._histograms)

    def histograms(self) -> "dict[str, dict]":
        """Every operation's histogram payload, name-sorted.

        This is what crosses a process boundary: shard workers hand it
        back and the fleet sums the buckets across shards.
        """
        return {name: self._histograms[name].payload()
                for name in sorted(self._histograms)}

    def readout(self, name: str) -> dict:
        """One operation's readout; zeros for one never observed (which
        stays unregistered)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = Histogram("latency")
        return histogram_readout(histogram.payload())

    def readouts(self) -> dict:
        """Every tracked operation's readout, name-sorted."""
        return {name: histogram_readout(payload)
                for name, payload in self.histograms().items()}

    def clear(self) -> None:
        self._histograms.clear()


class NoopSloTracker(SloTracker):
    """Disabled tracker: observations vanish, readouts are empty."""

    enabled = False

    def observe(self, name: str, seconds: float) -> None:
        return None


NOOP_SLO = NoopSloTracker()
