"""Deterministic coverage map for gadget search.

A gadget's *coverage signature* is a set of integer feature ids over

    (event row, microarchitectural unit, response-sign bucket)

extracted from one batched screening measurement: the event rows whose
measured delta clears the screening threshold, crossed with the
microarchitectural units the gadget's signal vector actually exercised,
bucketed by response sign and log-magnitude.  A second family of
*frontier* features records which units a gadget touches at all —
independent of any event responding — so the corpus retains gadgets
that exercise rare units (crypto, cache-control, x87) before a
threshold crossing confirms them.

Feature ids are the first 8 bytes of a SHA-256 over the textual
``event|unit|bucket`` triple — never Python ``hash()`` — so maps built
in different processes, in different orders, by different worker
counts, are bit-identical.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from repro.cpu.signals import Signal

#: Microarchitectural unit of each of the 40 simulator signals.  Units
#: partition the signal space coarsely enough that one gadget touches a
#: handful, finely enough that "new unit" is a meaningful frontier.
UNIT_OF_SIGNAL: dict[Signal, str] = {
    Signal.CYCLES: "pipeline",
    Signal.INSTRUCTIONS: "pipeline",
    Signal.UOPS: "pipeline",
    Signal.NOP_OPS: "pipeline",
    Signal.LOADS: "l1d",
    Signal.STORES: "l1d",
    Signal.L1D_ACCESS: "l1d",
    Signal.L1D_MISS: "l1d",
    Signal.MAB_ALLOC: "l1d",
    Signal.L1I_MISS: "frontend",
    Signal.L2_ACCESS: "l2",
    Signal.L2_MISS: "l2",
    Signal.LLC_ACCESS: "memory",
    Signal.LLC_MISS: "memory",
    Signal.MEM_READS: "memory",
    Signal.MEM_WRITES: "memory",
    Signal.BRANCHES: "branch",
    Signal.BRANCH_MISS: "branch",
    Signal.COND_BRANCHES: "branch",
    Signal.CALLS: "branch",
    Signal.RETURNS: "branch",
    Signal.ITLB_MISS: "tlb",
    Signal.DTLB_MISS: "tlb",
    Signal.TLB_FLUSHES: "tlb",
    Signal.FP_OPS: "fp",
    Signal.X87_OPS: "fp",
    Signal.MUL_OPS: "fp",
    Signal.DIV_OPS: "fp",
    Signal.SIMD_OPS: "simd",
    Signal.BIT_OPS: "simd",
    Signal.CRYPTO_OPS: "crypto",
    Signal.STACK_OPS: "stack",
    Signal.PREFETCHES: "cache-control",
    Signal.CACHE_FLUSHES: "cache-control",
    Signal.SERIALIZING: "serialize",
    Signal.PAGE_FAULTS: "host",
    Signal.SYSCALLS: "host",
    Signal.CONTEXT_SWITCHES: "host",
    Signal.INTERRUPTS: "host",
    Signal.IO_OPS: "host",
}

#: Sentinel event id for unit-frontier features (no specific event).
FRONTIER_EVENT = -1

#: Near-miss threshold fraction: an event whose *expected* (noise-free)
#: response exceeds this fraction of its screening threshold without
#: the measured delta clearing it is recorded as a near miss.
NEAR_MISS_FRACTION = 0.25

#: Magnitude buckets cap (log4 of delta/threshold, clamped).
MAX_MAGNITUDE_BUCKET = 3


@functools.cache
def feature_id(event: int, unit: str, bucket: int) -> int:
    """Stable 64-bit id for one (event, unit, bucket) coverage triple.

    Memoized: the domain is bounded (events × units × nine buckets).
    """
    digest = hashlib.sha256(f"{event}|{unit}|{bucket}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _magnitude_bucket(delta: float, threshold: float) -> int:
    """1 + floor(log4(delta / threshold)), clamped to the bucket cap."""
    if threshold <= 0.0:
        return 1
    ratio = max(1.0, delta / threshold)
    return 1 + min(MAX_MAGNITUDE_BUCKET, int(math.log2(ratio)) // 2)


@dataclass(frozen=True)
class CoverageSample:
    """One gadget's extracted coverage: the unit of corpus feedback.

    ``features`` are sorted feature ids; ``responses`` are
    ``(catalog event index, measured delta)`` pairs for every event
    that cleared its screening threshold; ``near`` are catalog event
    indices whose noise-free response came within
    :data:`NEAR_MISS_FRACTION` of the threshold without clearing it —
    the scheduler's set-cover hints.
    """

    features: tuple[int, ...]
    responses: tuple[tuple[int, float], ...]
    near: tuple[int, ...]


class CoverageExtractor:
    """Extracts :class:`CoverageSample` from screening measurements.

    Built once per (catalog, event subset, thresholds); extraction is a
    pure function of the measured ``(signals, deltas)`` pair, so the
    same gadget evaluated in any worker yields the same sample.
    """

    def __init__(self, catalog, event_indices, thresholds) -> None:
        self.event_indices = np.asarray(event_indices, dtype=np.int64)
        self.thresholds = np.asarray(thresholds, dtype=np.float64)
        if self.thresholds.shape != self.event_indices.shape:
            raise ValueError("thresholds must align with event_indices")
        self.weights = np.asarray(
            catalog.weights[self.event_indices], dtype=np.float64)
        unit_of = [UNIT_OF_SIGNAL[Signal(s)]
                   for s in range(self.weights.shape[1])]
        self._units = tuple(dict.fromkeys(unit_of))
        # (signal × unit) one-hot: a boolean product with it maps a
        # signal mask to the units it touches.
        self._unit_onehot = np.array(
            [[unit == u for u in self._units] for unit in unit_of],
            dtype=bool)

    def extract(self, signals, deltas) -> CoverageSample:
        """Coverage of one measurement.

        ``signals`` is the gadget's raw program signal vector;
        ``deltas`` the measured per-event screening deltas (aligned
        with ``event_indices``).
        """
        signals = np.asarray(signals, dtype=np.float64)
        deltas = np.asarray(deltas, dtype=np.float64)
        units = self._units
        onehot = self._unit_onehot

        # Unit frontier: which units does this gadget exercise at all?
        frontier = (signals != 0.0) @ onehot
        features = {feature_id(FRONTIER_EVENT, units[u], 0)
                    for u in np.flatnonzero(frontier)}

        # Noise-free expected response carries the sign (weights may be
        # negative); measured deltas decide *whether* an event responded,
        # with exact parity to campaign screening.
        expected = self.weights @ signals
        responding = np.flatnonzero(deltas > self.thresholds)
        events = self.event_indices[responding].tolist()
        measured = deltas[responding].tolist()
        buckets = [(1 if positive else -1)
                   * _magnitude_bucket(delta, threshold)
                   for positive, delta, threshold in zip(
                       (expected[responding] >= 0.0).tolist(), measured,
                       self.thresholds[responding].tolist())]
        # (responding event × unit) hits: the units an event's weight
        # row actually reaches through this gadget's signals.
        hits = ((self.weights[responding] * signals) != 0.0) @ onehot
        for row, u in zip(*np.nonzero(hits)):
            features.add(feature_id(events[row], units[u], buckets[row]))
        responses = tuple(zip(events, measured))

        near_mask = ((deltas <= self.thresholds)
                     & (np.abs(expected) > NEAR_MISS_FRACTION
                        * np.maximum(self.thresholds, 1e-12)))
        near = tuple(int(self.event_indices[j])
                     for j in np.flatnonzero(near_mask))
        return CoverageSample(features=tuple(sorted(features)),
                              responses=responses, near=near)


class CoverageMap:
    """Order-invariant multiset of observed coverage features.

    The map records how many corpus-admitted samples hit each feature;
    rarity (inverse hit count) feeds scheduler energies.  Its digest is
    a SHA-256 over the sorted feature ids, so two runs that observed
    the same feature *set* — in any order, from any worker partition —
    have equal digests.
    """

    def __init__(self) -> None:
        self._counts: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, fid: int) -> bool:
        return fid in self._counts

    def count(self, fid: int) -> int:
        return self._counts.get(fid, 0)

    def new_features(self, features) -> tuple[int, ...]:
        """The subset of ``features`` not yet in the map (sorted)."""
        return tuple(sorted(f for f in set(features)
                            if f not in self._counts))

    def observe(self, features) -> int:
        """Record one sample's features; returns how many were new."""
        new = 0
        for fid in set(features):
            if fid not in self._counts:
                new += 1
            self._counts[fid] = self._counts.get(fid, 0) + 1
        return new

    def rarity(self, features) -> float:
        """Mean inverse hit count over ``features`` (0 for empty)."""
        fids = set(features)
        if not fids:
            return 0.0
        return sum(1.0 / self._counts.get(fid, 1) for fid in fids) / len(fids)

    def digest(self) -> str:
        """SHA-256 hex digest of the sorted covered-feature set."""
        h = hashlib.sha256()
        for fid in sorted(self._counts):
            h.update(fid.to_bytes(8, "big"))
        return h.hexdigest()

    def to_payload(self) -> dict:
        return {"counts": {str(fid): count
                           for fid, count in sorted(self._counts.items())}}

    @classmethod
    def from_payload(cls, payload: dict) -> "CoverageMap":
        cmap = cls()
        for fid, count in payload.get("counts", {}).items():
            cmap._counts[int(fid)] = int(count)
        return cmap
