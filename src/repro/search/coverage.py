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
counts, are bit-identical.  The extractor tabulates every id it can
emit when it is built and reduces a whole chunk of measurements in one
array pass.
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

#: Signed response buckets in feature-table order: negative magnitudes
#: 1..4, then positive ones.
_SIGNED_BUCKETS = (tuple(-m for m in range(1, MAX_MAGNITUDE_BUCKET + 2))
                   + tuple(range(1, MAX_MAGNITUDE_BUCKET + 2)))


def _feature_hash(event: int, unit: str, bucket: int) -> int:
    """First 8 bytes (big-endian) of a SHA-256 over ``event|unit|bucket``."""
    digest = hashlib.sha256(f"{event}|{unit}|{bucket}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@functools.cache
def feature_id(event: int, unit: str, bucket: int) -> int:
    """Stable 64-bit id for one (event, unit, bucket) coverage triple.

    Memoized: the domain is bounded (events × units × nine buckets).
    :class:`CoverageExtractor` tabulates the same ids without filling
    this cache.
    """
    return _feature_hash(event, unit, bucket)


def _log2_edge(power: int) -> float:
    """The smallest double whose ``math.log2`` is at least ``power``.

    ``math.log2`` rounds some doubles just below ``2 ** power`` up to
    ``power`` (``math.log2(15.999999999999998) == 4.0``), so the edge
    is found by stepping down with ``math.log2`` itself.
    """
    edge = 2.0 ** power
    while math.log2(below := math.nextafter(edge, 0.0)) >= power:
        edge = below
    return edge


#: ``int(math.log2(ratio)) // 2 >= k`` exactly when ``ratio`` is at
#: least ``BUCKET_EDGES[k - 1]``, for every double ``ratio >= 1``.
BUCKET_EDGES = tuple(_log2_edge(2 * k)
                     for k in range(1, MAX_MAGNITUDE_BUCKET + 1))


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


def _split_rows(rows: np.ndarray, values: list, count: int) -> list:
    """``values`` (aligned with the sorted row ids ``rows``) as one
    tuple per row ``0 .. count - 1``."""
    bounds = np.searchsorted(rows, np.arange(count + 1)).tolist()
    return [tuple(values[start:stop])
            for start, stop in zip(bounds, bounds[1:])]


class CoverageExtractor:
    """Extracts :class:`CoverageSample` from screening measurements.

    Built once per (catalog, event subset, thresholds), with every
    feature id it can emit tabulated up front: an (event × unit ×
    signed bucket) table and the unit frontier ids.  Per event and
    unit, a bitmask holds the signals the event's weight row reaches,
    so a hit is one AND with the gadget's touched-signal mask.
    :meth:`extract_many` reduces a whole chunk of measurements in one
    array pass; each sample is a pure function of its own
    ``(signals, deltas)`` row, so the same gadget evaluated in any
    worker, in any chunk, yields the same sample.
    """

    def __init__(self, catalog, event_indices, thresholds) -> None:
        self.event_indices = np.asarray(event_indices, dtype=np.int64)
        self.thresholds = np.asarray(thresholds, dtype=np.float64)
        if self.thresholds.shape != self.event_indices.shape:
            raise ValueError("thresholds must align with event_indices")
        self.weights = np.asarray(
            catalog.weights[self.event_indices], dtype=np.float64)
        signal_count = self.weights.shape[1]
        unit_of = [UNIT_OF_SIGNAL[Signal(s)] for s in range(signal_count)]
        units = tuple(dict.fromkeys(unit_of))
        # Bit s of a mask stands for signal s.
        self._signal_bits = np.left_shift(
            np.uint64(1), np.arange(signal_count, dtype=np.uint64))
        self._unit_bits = np.array(
            [sum(1 << s for s, unit in enumerate(unit_of) if unit == u)
             for u in units], dtype=np.uint64)
        row_bits = np.bitwise_or.reduce(
            np.where(self.weights != 0.0, self._signal_bits, np.uint64(0)),
            axis=1)
        # (event × unit): the signals of the unit the event's weight row
        # reaches.
        self._reach = row_bits[:, None] & self._unit_bits
        self._edges = np.array(BUCKET_EDGES)
        self._near_floor = NEAR_MISS_FRACTION * np.maximum(self.thresholds,
                                                           1e-12)
        self._frontier_ids = np.array(
            [_feature_hash(FRONTIER_EVENT, unit, 0) for unit in units],
            dtype=np.uint64)
        self._ids = np.array(
            [_feature_hash(event, unit, bucket)
             for event in self.event_indices.tolist()
             for unit in units for bucket in _SIGNED_BUCKETS],
            dtype=np.uint64).reshape(len(self.event_indices), len(units),
                                     len(_SIGNED_BUCKETS))

    def extract_many(self, signals, deltas) -> "list[CoverageSample]":
        """Coverage of a batch of measurements, one sample per row.

        ``signals`` is ``(N, NUM_SIGNALS)``: each gadget's raw program
        signal vector; ``deltas`` is ``(N, E)``: the measured
        per-event screening deltas (columns aligned with
        ``event_indices``).
        """
        signals = np.asarray(signals, dtype=np.float64).reshape(
            -1, self.weights.shape[1])
        count = len(signals)
        deltas = np.asarray(deltas, dtype=np.float64).reshape(
            count, len(self.thresholds))
        # Noise-free expected response, one matrix-vector product per
        # row: it carries the bucket sign (weights may be negative) and
        # decides near misses.
        expected = np.empty_like(deltas)
        for row in range(count):
            expected[row] = self.weights @ signals[row]
        masks = np.bitwise_or.reduce(
            np.where(signals != 0.0, self._signal_bits, np.uint64(0)),
            axis=1)

        # Unit frontier: which units does each gadget exercise at all?
        frontier_rows, frontier_units = np.nonzero(
            masks[:, None] & self._unit_bits)

        # Measured deltas decide *whether* an event responded, with
        # exact parity to campaign screening.
        rows, columns = np.nonzero(deltas > self.thresholds)
        measured = deltas[rows, columns]
        thresholds = self.thresholds[columns]
        ratio = np.divide(measured, thresholds,
                          out=np.zeros_like(measured),
                          where=thresholds > 0.0)
        # Column of the signed bucket in the id table: magnitude - 1,
        # plus 4 for a non-negative expected response.
        bucket = ((ratio[:, None] >= self._edges).sum(axis=1)
                  + (MAX_MAGNITUDE_BUCKET + 1)
                  * (expected[rows, columns] >= 0.0))
        # (responding event × unit) hits: the units an event's weight
        # row reaches through the gadget's touched signals.
        hit, hit_units = np.nonzero(self._reach[columns]
                                    & masks[rows, None])

        feature_rows = np.concatenate((frontier_rows, rows[hit]))
        features = np.concatenate((
            self._frontier_ids[frontier_units],
            self._ids[columns[hit], hit_units, bucket[hit]]))
        order = np.lexsort((features, feature_rows))
        feature_rows, features = feature_rows[order], features[order]
        unique = np.ones(len(features), dtype=bool)
        unique[1:] = ((features[1:] != features[:-1])
                      | (feature_rows[1:] != feature_rows[:-1]))

        near_rows, near_columns = np.nonzero(
            (deltas <= self.thresholds)
            & (np.abs(expected) > self._near_floor))
        events = self.event_indices
        return [CoverageSample(features=f, responses=r, near=n)
                for f, r, n in zip(
                    _split_rows(feature_rows[unique],
                                features[unique].tolist(), count),
                    _split_rows(rows, list(zip(events[columns].tolist(),
                                               measured.tolist())), count),
                    _split_rows(near_rows, events[near_columns].tolist(),
                                count))]


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
