"""Set-associative cache models.

The detailed execution path (used by the Event Fuzzer) needs real cache
state: a reset sequence like CLFLUSH must actually evict a line so that
the following trigger load misses. These models implement classic
set-associative LRU caches and a three-level hierarchy with inclusive
semantics, matching the behaviour the paper's gadgets rely on.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class CacheStats:
    """Running hit/miss counters for one cache level."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    flushes: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """One set-associative cache level with LRU replacement.

    Parameters
    ----------
    size_bytes:
        Total capacity; must be ``ways * sets * line_size``-consistent.
    ways:
        Associativity.
    line_size:
        Cache line size in bytes (power of two).
    name:
        Human-readable level name for diagnostics.
    """

    def __init__(self, size_bytes: int, ways: int, line_size: int = 64,
                 name: str = "cache") -> None:
        if line_size <= 0 or line_size & (line_size - 1):
            raise ValueError(f"line_size must be a power of two, got {line_size}")
        if size_bytes % (ways * line_size):
            raise ValueError(
                f"size_bytes={size_bytes} is not divisible by "
                f"ways*line_size={ways * line_size}"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_size = line_size
        self.num_sets = size_bytes // (ways * line_size)
        self.stats = CacheStats()
        # Set index -> OrderedDict tag -> dirty flag, LRU order (oldest
        # first). Only non-empty sets are held, so building, resetting
        # and snapshotting a cache cost its occupancy, not its capacity
        # (the LLC alone has 4096 sets).
        self._sets: dict[int, OrderedDict[int, bool]] = {}

    def _locate(self, address: int) -> tuple[int, int]:
        line = address // self.line_size
        return line % self.num_sets, line // self.num_sets

    def contains(self, address: int) -> bool:
        """Whether the line holding ``address`` is currently cached."""
        set_index, tag = self._locate(address)
        ways = self._sets.get(set_index)
        return ways is not None and tag in ways

    def access(self, address: int, write: bool = False) -> bool:
        """Access ``address``; returns True on hit.

        On a miss the line is filled (possibly evicting the LRU way);
        the caller is responsible for propagating the miss to the next
        level.
        """
        line = address // self.line_size
        set_index = line % self.num_sets
        tag = line // self.num_sets
        ways = self._sets.get(set_index)
        if ways is None:
            ways = self._sets[set_index] = OrderedDict()
        elif tag in ways:
            ways.move_to_end(tag)
            if write:
                ways[tag] = True
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(ways) >= self.ways:
            ways.popitem(last=False)
            self.stats.evictions += 1
        ways[tag] = write
        return False

    def flush(self, address: int) -> bool:
        """Evict the line holding ``address``; returns True if present."""
        set_index, tag = self._locate(address)
        ways = self._sets.get(set_index)
        if ways is None or tag not in ways:
            return False
        del ways[tag]
        self.stats.flushes += 1
        if not ways:
            del self._sets[set_index]
        return True

    def flush_all(self) -> None:
        """Invalidate the whole cache (WBINVD-style)."""
        self.stats.flushes += self.occupancy
        self._sets.clear()

    def reset(self) -> None:
        """Return the cache to power-on state (no resident lines).

        Unlike :meth:`flush_all` this also zeroes the statistics, and it
        is cheap enough to run per measurement: only non-empty sets are
        touched, so the cost scales with occupancy, not capacity.
        """
        self._sets.clear()
        self.stats = CacheStats()

    @property
    def occupancy(self) -> int:
        """Number of lines currently resident."""
        return sum(len(ways) for ways in self._sets.values())

    def resident_lines(self) -> tuple:
        """Hashable snapshot of resident lines, LRU order preserved.

        Used by the batch engine's state signatures: two caches with
        equal snapshots behave identically for every future access.
        """
        return tuple((i, tuple(self._sets[i].items()))
                     for i in sorted(self._sets))


@dataclass(frozen=True)
class AccessOutcome:
    """Which levels an access hit/missed and whether memory was reached.

    Only four outcomes exist; :meth:`CacheHierarchy.access` returns one
    of four shared instances, so an access allocates nothing.
    """

    l1_hit: bool
    l2_hit: bool
    llc_hit: bool
    memory_access: bool

    @property
    def l1_miss(self) -> bool:
        return not self.l1_hit


_L1_HIT = AccessOutcome(True, True, True, False)
_L2_HIT = AccessOutcome(False, True, True, False)
_LLC_HIT = AccessOutcome(False, False, True, False)
_MEMORY = AccessOutcome(False, False, False, True)


class CacheHierarchy:
    """L1D + L2 + LLC hierarchy with miss propagation.

    Sizes default to the AMD EPYC 7252 per-core figures (32 KiB L1D,
    512 KiB L2, shared LLC slice).
    """

    def __init__(self, l1_size: int = 32 * 1024, l1_ways: int = 8,
                 l2_size: int = 512 * 1024, l2_ways: int = 8,
                 llc_size: int = 4 * 1024 * 1024, llc_ways: int = 16,
                 line_size: int = 64) -> None:
        self.l1 = Cache(l1_size, l1_ways, line_size, name="L1D")
        self.l2 = Cache(l2_size, l2_ways, line_size, name="L2")
        self.llc = Cache(llc_size, llc_ways, line_size, name="LLC")
        self.line_size = line_size

    def access(self, address: int, write: bool = False) -> AccessOutcome:
        """Access ``address`` through the hierarchy."""
        if self.l1.access(address, write):
            return _L1_HIT
        if self.l2.access(address, write):
            return _L2_HIT
        if self.llc.access(address, write):
            return _LLC_HIT
        return _MEMORY

    def flush(self, address: int) -> None:
        """CLFLUSH: evict the line from every level."""
        self.l1.flush(address)
        self.l2.flush(address)
        self.llc.flush(address)

    def flush_all(self) -> None:
        """WBINVD: invalidate every level."""
        self.l1.flush_all()
        self.l2.flush_all()
        self.llc.flush_all()

    def contains(self, address: int) -> bool:
        """Whether any level holds the line for ``address``."""
        return (self.l1.contains(address) or self.l2.contains(address)
                or self.llc.contains(address))

    def reset(self) -> None:
        """Return every level to power-on state (lines and stats)."""
        self.l1.reset()
        self.l2.reset()
        self.llc.reset()
