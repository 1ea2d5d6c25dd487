"""Tests and property tests for the cache models."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.caches import Cache, CacheHierarchy, CacheStats


class ReferenceCache:
    """Reference model: every set preallocated as a list entry, plus the
    index set of non-empty ones. ``Cache`` holds only non-empty sets and
    must behave identically."""

    def __init__(self, size_bytes, ways, line_size=64):
        self.ways = ways
        self.line_size = line_size
        self.num_sets = size_bytes // (ways * line_size)
        self.stats = CacheStats()
        self._sets = [OrderedDict() for _ in range(self.num_sets)]
        self._occupied = set()

    def _locate(self, address):
        line = address // self.line_size
        return line % self.num_sets, line // self.num_sets

    def contains(self, address):
        set_index, tag = self._locate(address)
        return tag in self._sets[set_index]

    def access(self, address, write=False):
        set_index, tag = self._locate(address)
        ways = self._sets[set_index]
        if tag in ways:
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
        self._occupied.add(set_index)
        return False

    def flush(self, address):
        set_index, tag = self._locate(address)
        ways = self._sets[set_index]
        if tag in ways:
            del ways[tag]
            self.stats.flushes += 1
            if not ways:
                self._occupied.discard(set_index)
            return True
        return False

    def flush_all(self):
        for set_index in self._occupied:
            ways = self._sets[set_index]
            self.stats.flushes += len(ways)
            ways.clear()
        self._occupied.clear()

    def reset(self):
        for set_index in self._occupied:
            self._sets[set_index].clear()
        self._occupied.clear()
        self.stats = CacheStats()

    @property
    def occupancy(self):
        return sum(len(self._sets[i]) for i in self._occupied)

    def resident_lines(self):
        return tuple((i, tuple(self._sets[i].items()))
                     for i in sorted(self._occupied) if self._sets[i])


#: Four 2-way sets; lines 0..31 put eight lines on each set, so random
#: access streams evict.
cache_ops = st.lists(st.tuples(
    st.sampled_from(["read", "write", "flush", "contains", "flush_all",
                     "reset"]),
    st.integers(0, 31).map(lambda line: line * 64)), max_size=120)


class TestCacheBasics:
    def test_miss_then_hit(self):
        cache = Cache(1024, ways=2, line_size=64)
        assert cache.access(0x100) is False
        assert cache.access(0x100) is True

    def test_same_line_shares_entry(self):
        cache = Cache(1024, ways=2, line_size=64)
        cache.access(0x100)
        assert cache.access(0x13F) is True  # same 64-byte line
        assert cache.access(0x140) is False  # next line

    def test_lru_eviction_order(self):
        # 2-way set: third distinct tag in one set evicts the oldest.
        cache = Cache(2 * 64, ways=2, line_size=64)  # 1 set
        cache.access(0x0)
        cache.access(0x40)
        cache.access(0x0)       # touch 0x0: now 0x40 is LRU
        cache.access(0x80)      # evicts 0x40
        assert cache.contains(0x0)
        assert not cache.contains(0x40)
        assert cache.contains(0x80)

    def test_flush_removes_line(self):
        cache = Cache(1024, ways=2)
        cache.access(0x200)
        assert cache.flush(0x200) is True
        assert not cache.contains(0x200)
        assert cache.flush(0x200) is False

    def test_flush_all(self):
        cache = Cache(1024, ways=2)
        for i in range(8):
            cache.access(i * 64)
        cache.flush_all()
        assert cache.occupancy == 0

    def test_stats(self):
        cache = Cache(1024, ways=2)
        cache.access(0x0)
        cache.access(0x0)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.miss_rate == pytest.approx(0.5)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            Cache(1000, ways=3, line_size=64)
        with pytest.raises(ValueError):
            Cache(1024, ways=2, line_size=63)


class TestCacheProperties:
    @given(addresses=st.lists(st.integers(0, 2**20), min_size=1,
                              max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, addresses):
        cache = Cache(4096, ways=4, line_size=64)
        capacity_lines = 4096 // 64
        for address in addresses:
            cache.access(address)
            assert cache.occupancy <= capacity_lines

    @given(addresses=st.lists(st.integers(0, 2**16), min_size=1,
                              max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_immediate_rehit(self, addresses):
        cache = Cache(4096, ways=4)
        for address in addresses:
            cache.access(address)
            assert cache.access(address) is True

    @given(addresses=st.lists(st.integers(0, 2**16), min_size=1,
                              max_size=100),
           victim=st.integers(0, 2**16))
    @settings(max_examples=50, deadline=None)
    def test_flush_is_definitive(self, addresses, victim):
        cache = Cache(4096, ways=4)
        for address in addresses:
            cache.access(address)
        cache.flush(victim)
        assert not cache.contains(victim)


class TestCacheMatchesReference:
    @given(ops=cache_ops)
    @settings(max_examples=150, deadline=None)
    def test_same_results_stats_and_lines(self, ops):
        cache = Cache(4 * 2 * 64, ways=2)
        reference = ReferenceCache(4 * 2 * 64, ways=2)
        for op, address in ops:
            if op in ("read", "write"):
                result = (cache.access(address, write=op == "write"),
                          reference.access(address, write=op == "write"))
            elif op in ("flush", "contains"):
                result = (getattr(cache, op)(address),
                          getattr(reference, op)(address))
            else:
                result = (getattr(cache, op)(), getattr(reference, op)())
            assert result[0] == result[1]
            assert cache.stats == reference.stats
            assert cache.occupancy == reference.occupancy
            assert cache.resident_lines() == reference.resident_lines()


class TestHierarchy:
    def test_miss_fills_all_levels(self):
        h = CacheHierarchy()
        outcome = h.access(0x1000)
        assert outcome.memory_access
        assert h.l1.contains(0x1000)
        assert h.l2.contains(0x1000)
        assert h.llc.contains(0x1000)

    def test_l1_hit_after_fill(self):
        h = CacheHierarchy()
        h.access(0x1000)
        outcome = h.access(0x1000)
        assert outcome.l1_hit and not outcome.memory_access

    def test_flush_then_reload_misses_everywhere(self):
        h = CacheHierarchy()
        h.access(0x2000)
        h.flush(0x2000)
        assert not h.contains(0x2000)
        outcome = h.access(0x2000)
        assert outcome.memory_access

    def test_l1_evicted_but_l2_hit(self):
        h = CacheHierarchy(l1_size=2 * 64, l1_ways=2, l2_size=64 * 64,
                           l2_ways=8)
        # Fill one L1 set past capacity; evicted lines stay in L2.
        base = 0x0
        stride = h.l1.num_sets * 64  # same L1 set every time
        for i in range(4):
            h.access(base + i * stride)
        outcome = h.access(base)  # evicted from L1, still in L2
        assert not outcome.l1_hit
        assert outcome.l2_hit
