"""A stride-based hardware prefetcher.

Prefetchers matter to the fuzzer's world: a streaming trigger sequence
(REP MOVS, sequential loads) trains the stride detector, and the
prefetches it issues perturb the prefetch/MAB/fill events — another
family of gadget root causes. The model is a classic reference
predictor: per-PC stride entries with a 2-bit confidence counter that
issue a configurable prefetch depth once confident.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


#: What :meth:`StridePrefetcher.observe` returns when it issues nothing.
_NOTHING: tuple[()] = ()


@dataclass
class StrideEntry:
    """One prefetch-table entry."""

    last_address: int
    stride: int = 0
    confidence: int = 0


class StridePrefetcher:
    """Per-PC stride detector issuing next-line prefetches.

    Parameters
    ----------
    table_entries:
        Capacity of the PC-indexed table (LRU replacement).
    depth:
        Cache lines prefetched ahead once the stride is confident.
    line_size:
        Cache line size used for next-line arithmetic.
    """

    def __init__(self, table_entries: int = 16, depth: int = 2,
                 line_size: int = 64) -> None:
        if table_entries < 1 or depth < 1:
            raise ValueError("table_entries and depth must be >= 1")
        self.table_entries = table_entries
        self.depth = depth
        self.line_size = line_size
        self._table: OrderedDict[int, StrideEntry] = OrderedDict()
        self.issued = 0
        self.trained = 0

    def observe(self, pc: int, address: int) -> "list[int] | tuple[()]":
        """Record a demand access; returns addresses to prefetch.

        Most accesses issue nothing and get one shared empty tuple, so
        observing allocates only the prefetches it issues.
        """
        table = self._table
        entry = table.get(pc)
        if entry is None:
            if len(table) >= self.table_entries:
                table.popitem(last=False)
            table[pc] = StrideEntry(last_address=address)
            return _NOTHING
        table.move_to_end(pc)
        stride = address - entry.last_address
        if stride != 0 and stride == entry.stride:
            entry.confidence = min(3, entry.confidence + 1)
        else:
            entry.confidence = max(0, entry.confidence - 1)
            entry.stride = stride
        entry.last_address = address
        if entry.confidence >= 2 and entry.stride != 0:
            self.trained += 1
            prefetches = [address + entry.stride * (i + 1)
                          for i in range(self.depth)]
            self.issued += len(prefetches)
            return prefetches
        return _NOTHING

    def reset(self) -> None:
        """Flush the table (context/world switch)."""
        self._table.clear()
