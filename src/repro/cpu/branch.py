"""A gshare-style branch predictor.

Conditional-branch gadgets change branch-prediction HPC events; the
detailed execution path therefore needs a predictor whose mispredict
counts depend on actual branch history, not a fixed rate.
"""

from __future__ import annotations

import numpy as np


class BranchPredictor:
    """Two-bit saturating counters indexed by PC xor global history."""

    def __init__(self, table_bits: int = 12, history_bits: int = 8) -> None:
        if table_bits < 1 or table_bits > 24:
            raise ValueError(f"table_bits out of range: {table_bits}")
        self.table_bits = table_bits
        self.history_bits = history_bits
        self._table = np.full(1 << table_bits, 1, dtype=np.int8)  # weakly NT
        self._history = 0
        self.predictions = 0
        self.mispredictions = 0

    def _index(self, pc: int) -> int:
        mask = (1 << self.table_bits) - 1
        history = self._history & ((1 << self.history_bits) - 1)
        return ((pc >> 2) ^ history) & mask

    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc``."""
        return bool(self._table[self._index(pc)] >= 2)

    def update(self, pc: int, taken: bool) -> bool:
        """Record the branch outcome; returns True on mispredict.

        Reads the counter once as a Python int and writes it back only
        when it moves: each numpy scalar access costs more than the
        model's own arithmetic.
        """
        table = self._table
        index = self._index(pc)
        counter = table.item(index)
        mispredicted = (counter >= 2) != bool(taken)
        if taken:
            if counter < 3:
                table[index] = counter + 1
        elif counter > 0:
            table[index] = counter - 1
        self._history = ((self._history << 1) | int(taken))
        self.predictions += 1
        self.mispredictions += int(mispredicted)
        return mispredicted

    @property
    def mispredict_rate(self) -> float:
        return self.mispredictions / self.predictions if self.predictions else 0.0

    def reset(self) -> None:
        """Clear predictor state (e.g. across VM world switches)."""
        self._table.fill(1)
        self._history = 0
