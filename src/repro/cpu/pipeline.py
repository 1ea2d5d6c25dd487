"""A dispatch/retire pipeline cost model.

The simulator does not model out-of-order scheduling cycle by cycle;
instead the pipeline charges each instruction a cycle cost derived from
its uop count, the core's dispatch width, its nominal latency exposure,
and stall penalties reported by the memory/branch subsystems. This level
of fidelity is what the paper's measurements (counter deltas, execution
time, CPU usage) actually depend on.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PipelinePenalties:
    """Cycle penalties charged for microarchitectural events."""

    l1_miss: int = 10
    l2_miss: int = 30
    llc_miss: int = 140
    branch_mispredict: int = 16
    tlb_miss: int = 25
    serialize: int = 120
    interrupt: int = 800

    def __post_init__(self) -> None:
        # The interpreter charges these without Pipeline.stall's check.
        for name, value in vars(self).items():
            if value < 0:
                raise ValueError(
                    f"penalty {name} must be non-negative, got {value}")


class Pipeline:
    """Accumulates uops and converts them to cycles.

    Parameters
    ----------
    dispatch_width:
        Uops dispatched per cycle when nothing stalls.
    penalties:
        Stall penalties per event kind.
    """

    def __init__(self, dispatch_width: int = 4,
                 penalties: PipelinePenalties | None = None) -> None:
        if dispatch_width < 1:
            raise ValueError(f"dispatch_width must be >= 1, got {dispatch_width}")
        self.dispatch_width = dispatch_width
        self.penalties = penalties or PipelinePenalties()
        self.retired_uops = 0
        self.retired_instructions = 0
        self.stall_cycles = 0

    def issue(self, uops: int, latency: int = 1) -> int:
        """Charge one instruction; returns its base cycle cost.

        Base cost models a throughput-bound stream: ``uops`` divided by
        the dispatch width, with a floor so long-latency instructions
        (DIV, CPUID) still cost more than a cycle even in a stream.
        :meth:`Core.execute_program` charges exactly this inline.
        """
        if uops < 1:
            raise ValueError(f"uops must be >= 1, got {uops}")
        self.retired_uops += uops
        self.retired_instructions += 1
        throughput_cycles = max(1, round(uops / self.dispatch_width))
        exposed_latency = max(0, (latency - 1) // 4)
        return throughput_cycles + exposed_latency

    def stall(self, cycles: int) -> int:
        """Charge a stall (miss penalty etc.); returns the cycles."""
        if cycles < 0:
            raise ValueError(f"cycles must be non-negative, got {cycles}")
        self.stall_cycles += cycles
        return cycles

    def reset_counts(self) -> None:
        """Zero the retirement counters (state between measurements)."""
        self.retired_uops = 0
        self.retired_instructions = 0
        self.stall_cycles = 0
