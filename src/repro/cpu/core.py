"""The simulated CPU core.

Two execution granularities share the signal vocabulary:

- :meth:`Core.execute_program` — the *detailed* path. Runs placed
  instructions one by one against real cache/branch/TLB state. This is
  what the Event Fuzzer measures gadgets on: a CLFLUSH really evicts the
  line, so the following load really misses.
- :meth:`Core.execute_block` — the *aggregate* path. Consumes an
  :class:`ActivityBlock` (one slice's signal counts, such as a row of a
  workload's rendered signal matrix), adds interrupt interference, and
  advances the HPC register file. Guest applications execute millions
  of instructions per 1 ms sampling slice; this path makes that
  affordable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.cpu.branch import BranchPredictor
from repro.cpu.caches import CacheHierarchy
from repro.cpu.events import EventCatalog, processor_catalog
from repro.cpu.hpc import HpcRegisterFile
from repro.cpu.interrupts import InterruptSource
from repro.cpu.memory import MemoryMap, Page
from repro.cpu.pipeline import Pipeline, PipelinePenalties
from repro.cpu.prefetch import StridePrefetcher
from repro.cpu.signals import NUM_SIGNALS, Signal, zero_signals
from repro.cpu.tlb import Tlb
from repro.isa.spec import Instruction, InstructionClass, Program
from repro.utils.clock import SimClock
from repro.utils.rng import ensure_rng


@dataclass
class ActivityBlock:
    """Aggregate guest activity for one sampling slice.

    ``signals`` holds the slice's microarchitectural signal counts
    (except CYCLES, which the core derives); ``duration_s`` is the
    nominal wall-clock length of the slice.
    """

    signals: np.ndarray
    duration_s: float = 1e-3

    def __post_init__(self) -> None:
        self.signals = np.asarray(self.signals, dtype=np.float64)
        if self.signals.shape != (NUM_SIGNALS,):
            raise ValueError(
                f"signals must have shape ({NUM_SIGNALS},), got "
                f"{self.signals.shape}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")


@dataclass
class ExecutionResult:
    """Outcome of a detailed program execution."""

    signals: np.ndarray
    cycles: int
    rdpmc_values: list[int] = field(default_factory=list)
    faulted: bool = False
    fault_name: str = ""


class Core:
    """One simulated CPU core with caches, predictor, TLBs and HPCs.

    Parameters
    ----------
    model_name:
        Processor model whose event catalog this core exposes.
    rng:
        Root randomness; children are derived for noise/interrupts.
    frequency_hz:
        Nominal clock used for cycle/second conversions.
    """

    def __init__(self, model_name: str = "amd-epyc-7252",
                 rng: "int | np.random.Generator | None" = None,
                 frequency_hz: float = 3.1e9) -> None:
        root = ensure_rng(rng)
        self.model_name = model_name
        self.catalog: EventCatalog = processor_catalog(model_name)
        self.caches = CacheHierarchy()
        self.branch_predictor = BranchPredictor()
        self.itlb = Tlb(entries=64, name="ITLB")
        self.dtlb = Tlb(entries=64, name="DTLB")
        self.prefetcher = StridePrefetcher()
        self.pipeline = Pipeline(penalties=PipelinePenalties())
        self.clock = SimClock(frequency_hz=frequency_hz)
        self.interrupts = InterruptSource(
            rng=np.random.default_rng(int(root.integers(2**63))))
        self.hpc = HpcRegisterFile(
            self.catalog, rng=np.random.default_rng(int(root.integers(2**63))))
        self.memory = MemoryMap()
        self.code_page: Page = self.memory.map_page("code", executable=True,
                                                    writable=False)
        self.data_page: Page = self.memory.map_page("data")
        self.stack_page: Page = self.memory.map_page("stack")
        self._rng = root
        self._stack_depth = 0
        # Canonical-state tracking for the batch engine: ``_pristine``
        # means the microarch state is exactly post-reset; the harness
        # warm-up promotes that to ``_canonical`` (reset + deterministic
        # warm-up), the state the screening memo is keyed against. Any
        # execution invalidates both.
        self._pristine = True
        self._canonical = False

    # ---------------- detailed per-instruction path ----------------

    def execute_program(self, program: Program,
                        update_hpc: bool = True) -> ExecutionResult:
        """Execute placed instructions and return signals + cycles.

        Faulting system instructions (already removed by the cleanup
        step in normal fuzzing flows) terminate execution with
        ``faulted=True``.
        """
        self._pristine = False
        self._canonical = False
        signals = zero_signals()
        cycles = 0
        rdpmc_values: list[int] = []
        penalties = self.pipeline.penalties
        for instruction in program.instructions:
            spec = instruction.spec
            # Instruction fetch: ITLB translation on the code address.
            if not self.itlb.access(instruction.address):
                signals[Signal.ITLB_MISS] += 1
                cycles += self.pipeline.stall(penalties.tlb_miss)
            signals[Signal.INSTRUCTIONS] += 1
            signals[Signal.UOPS] += spec.uops
            cycles += self.pipeline.issue(spec.uops, spec.latency)
            handler = _CLASS_HANDLERS.get(spec.iclass, _execute_simple)
            fault = handler(self, instruction, signals)
            if fault:
                return ExecutionResult(signals=signals, cycles=cycles,
                                       rdpmc_values=rdpmc_values,
                                       faulted=True, fault_name=fault)
            cycles += self._charge_memory_stalls(signals)
            if spec.iclass is InstructionClass.RDPMC:
                slots = self.hpc.programmed_slots()
                if slots:
                    # Counters observe everything retired so far.
                    rdpmc_values.extend(
                        self.hpc.rdpmc(slot) for slot in slots)
        if update_hpc:
            self.hpc.accumulate(signals)
        signals[Signal.CYCLES] += cycles
        self.clock.advance(cycles)
        return ExecutionResult(signals=signals, cycles=cycles,
                               rdpmc_values=rdpmc_values)

    def execute_batch(self, programs: "Program | list[Program] | None" = None,
                      update_hpc: bool = True, *,
                      repeats: "int | None" = None
                      ) -> list[ExecutionResult]:
        """Execute a batch of programs back to back, one result each.

        The batch is a single submission of sequential executions:
        microarchitectural state deliberately carries over from one
        program to the next, exactly as if the caller had looped over
        :meth:`execute_program` itself — the vectorized engine in
        :mod:`repro.cpu.batch` is proven bit-identical to that loop by
        the differential equivalence suite.

        ``programs`` may be a list, or a single :class:`Program`
        combined with ``repeats`` (execute it that many times).
        """
        from repro.cpu import batch
        return self._submit(batch.execute_batch, programs,
                            update_hpc=update_hpc, repeats=repeats)

    def execute_signals(self, program: Program,
                        repeats: int) -> np.ndarray:
        """Signals of ``repeats`` back-to-back executions of ``program``.

        The same submission as ``execute_batch(program,
        update_hpc=False, repeats=repeats)``, returned as one
        ``(repeats, NUM_SIGNALS)`` matrix for measurements that read
        nothing but the signals.
        """
        from repro.cpu import batch
        return self._submit(batch.execute_signals, program, repeats)

    def _submit(self, engine, *args, **kwargs):
        """Run one batch submission, observed as ``batch.execute``."""
        from repro.observability import runtime as observability
        obs = observability.active()
        if not obs.enabled:
            return engine(self, *args, **kwargs)
        start = time.perf_counter()
        result = engine(self, *args, **kwargs)
        obs.slo.observe("batch.execute", time.perf_counter() - start)
        return result

    def _charge_memory_stalls(self, signals: np.ndarray) -> int:
        """Stall cycles implied by the most recent access outcome."""
        outcome = self._last_outcome
        self._last_outcome = None
        if outcome is None:
            return 0
        penalties = self.pipeline.penalties
        if outcome.memory_access:
            return self.pipeline.stall(penalties.llc_miss)
        if not outcome.l2_hit:
            return self.pipeline.stall(penalties.l2_miss)
        if not outcome.l1_hit:
            return self.pipeline.stall(penalties.l1_miss)
        return 0

    _last_outcome = None

    def _data_access(self, address: int, signals: np.ndarray,
                     write: bool, pc: int = 0) -> None:
        """Shared load/store path: TLB, hierarchy, signal accounting.

        Demand accesses also train the stride prefetcher; confident
        strides issue hardware prefetches that fill the hierarchy and
        show up on the prefetch/MAB signals (without stalling the
        pipeline).
        """
        if write:
            self.memory.check_write(address)
        if not self.dtlb.access(address):
            signals[Signal.DTLB_MISS] += 1
        outcome = self.caches.access(address, write=write)
        self._last_outcome = outcome
        signals[Signal.L1D_ACCESS] += 1
        if outcome.l1_miss:
            signals[Signal.L1D_MISS] += 1
            signals[Signal.MAB_ALLOC] += 1
            signals[Signal.L2_ACCESS] += 1
        if not outcome.l2_hit:
            signals[Signal.L2_MISS] += 1
            signals[Signal.LLC_ACCESS] += 1
        if outcome.memory_access:
            signals[Signal.LLC_MISS] += 1
            signals[Signal.MEM_READS] += 1
        if pc:
            for target in self.prefetcher.observe(pc, address):
                pf_outcome = self.caches.access(target, write=False)
                signals[Signal.PREFETCHES] += 1
                if pf_outcome.memory_access:
                    signals[Signal.MAB_ALLOC] += 1
                    signals[Signal.MEM_READS] += 1

    # ----------------- aggregate block path ------------------------

    def execute_block(self, block: ActivityBlock,
                      noisy: bool = True) -> np.ndarray:
        """Consume one activity slice; returns the effective signals.

        Adds interrupt interference (each interrupt perturbs cycles and
        instruction-path signals), derives CYCLES from the slice
        duration, advances the clock, and feeds the HPC register file.
        """
        self._pristine = False
        self._canonical = False
        signals = block.signals.copy()
        cycles = block.duration_s * self.clock.frequency_hz
        if noisy:
            n_irq = self.interrupts.interrupts_during(block.duration_s)
            if n_irq:
                signals[Signal.INTERRUPTS] += n_irq
                signals[Signal.INSTRUCTIONS] += 400.0 * n_irq
                signals[Signal.UOPS] += 700.0 * n_irq
                cycles += self.pipeline.penalties.interrupt * n_irq
        signals[Signal.CYCLES] += cycles
        self.clock.advance(int(cycles))
        self.hpc.accumulate(signals, noisy=noisy)
        return signals

    # ----------------- measurement helpers -------------------------

    def reset_microarch_state(self) -> None:
        """Return caches/TLBs/predictor/prefetcher to power-on state.

        The Event Fuzzer's screening stage measures every gadget from
        this known state (plus a deterministic warm-up) so that a
        gadget's screening delta is independent of whichever gadgets
        happened to execute before it — the property that makes sharded
        campaigns produce identical results for any shard partition.
        """
        self.caches.reset()
        self.branch_predictor.reset()
        self.itlb.reset()
        self.dtlb.reset()
        self.prefetcher.reset()
        self._stack_depth = 0
        self._last_outcome = None
        self._pristine = True
        self._canonical = False

    def configure_measurement_environment(self) -> None:
        """Apply the harness mitigations from the paper (Section VI-D):
        pin the process and isolate the core so interrupts are rare."""
        self.interrupts.pin_process()
        self.interrupts.isolate_core()

    def serialize(self) -> None:
        """Drain the pipeline (CPUID-style barrier around measurements)."""
        self.clock.advance(self.pipeline.penalties.serialize)


def _execute_simple(core: Core, instruction: Instruction,
                    signals: np.ndarray) -> str:
    spec = instruction.spec
    sig = _SIMPLE_SIGNALS.get(spec.iclass)
    if sig is not None:
        signals[sig] += 1
    if spec.reads_memory:
        core._data_access(instruction.mem_operand or core.data_page.base,
                          signals, write=False, pc=instruction.address)
        signals[Signal.LOADS] += 1
    if spec.writes_memory:
        core._data_access(instruction.mem_operand or core.data_page.base,
                          signals, write=True, pc=instruction.address)
        signals[Signal.STORES] += 1
    return ""


def _execute_load(core: Core, instruction: Instruction,
                  signals: np.ndarray) -> str:
    signals[Signal.LOADS] += 1
    core._data_access(instruction.mem_operand or core.data_page.base,
                      signals, write=False, pc=instruction.address)
    return ""


def _execute_store(core: Core, instruction: Instruction,
                   signals: np.ndarray) -> str:
    signals[Signal.STORES] += 1
    address = instruction.mem_operand or core.data_page.base
    try:
        core._data_access(address, signals, write=True,
                          pc=instruction.address)
    except PermissionError as exc:
        return f"#PF: {exc}"
    if instruction.spec.mnemonic.startswith("MOVNT"):
        # Non-temporal stores bypass the hierarchy and write to memory.
        signals[Signal.MEM_WRITES] += 1
    return ""


def _execute_branch(core: Core, instruction: Instruction,
                    signals: np.ndarray) -> str:
    spec = instruction.spec
    signals[Signal.BRANCHES] += 1
    if spec.iclass is InstructionClass.BRANCH_COND:
        signals[Signal.COND_BRANCHES] += 1
        taken = instruction.taken
    else:
        taken = True
    mispredicted = core.branch_predictor.update(instruction.address, taken)
    if mispredicted:
        signals[Signal.BRANCH_MISS] += 1
        core.pipeline.stall(core.pipeline.penalties.branch_mispredict)
    return ""


def _execute_call(core: Core, instruction: Instruction,
                  signals: np.ndarray) -> str:
    signals[Signal.BRANCHES] += 1
    signals[Signal.CALLS] += 1
    signals[Signal.STACK_OPS] += 1
    core._stack_depth += 8
    address = core.stack_page.base + (core._stack_depth % core.stack_page.size)
    core._data_access(address, signals, write=True)
    signals[Signal.STORES] += 1
    core.branch_predictor.update(instruction.address, True)
    return ""


def _execute_ret(core: Core, instruction: Instruction,
                 signals: np.ndarray) -> str:
    signals[Signal.BRANCHES] += 1
    signals[Signal.RETURNS] += 1
    signals[Signal.STACK_OPS] += 1
    address = core.stack_page.base + (core._stack_depth % core.stack_page.size)
    core._stack_depth = max(0, core._stack_depth - 8)
    core._data_access(address, signals, write=False)
    signals[Signal.LOADS] += 1
    return ""


def _execute_push(core: Core, instruction: Instruction,
                  signals: np.ndarray) -> str:
    signals[Signal.STACK_OPS] += 1
    signals[Signal.STORES] += 1
    core._stack_depth += 8
    address = core.stack_page.base + (core._stack_depth % core.stack_page.size)
    core._data_access(address, signals, write=True)
    return ""


def _execute_pop(core: Core, instruction: Instruction,
                 signals: np.ndarray) -> str:
    signals[Signal.STACK_OPS] += 1
    signals[Signal.LOADS] += 1
    address = core.stack_page.base + (core._stack_depth % core.stack_page.size)
    core._stack_depth = max(0, core._stack_depth - 8)
    core._data_access(address, signals, write=False)
    return ""


def _execute_clflush(core: Core, instruction: Instruction,
                     signals: np.ndarray) -> str:
    signals[Signal.CACHE_FLUSHES] += 1
    core.caches.flush(instruction.mem_operand or core.data_page.base)
    return ""


def _execute_prefetch(core: Core, instruction: Instruction,
                      signals: np.ndarray) -> str:
    signals[Signal.PREFETCHES] += 1
    address = instruction.mem_operand or core.data_page.base
    outcome = core.caches.access(address, write=False)
    if outcome.memory_access:
        signals[Signal.MEM_READS] += 1
        signals[Signal.MAB_ALLOC] += 1
    return ""


def _execute_serialize(core: Core, instruction: Instruction,
                       signals: np.ndarray) -> str:
    signals[Signal.SERIALIZING] += 1
    core.pipeline.stall(core.pipeline.penalties.serialize)
    return ""


def _execute_tlb_flush(core: Core, instruction: Instruction,
                       signals: np.ndarray) -> str:
    signals[Signal.TLB_FLUSHES] += 1
    core.dtlb.flush()
    core.itlb.flush()
    return ""


def _execute_string(core: Core, instruction: Instruction,
                    signals: np.ndarray) -> str:
    repeats = 8 if instruction.spec.mnemonic.startswith("REP") else 1
    base = instruction.mem_operand or core.data_page.base
    for i in range(repeats):
        address = base + 8 * i
        signals[Signal.LOADS] += 1
        core._data_access(address, signals, write=False,
                          pc=instruction.address)
        if instruction.spec.mnemonic.lstrip("REP ").startswith(("MOVS", "STOS")):
            signals[Signal.STORES] += 1
            core._data_access(address + 64, signals, write=True,
                              pc=instruction.address + 1)
    return ""


def _execute_system(core: Core, instruction: Instruction,
                    signals: np.ndarray) -> str:
    return f"#GP: privileged instruction {instruction.spec.mnemonic}"


def _execute_rdpmc(core: Core, instruction: Instruction,
                   signals: np.ndarray) -> str:
    signals[Signal.SERIALIZING] += 0.0  # reads are handled by the core loop
    return ""


_SIMPLE_SIGNALS: dict[InstructionClass, Signal] = {
    InstructionClass.ALU: Signal.BIT_OPS,
    InstructionClass.BIT: Signal.BIT_OPS,
    InstructionClass.MUL: Signal.MUL_OPS,
    InstructionClass.DIV: Signal.DIV_OPS,
    InstructionClass.X87: Signal.X87_OPS,
    InstructionClass.SIMD_INT: Signal.SIMD_OPS,
    InstructionClass.SIMD_FP: Signal.FP_OPS,
    InstructionClass.FMA: Signal.FP_OPS,
    InstructionClass.CRYPTO: Signal.CRYPTO_OPS,
    InstructionClass.NOP: Signal.NOP_OPS,
    InstructionClass.FENCE: Signal.SERIALIZING,
}

_CLASS_HANDLERS = {
    InstructionClass.LOAD: _execute_load,
    InstructionClass.STORE: _execute_store,
    InstructionClass.BRANCH_COND: _execute_branch,
    InstructionClass.BRANCH_UNCOND: _execute_branch,
    InstructionClass.CALL: _execute_call,
    InstructionClass.RET: _execute_ret,
    InstructionClass.PUSH: _execute_push,
    InstructionClass.POP: _execute_pop,
    InstructionClass.CLFLUSH: _execute_clflush,
    InstructionClass.PREFETCH: _execute_prefetch,
    InstructionClass.FENCE: _execute_serialize,
    InstructionClass.SERIALIZE: _execute_serialize,
    InstructionClass.TLB_FLUSH: _execute_tlb_flush,
    InstructionClass.STRING: _execute_string,
    InstructionClass.SYSTEM: _execute_system,
    InstructionClass.RDPMC: _execute_rdpmc,
}
