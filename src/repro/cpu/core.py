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
from repro.cpu.signals import NUM_SIGNALS, Signal
from repro.cpu.tlb import Tlb
from repro.isa.spec import (Instruction, InstructionClass,
                            InstructionSpec, Program)
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
        # Outcome of the last demand data access, until the interpreter
        # charges its stall cycles.
        self._last_outcome = None
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

        A faulting instruction (a privileged SYSTEM instruction, already
        removed by the cleanup step in normal fuzzing flows, or a write
        to a read-only or unmapped address) ends execution with
        ``faulted=True`` and the signals and cycles counted so far.

        Each instruction costs only the model's own work: its variant is
        decoded once per process (:func:`decode_spec`), signals add up
        as Python floats in one list that becomes an array at the end,
        and the ITLB lookup, the issue charge and the stall charge for
        the last data access run inline. Counters the loop advances are
        written back once, also when an instruction raises.
        """
        self._pristine = False
        self._canonical = False
        sig = [0.0] * NUM_SIGNALS
        rdpmc_values: list[int] = []
        pipeline = self.pipeline
        penalties = pipeline.penalties
        width = pipeline.dispatch_width
        tlb_miss = penalties.tlb_miss
        l1_miss = penalties.l1_miss
        l2_miss = penalties.l2_miss
        llc_miss = penalties.llc_miss
        itlb = self.itlb
        itlb_pages = itlb._pages
        itlb_page_size = itlb.page_size
        itlb_entries = itlb.entries
        decoded = _DECODED
        cycles = stalled = retired = retired_uops = 0
        itlb_hits = itlb_misses = 0
        fault = ""
        try:
            for instruction in program.instructions:
                # Instruction fetch: ITLB translation of the code address.
                page = instruction.address // itlb_page_size
                if page in itlb_pages:
                    itlb_pages.move_to_end(page)
                    itlb_hits += 1
                else:
                    itlb_misses += 1
                    if len(itlb_pages) >= itlb_entries:
                        itlb_pages.popitem(last=False)
                    itlb_pages[page] = None
                    sig[_ITLB_MISS] += 1.0
                    cycles += tlb_miss
                    stalled += tlb_miss
                spec = instruction.spec
                record = decoded.get(id(spec))
                if record is None:
                    record = decode_spec(spec)
                    if record.uops < 1:
                        raise ValueError(
                            f"uops must be >= 1, got {record.uops}")
                # Issue: Pipeline.issue's charge (round() is Python's
                # banker's rounding, as there).
                uops = record.uops
                retired += 1
                retired_uops += uops
                cycles += (round(uops / width) or 1) + record.exposed_latency
                signal = record.signal
                if signal is not None:
                    sig[signal] += 1.0
                handler = record.handler
                if handler is not None:
                    try:
                        fault = handler(self, instruction, sig, record)
                    except PermissionError as exc:
                        # A write to a read-only or unmapped page.
                        fault = f"#PF: {exc}"
                    if fault:
                        break
                # Stall cycles implied by the most recent access.
                outcome = self._last_outcome
                if outcome is not None:
                    self._last_outcome = None
                    if outcome.memory_access:
                        cycles += llc_miss
                        stalled += llc_miss
                    elif not outcome.l2_hit:
                        cycles += l2_miss
                        stalled += l2_miss
                    elif not outcome.l1_hit:
                        cycles += l1_miss
                        stalled += l1_miss
                if record.rdpmc:
                    slots = self.hpc.programmed_slots()
                    if slots:
                        # Counters observe everything retired so far.
                        rdpmc_values.extend(
                            self.hpc.rdpmc(slot) for slot in slots)
        finally:
            itlb.hits += itlb_hits
            itlb.misses += itlb_misses
            pipeline.retired_instructions += retired
            pipeline.retired_uops += retired_uops
            pipeline.stall_cycles += stalled
        sig[_INSTRUCTIONS] += retired
        sig[_UOPS] += retired_uops
        signals = np.array(sig)
        if fault:
            return ExecutionResult(signals=signals, cycles=cycles,
                                   rdpmc_values=rdpmc_values,
                                   faulted=True, fault_name=fault)
        if update_hpc:
            self.hpc.accumulate(signals)
        signals[_CYCLES] += cycles
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


# Signal indices as plain ints: the interpreter's signal list is indexed
# on every instruction, and an IntEnum member costs an attribute lookup.
_CYCLES = int(Signal.CYCLES)
_INSTRUCTIONS = int(Signal.INSTRUCTIONS)
_UOPS = int(Signal.UOPS)
_LOADS = int(Signal.LOADS)
_STORES = int(Signal.STORES)
_L1D_ACCESS = int(Signal.L1D_ACCESS)
_L1D_MISS = int(Signal.L1D_MISS)
_L2_ACCESS = int(Signal.L2_ACCESS)
_L2_MISS = int(Signal.L2_MISS)
_LLC_ACCESS = int(Signal.LLC_ACCESS)
_LLC_MISS = int(Signal.LLC_MISS)
_MEM_READS = int(Signal.MEM_READS)
_MEM_WRITES = int(Signal.MEM_WRITES)
_BRANCHES = int(Signal.BRANCHES)
_BRANCH_MISS = int(Signal.BRANCH_MISS)
_COND_BRANCHES = int(Signal.COND_BRANCHES)
_CALLS = int(Signal.CALLS)
_RETURNS = int(Signal.RETURNS)
_ITLB_MISS = int(Signal.ITLB_MISS)
_DTLB_MISS = int(Signal.DTLB_MISS)
_TLB_FLUSHES = int(Signal.TLB_FLUSHES)
_STACK_OPS = int(Signal.STACK_OPS)
_PREFETCHES = int(Signal.PREFETCHES)
_CACHE_FLUSHES = int(Signal.CACHE_FLUSHES)
_MAB_ALLOC = int(Signal.MAB_ALLOC)


def _data_access(core: Core, address: int, sig: list[float],
                 write: bool, pc: int = 0) -> None:
    """Shared load/store path: TLB, hierarchy, signal accounting.

    Demand accesses also train the stride prefetcher; confident
    strides issue hardware prefetches that fill the hierarchy and
    show up on the prefetch/MAB signals (without stalling the
    pipeline). A write to a read-only or unmapped address raises
    ``PermissionError`` before touching any state.
    """
    if write:
        core.memory.check_write(address)
    if not core.dtlb.access(address):
        sig[_DTLB_MISS] += 1.0
    outcome = core._last_outcome = core.caches.access(address, write)
    sig[_L1D_ACCESS] += 1.0
    # An L1 hit is an L2 hit, and an L2 hit never reaches memory.
    if not outcome.l1_hit:
        sig[_L1D_MISS] += 1.0
        sig[_MAB_ALLOC] += 1.0
        sig[_L2_ACCESS] += 1.0
        if not outcome.l2_hit:
            sig[_L2_MISS] += 1.0
            sig[_LLC_ACCESS] += 1.0
            if outcome.memory_access:
                sig[_LLC_MISS] += 1.0
                sig[_MEM_READS] += 1.0
    if pc:
        for target in core.prefetcher.observe(pc, address):
            sig[_PREFETCHES] += 1.0
            if core.caches.access(target, False).memory_access:
                sig[_MAB_ALLOC] += 1.0
                sig[_MEM_READS] += 1.0


# Class handlers: ``handler(core, instruction, sig, record)`` charges
# everything but the class signal (which the loop adds first) and
# returns a fault name, or "" to continue.


def _execute_simple(core: Core, instruction: Instruction, sig: list[float],
                    record: "DecodedSpec") -> str:
    address = instruction.mem_operand or core.data_page.base
    if record.reads_memory:
        _data_access(core, address, sig, False, instruction.address)
        sig[_LOADS] += 1.0
    if record.writes_memory:
        _data_access(core, address, sig, True, instruction.address)
        sig[_STORES] += 1.0
    return ""


def _execute_load(core: Core, instruction: Instruction, sig: list[float],
                  record: "DecodedSpec") -> str:
    sig[_LOADS] += 1.0
    _data_access(core, instruction.mem_operand or core.data_page.base, sig,
                 False, instruction.address)
    return ""


def _execute_store(core: Core, instruction: Instruction, sig: list[float],
                   record: "DecodedSpec") -> str:
    sig[_STORES] += 1.0
    _data_access(core, instruction.mem_operand or core.data_page.base, sig,
                 True, instruction.address)
    return ""


def _execute_nontemporal_store(core: Core, instruction: Instruction,
                               sig: list[float],
                               record: "DecodedSpec") -> str:
    _execute_store(core, instruction, sig, record)
    # Non-temporal stores bypass the hierarchy and write to memory.
    sig[_MEM_WRITES] += 1.0
    return ""


def _execute_branch(core: Core, instruction: Instruction, sig: list[float],
                    record: "DecodedSpec") -> str:
    sig[_BRANCHES] += 1.0
    if record.conditional:
        sig[_COND_BRANCHES] += 1.0
        taken = instruction.taken
    else:
        taken = True
    if core.branch_predictor.update(instruction.address, taken):
        sig[_BRANCH_MISS] += 1.0
        core.pipeline.stall(core.pipeline.penalties.branch_mispredict)
    return ""


def _execute_call(core: Core, instruction: Instruction, sig: list[float],
                  record: "DecodedSpec") -> str:
    sig[_BRANCHES] += 1.0
    sig[_CALLS] += 1.0
    sig[_STACK_OPS] += 1.0
    core._stack_depth += 8
    stack = core.stack_page
    _data_access(core, stack.base + (core._stack_depth % stack.size), sig,
                 True)
    sig[_STORES] += 1.0
    core.branch_predictor.update(instruction.address, True)
    return ""


def _execute_ret(core: Core, instruction: Instruction, sig: list[float],
                 record: "DecodedSpec") -> str:
    sig[_BRANCHES] += 1.0
    sig[_RETURNS] += 1.0
    sig[_STACK_OPS] += 1.0
    stack = core.stack_page
    address = stack.base + (core._stack_depth % stack.size)
    core._stack_depth = max(0, core._stack_depth - 8)
    _data_access(core, address, sig, False)
    sig[_LOADS] += 1.0
    return ""


def _execute_push(core: Core, instruction: Instruction, sig: list[float],
                  record: "DecodedSpec") -> str:
    sig[_STACK_OPS] += 1.0
    sig[_STORES] += 1.0
    core._stack_depth += 8
    stack = core.stack_page
    _data_access(core, stack.base + (core._stack_depth % stack.size), sig,
                 True)
    return ""


def _execute_pop(core: Core, instruction: Instruction, sig: list[float],
                 record: "DecodedSpec") -> str:
    sig[_STACK_OPS] += 1.0
    sig[_LOADS] += 1.0
    stack = core.stack_page
    address = stack.base + (core._stack_depth % stack.size)
    core._stack_depth = max(0, core._stack_depth - 8)
    _data_access(core, address, sig, False)
    return ""


def _execute_clflush(core: Core, instruction: Instruction, sig: list[float],
                     record: "DecodedSpec") -> str:
    sig[_CACHE_FLUSHES] += 1.0
    core.caches.flush(instruction.mem_operand or core.data_page.base)
    return ""


def _execute_prefetch(core: Core, instruction: Instruction, sig: list[float],
                      record: "DecodedSpec") -> str:
    sig[_PREFETCHES] += 1.0
    address = instruction.mem_operand or core.data_page.base
    if core.caches.access(address, False).memory_access:
        sig[_MEM_READS] += 1.0
        sig[_MAB_ALLOC] += 1.0
    return ""


def _execute_serialize(core: Core, instruction: Instruction,
                       sig: list[float], record: "DecodedSpec") -> str:
    core.pipeline.stall(core.pipeline.penalties.serialize)
    return ""


def _execute_tlb_flush(core: Core, instruction: Instruction,
                       sig: list[float], record: "DecodedSpec") -> str:
    sig[_TLB_FLUSHES] += 1.0
    core.dtlb.flush()
    core.itlb.flush()
    return ""


def _execute_string(core: Core, instruction: Instruction, sig: list[float],
                    record: "DecodedSpec") -> str:
    base = instruction.mem_operand or core.data_page.base
    pc = instruction.address
    writes = record.string_writes
    for i in range(record.string_repeats):
        address = base + 8 * i
        sig[_LOADS] += 1.0
        _data_access(core, address, sig, False, pc)
        if writes:
            sig[_STORES] += 1.0
            _data_access(core, address + 64, sig, True, pc + 1)
    return ""


def _execute_system(core: Core, instruction: Instruction, sig: list[float],
                    record: "DecodedSpec") -> str:
    return f"#GP: privileged instruction {instruction.spec.mnemonic}"


#: The signal each class charges once per instruction, before its
#: handler runs. The batch engine's static signal rows read the same
#: table.
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
    InstructionClass.SERIALIZE: Signal.SERIALIZING,
}

#: Classes with their own handler; the others run ``_execute_simple``
#: when they touch memory and no handler at all when they do not.
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
}


class DecodedSpec:
    """One instruction variant, decoded once for the interpreter.

    Holds what the per-instruction path and the harness placement would
    otherwise re-derive from the spec on every instruction: the class
    handler (``None`` for register-only classes), uops and the exposed
    latency of the issue charge, the class signal index, the RDPMC
    flag, the memory flags, and a string op's repeat count and whether
    it writes.
    """

    __slots__ = ("spec", "handler", "uops", "exposed_latency", "signal",
                 "rdpmc", "conditional", "reads_memory", "writes_memory",
                 "mem_operand", "string_repeats", "string_writes")

    def __init__(self, spec: InstructionSpec) -> None:
        iclass = spec.iclass
        self.spec = spec
        self.uops = spec.uops
        self.exposed_latency = max(0, (spec.latency - 1) // 4)
        signal = _SIMPLE_SIGNALS.get(iclass)
        self.signal = None if signal is None else int(signal)
        self.rdpmc = iclass is InstructionClass.RDPMC
        self.conditional = iclass is InstructionClass.BRANCH_COND
        self.reads_memory = spec.reads_memory
        self.writes_memory = spec.writes_memory
        #: Whether placement points the instruction at the data page.
        self.mem_operand = (self.reads_memory or self.writes_memory
                            or "m" in spec.operand_form.value)
        self.string_repeats = 8 if spec.mnemonic.startswith("REP") else 1
        self.string_writes = spec.mnemonic.lstrip("REP ").startswith(
            ("MOVS", "STOS"))
        handler = _CLASS_HANDLERS.get(iclass)
        if handler is None and (self.reads_memory or self.writes_memory):
            handler = _execute_simple
        elif (handler is _execute_store
              and spec.mnemonic.startswith("MOVNT")):
            handler = _execute_nontemporal_store
        self.handler = handler


# Records keyed by spec identity; each record holds its spec, which
# pins the id. Bounded by the variants the process ever executes or
# places (the ISA catalog's), never by programs or addresses.
_DECODED: dict[int, DecodedSpec] = {}


def decode_spec(spec: InstructionSpec) -> DecodedSpec:
    """The decoded record of ``spec``, built on first use."""
    record = _DECODED.get(id(spec))
    if record is None:
        record = DecodedSpec(spec)
        if record.uops >= 1:
            # An invalid variant is decoded (and rejected by the
            # interpreter) on every use, so it never enters the table.
            _DECODED[id(spec)] = record
    return record
