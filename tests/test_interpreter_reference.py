"""The detailed interpreter against the implementation it replaced.

``Core.execute_program`` decodes each variant once, adds signals as
Python floats, runs the ITLB, issue and stall steps inline and allocates
nothing per memory access. This module keeps a verbatim copy of the
interpreter it replaced as the reference: ``execute_program``, the class
handlers, ``_data_access`` and ``_charge_memory_stalls``, with one fix
applied (a ``PermissionError`` from any handler ends execution as a
``#PF`` fault, as it always did for STORE). It also keeps the previous
per-access component methods the new path calls differently or that
changed with it: ``Cache.access``, ``CacheHierarchy.access`` (a new
``AccessOutcome`` per access), ``MemoryMap.check_write``,
``StridePrefetcher.observe`` and ``BranchPredictor.update``. Only names
differ from the originals.

A :class:`ReferenceCore` runs all of that on the same state structures,
so the two cores can be compared after every program: equal signal
bytes, cycles, RDPMC values and fault fields, and an equal state
signature, counter snapshot, clock and HPC values.
"""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.fuzzer.generator import ExecutionHarness
from repro.cpu.branch import BranchPredictor
from repro.cpu.caches import AccessOutcome, Cache, CacheHierarchy
from repro.cpu.core import Core, ExecutionResult
from repro.cpu.memory import MemoryMap
from repro.cpu.prefetch import StrideEntry, StridePrefetcher
from repro.cpu.signals import Signal, zero_signals
from repro.isa.catalog import shared_catalog
from repro.isa.spec import Instruction, InstructionClass, Program
from tests.test_batch_equivalence import (EVENTS, assert_state_identical,
                                          draw_body, family_specs,
                                          legal_specs, paired_cores)

# -- the reference: the previous interpreter, verbatim ---------------------


class ReferenceCache(Cache):
    def access(self, address: int, write: bool = False) -> bool:
        set_index, tag = self._locate(address)
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


class ReferenceHierarchy(CacheHierarchy):
    def __init__(self) -> None:
        super().__init__()
        self.l1 = ReferenceCache(32 * 1024, 8, 64, name="L1D")
        self.l2 = ReferenceCache(512 * 1024, 8, 64, name="L2")
        self.llc = ReferenceCache(4 * 1024 * 1024, 16, 64, name="LLC")

    def access(self, address: int, write: bool = False) -> AccessOutcome:
        """Access ``address`` through the hierarchy."""
        if self.l1.access(address, write):
            return AccessOutcome(True, True, True, False)
        if self.l2.access(address, write):
            return AccessOutcome(False, True, True, False)
        if self.llc.access(address, write):
            return AccessOutcome(False, False, True, False)
        return AccessOutcome(False, False, False, True)


class ReferenceMemoryMap(MemoryMap):
    def check_write(self, address: int) -> None:
        """Raise ``PermissionError`` unless ``address`` is writable."""
        page = self.page_of(address)
        if page is None:
            raise PermissionError(f"write to unmapped address {address:#x}")
        if not page.writable:
            raise PermissionError(
                f"write to read-only page {page.name!r} at {address:#x}")


class ReferencePrefetcher(StridePrefetcher):
    def observe(self, pc: int, address: int) -> list[int]:
        """Record a demand access; returns addresses to prefetch."""
        entry = self._table.get(pc)
        if entry is None:
            if len(self._table) >= self.table_entries:
                self._table.popitem(last=False)
            self._table[pc] = StrideEntry(last_address=address)
            return []
        self._table.move_to_end(pc)
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
        return []


class ReferencePredictor(BranchPredictor):
    def update(self, pc: int, taken: bool) -> bool:
        """Record the branch outcome; returns True on mispredict."""
        index = self._index(pc)
        predicted = self._table[index] >= 2
        mispredicted = bool(predicted) != bool(taken)
        if taken and self._table[index] < 3:
            self._table[index] += 1
        elif not taken and self._table[index] > 0:
            self._table[index] -= 1
        self._history = ((self._history << 1) | int(taken))
        self.predictions += 1
        self.mispredictions += int(mispredicted)
        return mispredicted


class ReferenceCore(Core):
    """A core that runs the previous interpreter on its own state."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Same geometry as Core's components; the pages are already
        # mapped, so the memory map keeps its state and gains the old
        # write check.
        self.caches = ReferenceHierarchy()
        self.branch_predictor = ReferencePredictor()
        self.prefetcher = ReferencePrefetcher()
        self.memory.__class__ = ReferenceMemoryMap

    def execute_program(self, program: Program,
                        update_hpc: bool = True) -> ExecutionResult:
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
            handler = CLASS_HANDLERS.get(spec.iclass, _execute_simple)
            try:
                fault = handler(self, instruction, signals)
            except PermissionError as exc:
                fault = f"#PF: {exc}"
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

    def _data_access(self, address: int, signals: np.ndarray,
                     write: bool, pc: int = 0) -> None:
        """Shared load/store path: TLB, hierarchy, signal accounting."""
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


def _execute_simple(core: Core, instruction: Instruction,
                    signals: np.ndarray) -> str:
    spec = instruction.spec
    sig = SIMPLE_SIGNALS.get(spec.iclass)
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
    core._data_access(address, signals, write=True,
                      pc=instruction.address)
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


SIMPLE_SIGNALS: dict[InstructionClass, Signal] = {
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

CLASS_HANDLERS = {
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


# -- comparisons -----------------------------------------------------------


def assert_same_execution(result, expected):
    assert result.signals.dtype == expected.signals.dtype
    assert result.signals.tobytes() == expected.signals.tobytes()
    assert result.cycles == expected.cycles
    assert result.rdpmc_values == expected.rdpmc_values
    assert result.faulted == expected.faulted
    assert result.fault_name == expected.fault_name


def reference_pair(seed, slots=()):
    """A core and a reference core built from one seed, slots programmed
    alike, each with its own harness (which isolates both cores)."""
    core, reference = paired_cores(seed, twin=ReferenceCore)
    for c in (core, reference):
        for slot, event in enumerate(slots):
            c.hpc.program(slot, int(event))
    return (core, ExecutionHarness(core, rng=0),
            reference, ExecutionHarness(reference, rng=0))


def run_pair(core, reference, program, update_hpc):
    result = core.execute_program(program, update_hpc=update_hpc)
    expected = reference.execute_program(program, update_hpc=update_hpc)
    assert_same_execution(result, expected)
    assert_state_identical(core, reference)
    return result


#: Every class's representative variants, SYSTEM (which faults) included.
FAMILY_POOL = tuple(spec for iclass in sorted(family_specs(),
                                              key=lambda ic: ic.name)
                    for spec in family_specs()[iclass])

#: Operand strides of hand-placed programs: one address, string
#: elements, cache lines, one L1 set (4 KiB apart: L1 conflicts, L2
#: hits) and one L2 set (64 KiB apart: LLC hits). Past the data page,
#: reads reach unmapped addresses and writes fault.
STRIDES = (0, 8, 64, 4096, 65536)


def draw_placed_program(data, core):
    """A program placed by hand: code addresses in order or spread over
    more pages than the ITLB holds, operands swept with a stride, and
    sometimes on the code page, the stack or the data page's last
    bytes (where string writes cross into the guard gap)."""
    specs = data.draw(st.lists(
        st.one_of(st.sampled_from(FAMILY_POOL),
                  st.sampled_from(legal_specs())),
        min_size=1, max_size=6))
    length = len(specs) * data.draw(st.integers(1, 4))
    code_stride = data.draw(st.sampled_from((4, 4096)))
    anchor = data.draw(st.sampled_from((
        0, core.data_page.base, core.data_page.end - 8,
        core.code_page.base, core.stack_page.base)))
    stride = data.draw(st.sampled_from(STRIDES))
    period = data.draw(st.integers(1, 12))
    taken = data.draw(st.lists(st.booleans(), min_size=length,
                               max_size=length))
    return Program([
        Instruction(spec=specs[i % len(specs)],
                    address=core.code_page.base + code_stride * i,
                    mem_operand=(anchor + stride * (i % period)
                                 if anchor else 0),
                    taken=taken[i])
        for i in range(length)])


#: Variants that load from their operand through the data path.
SWEEP_POOL = tuple(spec for spec in FAMILY_POOL
                   if spec.reads_memory and spec.iclass not in (
                       InstructionClass.CLFLUSH, InstructionClass.PREFETCH,
                       InstructionClass.POP, InstructionClass.RET,
                       InstructionClass.PUSH))


def draw_sweep_program(data, core):
    """Two laps of loads over more lines than one L1 set (4 KiB apart)
    or one L2 set (64 KiB apart) holds: the second lap hits L2 (or the
    LLC) after conflict evictions."""
    spec = data.draw(st.sampled_from(SWEEP_POOL))
    stride = data.draw(st.sampled_from((4096, 65536)))
    lap = data.draw(st.integers(9, 17))
    return Program([
        Instruction(spec=spec, address=core.code_page.base + 4 * i,
                    mem_operand=core.data_page.base + stride * (i % lap),
                    taken=True)
        for i in range(2 * lap)])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_interpreter_matches_reference(data):
    """Sequences of programs run alike on the interpreter and the
    reference, with state carried over, reset or warmed in between."""
    slots = data.draw(st.lists(st.sampled_from(EVENTS.tolist()),
                               max_size=4, unique=True))
    core, harness, reference, reference_harness = reference_pair(
        data.draw(st.integers(0, 2**32 - 1)), slots)
    for _ in range(data.draw(st.integers(1, 4))):
        between = data.draw(st.sampled_from(("carry", "reset", "warm")))
        if between != "carry":
            for c, h in ((core, harness), (reference, reference_harness)):
                c.reset_microarch_state()
                if between == "warm":
                    h.warm_measurement_state()
        kind = data.draw(st.sampled_from(("harness", "placed", "sweep")))
        if kind == "harness":
            body = draw_body(data) + data.draw(st.lists(
                st.sampled_from(FAMILY_POOL), max_size=2))
            program = harness.build_program(
                body, repeats=data.draw(st.integers(0, 8)),
                include_frame=data.draw(st.booleans()))
        elif kind == "placed":
            program = draw_placed_program(data, core)
        else:
            program = draw_sweep_program(data, core)
        run_pair(core, reference, program, data.draw(st.booleans()))


def _placed(core, name, operand):
    spec = shared_catalog().get(name)
    return Program([Instruction(spec=spec, address=core.code_page.base,
                                mem_operand=operand, taken=True)])


class TestReferenceCases:
    """Fixed cases the property's draws reach only sometimes."""

    @pytest.mark.parametrize("stride,lap", [(4096, 12), (65536, 10)])
    def test_conflict_sweeps(self, stride, lap):
        """Lines swept through one L1 (then one L2) set, twice: the
        second lap hits L2 (then the LLC) after conflict evictions."""
        core, _, reference, _ = reference_pair(3)
        for spec in FAMILY_POOL:
            if spec.iclass is InstructionClass.SYSTEM:
                continue
            program = Program([
                Instruction(spec=spec,
                            address=core.code_page.base + 4 * i,
                            mem_operand=(core.data_page.base
                                         + stride * (i % lap)),
                            taken=bool(i % 3))
                for i in range(2 * lap)])
            run_pair(core, reference, program, update_hpc=False)

    def test_rdpmc_reads_with_programmed_slots(self):
        core, harness, reference, _ = reference_pair(
            5, slots=EVENTS.tolist())
        families = family_specs()
        body = [families[InstructionClass.LOAD][0],
                families[InstructionClass.RDPMC][0]]
        for update_hpc in (True, False, True):
            result = run_pair(core, reference,
                              harness.build_program(body, repeats=3),
                              update_hpc)
            assert len(result.rdpmc_values) == 3 * len(EVENTS)

    def test_stale_outcome_after_a_fault(self):
        """A string write that faults after the same instruction's read
        leaves that read's stall uncharged; the next program charges
        it."""
        core, _, reference, _ = reference_pair(7)
        faulting = _placed(core, "MOVSB", core.data_page.end - 8)
        assert run_pair(core, reference, faulting, True).faulted
        assert core._last_outcome is not None
        run_pair(core, reference, _placed(core, "NOP", 0), True)
        assert core._last_outcome is None
