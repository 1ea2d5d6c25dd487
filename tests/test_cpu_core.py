"""Tests for the core's detailed and aggregate execution paths."""

import numpy as np
import pytest

from repro.cpu.core import ActivityBlock, Core
from repro.cpu.signals import NUM_SIGNALS, Signal, zero_signals
from repro.isa.spec import Instruction, Program


def _program(core, names, catalog, mem=None):
    program = Program()
    address = core.code_page.base
    for name in names:
        spec = catalog.get(name)
        program.append(Instruction(
            spec=spec, address=address,
            mem_operand=mem if mem is not None else core.data_page.base,
            taken=True))
        address += 4
    return program


class TestDetailedPath:
    def test_load_signals(self, core, isa_catalog):
        program = _program(core, ["MOV r64,m64"], isa_catalog)
        result = core.execute_program(program)
        assert result.signals[Signal.LOADS] == 1
        assert result.signals[Signal.L1D_ACCESS] == 1
        assert result.signals[Signal.L1D_MISS] == 1  # cold cache
        assert result.signals[Signal.MEM_READS] == 1

    def test_second_load_hits(self, core, isa_catalog):
        core.execute_program(_program(core, ["MOV r64,m64"], isa_catalog))
        result = core.execute_program(
            _program(core, ["MOV r64,m64"], isa_catalog))
        assert result.signals[Signal.L1D_MISS] == 0

    def test_clflush_then_load_misses(self, core, isa_catalog):
        core.execute_program(_program(core, ["MOV r64,m64"], isa_catalog))
        result = core.execute_program(
            _program(core, ["CLFLUSH m8", "MOV r64,m64"], isa_catalog))
        assert result.signals[Signal.CACHE_FLUSHES] == 1
        assert result.signals[Signal.L1D_MISS] == 1

    def test_branch_signals(self, core, isa_catalog):
        result = core.execute_program(
            _program(core, ["JE rel8"], isa_catalog))
        assert result.signals[Signal.BRANCHES] == 1
        assert result.signals[Signal.COND_BRANCHES] == 1

    def test_serialize_costs_cycles(self, core, isa_catalog):
        nop = core.execute_program(_program(core, ["NOP"], isa_catalog))
        fresh = Core("amd-epyc-7252", rng=np.random.default_rng(42))
        cpuid = fresh.execute_program(_program(fresh, ["CPUID"], isa_catalog))
        assert cpuid.cycles > nop.cycles
        assert cpuid.signals[Signal.SERIALIZING] == 1

    def test_privileged_instruction_faults(self, core, isa_catalog):
        result = core.execute_program(
            _program(core, ["WBINVD"], isa_catalog))
        assert result.faulted
        assert "#GP" in result.fault_name

    def test_push_pop_balance_stack(self, core, isa_catalog):
        result = core.execute_program(
            _program(core, ["PUSH r64", "POP r64"], isa_catalog))
        assert result.signals[Signal.STACK_OPS] == 2
        assert core._stack_depth == 0

    def test_simd_and_x87_signals(self, core, isa_catalog):
        result = core.execute_program(
            _program(core, ["PADDB xmm,xmm", "FSQRT"], isa_catalog))
        assert result.signals[Signal.SIMD_OPS] == 1
        assert result.signals[Signal.X87_OPS] == 1

    def test_clock_advances(self, core, isa_catalog):
        before = core.clock.cycles
        core.execute_program(_program(core, ["NOP"] * 10, isa_catalog))
        assert core.clock.cycles > before

    def test_hpc_updates_on_execution(self, core, isa_catalog):
        core.hpc.program(0, "RETIRED_UOPS")
        before = core.hpc.rdpmc(0)
        core.execute_program(_program(core, ["ADD r64,r64"] * 50,
                                      isa_catalog))
        assert core.hpc.rdpmc(0) > before


class TestWriteFaults:
    """A write to a read-only or unmapped page ends execution as a #PF
    fault, with the signals and cycles counted so far, whichever
    handler makes it and on every entry point."""

    READ_ONLY = "#PF: write to read-only page 'code' at 0x10000000"
    UNMAPPED = "#PF: write to unmapped address 0x10003038"

    @pytest.mark.parametrize("name,where,fault", [
        ("MOV m64,r64", "code", READ_ONLY),
        ("MOVNTI m64,r64", "code", READ_ONLY),
        ("MOVNTDQ m128,xmm", "code", READ_ONLY),
        ("ADD m64,r64", "code", READ_ONLY),
        ("AND m64,r64", "code", READ_ONLY),
        # The read at the data page's last word succeeds; the write 64
        # bytes further lands in the guard gap.
        ("MOVSB", "data_end", UNMAPPED),
        ("REP STOSQ", "data_end", UNMAPPED),
    ])
    def test_write_fault_on_every_entry_point(self, isa_catalog, name,
                                              where, fault):
        cores = [Core("amd-epyc-7252", rng=np.random.default_rng(42))
                 for _ in range(3)]
        operand = {"code": cores[0].code_page.base,
                   "data_end": cores[0].data_page.end - 8}[where]
        program = _program(cores[0], [name], isa_catalog, mem=operand)
        single = cores[0].execute_program(program)
        assert single.faulted and single.fault_name == fault
        assert single.signals[Signal.INSTRUCTIONS] == 1
        assert single.signals[Signal.L1D_ACCESS] == (where == "data_end")
        assert single.signals[Signal.CYCLES] == 0  # never reached
        assert single.cycles > 0
        batched = cores[1].execute_batch(program, repeats=3)
        assert [(r.faulted, r.fault_name) for r in batched] \
            == [(True, fault)] * 3
        assert np.array_equal(batched[0].signals, single.signals)
        assert batched[0].cycles == single.cycles
        matrix = cores[2].execute_signals(program, 3)
        for result, row in zip(batched, matrix):
            assert np.array_equal(result.signals, row)


class TestBlockPath:
    def test_block_counts_flow_to_hpc(self, core):
        core.hpc.program(0, "RETIRED_UOPS")
        signals = zero_signals()
        signals[Signal.UOPS] = 12345.0
        core.execute_block(ActivityBlock(signals=signals), noisy=False)
        assert core.hpc.rdpmc(0) == 12345

    def test_block_derives_cycles(self, core):
        signals = zero_signals()
        out = core.execute_block(ActivityBlock(signals=signals,
                                               duration_s=1e-3), noisy=False)
        assert out[Signal.CYCLES] == pytest.approx(
            1e-3 * core.clock.frequency_hz)

    def test_noisy_block_adds_interrupts(self, core):
        signals = zero_signals()
        total = 0.0
        for _ in range(200):
            out = core.execute_block(
                ActivityBlock(signals=signals, duration_s=1e-2), noisy=True)
            total += out[Signal.INTERRUPTS]
        assert total > 0  # the un-isolated default rate must show up

    def test_isolation_suppresses_interrupts(self, core):
        core.configure_measurement_environment()
        signals = zero_signals()
        total = 0.0
        for _ in range(100):
            out = core.execute_block(
                ActivityBlock(signals=signals, duration_s=1e-3), noisy=True)
            total += out[Signal.INTERRUPTS]
        assert total < 5

    def test_block_shape_validation(self):
        with pytest.raises(ValueError):
            ActivityBlock(signals=np.zeros(3))
        with pytest.raises(ValueError):
            ActivityBlock(signals=np.zeros(NUM_SIGNALS), duration_s=0.0)
