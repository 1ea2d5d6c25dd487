"""Tests for branch predictor, TLB, pipeline, memory map, interrupts."""

import numpy as np
import pytest

from repro.cpu.branch import BranchPredictor
from repro.cpu.interrupts import InterruptSource
from repro.cpu.memory import MemoryMap, PAGE_SIZE
from repro.cpu.pipeline import Pipeline, PipelinePenalties
from repro.cpu.tlb import Tlb


class TestBranchPredictor:
    def test_learns_constant_direction(self):
        bp = BranchPredictor()
        for _ in range(10):
            bp.update(0x400, True)
        assert bp.predict(0x400) is True
        assert bp.update(0x400, True) is False  # no mispredict

    def test_alternating_pattern_learned_by_history(self):
        bp = BranchPredictor(history_bits=4)
        mispredicts_late = 0
        for i in range(400):
            mispredicted = bp.update(0x800, i % 2 == 0)
            if i >= 300:
                mispredicts_late += int(mispredicted)
        # With global history the alternation becomes predictable.
        assert mispredicts_late < 20

    def test_mispredict_rate_bounds(self):
        bp = BranchPredictor()
        rng = np.random.default_rng(0)
        for _ in range(500):
            bp.update(int(rng.integers(0, 2**16)), bool(rng.random() < 0.5))
        assert 0.0 <= bp.mispredict_rate <= 1.0

    def test_reset(self):
        bp = BranchPredictor()
        for _ in range(10):
            bp.update(0x400, True)
        bp.reset()
        assert bp.predict(0x400) is False  # back to weakly not-taken

    def test_rejects_bad_table_bits(self):
        with pytest.raises(ValueError):
            BranchPredictor(table_bits=0)


class TestTlb:
    def test_hit_after_fill(self):
        tlb = Tlb(entries=4)
        assert tlb.access(0x1000) is False
        assert tlb.access(0x1FFF) is True  # same page

    def test_lru_eviction(self):
        tlb = Tlb(entries=2)
        tlb.access(0x0000)
        tlb.access(0x1000)
        tlb.access(0x0000)  # refresh page 0
        tlb.access(0x2000)  # evicts page 1
        assert tlb.access(0x0000) is True
        assert tlb.access(0x1000) is False

    def test_flush(self):
        tlb = Tlb(entries=4)
        tlb.access(0x1000)
        tlb.access(0x2000)
        assert tlb.flush() == 2
        assert tlb.occupancy == 0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            Tlb(entries=0)
        with pytest.raises(ValueError):
            Tlb(page_size=1000)


class TestPipeline:
    def test_issue_counts_retirements(self):
        pipe = Pipeline(dispatch_width=4)
        cycles = pipe.issue(uops=4, latency=1)
        assert cycles == 1
        assert pipe.retired_uops == 4
        assert pipe.retired_instructions == 1

    def test_long_latency_costs_more(self):
        pipe = Pipeline()
        cheap = pipe.issue(1, latency=1)
        expensive = pipe.issue(10, latency=24)
        assert expensive > cheap

    def test_stall_accumulates(self):
        pipe = Pipeline()
        pipe.stall(100)
        assert pipe.stall_cycles == 100

    def test_reset_counts(self):
        pipe = Pipeline()
        pipe.issue(2)
        pipe.reset_counts()
        assert pipe.retired_uops == 0

    def test_rejects_bad_args(self):
        pipe = Pipeline()
        with pytest.raises(ValueError):
            pipe.issue(0)
        with pytest.raises(ValueError):
            pipe.stall(-1)
        with pytest.raises(ValueError):
            Pipeline(dispatch_width=0)
        with pytest.raises(ValueError):
            PipelinePenalties(tlb_miss=-1)


class TestMemoryMap:
    def test_pages_do_not_overlap(self):
        mm = MemoryMap()
        a = mm.map_page("a")
        b = mm.map_page("b", size=3 * PAGE_SIZE)
        assert a.end <= b.base
        assert mm.page_of(a.base) is a
        assert mm.page_of(b.base + PAGE_SIZE) is b

    def test_write_protection(self):
        mm = MemoryMap()
        code = mm.map_page("code", writable=False)
        with pytest.raises(PermissionError):
            mm.check_write(code.base)

    def test_unmapped_write_rejected(self):
        mm = MemoryMap()
        with pytest.raises(PermissionError):
            mm.check_write(0x1)

    def test_duplicate_name_rejected(self):
        mm = MemoryMap()
        mm.map_page("x")
        with pytest.raises(ValueError):
            mm.map_page("x")

    def test_size_rounded_to_page(self):
        mm = MemoryMap()
        page = mm.map_page("y", size=100)
        assert page.size == PAGE_SIZE


class TestInterruptSource:
    def test_isolation_reduces_rate(self):
        src = InterruptSource(rate_hz=1000, isolated_rate_hz=2, rng=0)
        noisy = src.effective_rate_hz
        src.isolate_core()
        src.pin_process()
        assert src.effective_rate_hz < noisy / 100

    def test_poisson_counts_scale_with_window(self):
        src = InterruptSource(rate_hz=1000, rng=0)
        counts = [src.interrupts_during(1.0) for _ in range(20)]
        assert 800 < np.mean(counts) < 1200

    def test_zero_window(self):
        src = InterruptSource(rng=0)
        assert src.interrupts_during(0.0) == 0

    def test_rejects_negative(self):
        src = InterruptSource(rng=0)
        with pytest.raises(ValueError):
            src.interrupts_during(-1.0)
        with pytest.raises(ValueError):
            InterruptSource(rate_hz=-1)
