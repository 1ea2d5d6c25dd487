"""Tests for the execution harness and confirmation mechanisms."""

import numpy as np
import pytest

from repro.core.fuzzer import (
    ExecutionHarness,
    Gadget,
    GadgetConfirmer,
    GadgetFilter,
    minimal_covering_set,
)
from repro.core.fuzzer.confirm import ConfirmationResult


@pytest.fixture()
def harness(core):
    return ExecutionHarness(core, unroll=16, rng=0)


def _gadget(isa_catalog, reset_names, trigger_names):
    return Gadget(reset=tuple(isa_catalog.get(n) for n in reset_names),
                  trigger=tuple(isa_catalog.get(n) for n in trigger_names))


class TestHarness:
    def test_environment_configured(self, harness):
        assert harness.core.interrupts.isolated
        assert harness.core.interrupts.pinned

    def test_prolog_epilog_in_program(self, harness, isa_catalog):
        program = harness.build_program([isa_catalog.get("NOP")], repeats=1)
        mnemonics = [i.spec.mnemonic for i in program.instructions]
        assert mnemonics.count("PUSH") == 6
        assert mnemonics.count("POP") == 6
        assert mnemonics.count("CPUID") == 2

    def test_bare_program_has_no_frame(self, harness, isa_catalog):
        program = harness.build_program([isa_catalog.get("NOP")],
                                        include_frame=False)
        assert len(program) == 1

    def test_simd_gadget_moves_simd_event(self, harness, isa_catalog,
                                          amd_catalog):
        gadget = _gadget(isa_catalog, [], ["PADDB xmm,xmm"])
        event = np.array([amd_catalog.index_of(
            "RETIRED_MMX_FP_INSTRUCTIONS:SSE_INSTR")])
        measured = harness.measure_gadget(gadget, event)
        assert measured.deltas[0] > 8  # ~1/iteration over 16 iterations

    def test_unrelated_event_unmoved(self, harness, isa_catalog,
                                     amd_catalog):
        gadget = _gadget(isa_catalog, [], ["PADDB xmm,xmm"])
        event = np.array([amd_catalog.index_of("RETIRED_X87_FP_OPS")])
        measured = harness.measure_gadget(gadget, event)
        assert measured.deltas[0] < 10  # read noise only

    def test_clflush_load_gadget_hits_refill_event(self, harness,
                                                   isa_catalog, amd_catalog):
        gadget = _gadget(isa_catalog, ["CLFLUSH m8"], ["MOV r64,m64"])
        event = np.array([amd_catalog.index_of(
            "DATA_CACHE_REFILLS_FROM_SYSTEM")])
        # Warm the line once, then the reset must keep re-missing it.
        hot = harness.measure_gadget(gadget, event)
        assert hot.deltas[0] > 8

    def test_load_without_flush_only_misses_once(self, harness, isa_catalog,
                                                 amd_catalog):
        gadget = _gadget(isa_catalog, [], ["MOV r64,m64"])
        event = np.array([amd_catalog.index_of(
            "DATA_CACHE_REFILLS_FROM_SYSTEM")])
        measured = harness.measure_gadget(gadget, event)
        assert measured.deltas[0] < 6  # one cold miss + noise

    def test_measure_executions_shapes(self, harness, isa_catalog,
                                       amd_catalog):
        event = np.array([amd_catalog.index_of("RETIRED_UOPS")])
        per_iter = harness.measure_executions(
            [isa_catalog.get("ADD r64,r64")], event, iterations=8,
            executions=3)
        assert per_iter.shape == (3, 8, 1)
        assert harness.executions == 24

    def test_measure_executions_validation(self, harness, amd_catalog):
        event = np.array([amd_catalog.index_of("RETIRED_UOPS")])
        with pytest.raises(ValueError):
            harness.measure_executions([], event, 0, 1)
        with pytest.raises(ValueError):
            harness.measure_executions([], event, 4, 0)

    def test_measure_iterations_digest_pinned(self, core, isa_catalog,
                                              amd_catalog):
        """Regression pin for one repeated-trigger execution.

        The per-iteration deltas are a pure function of the harness
        RNG root: one root draw per execution seeds its interference
        stream, and the batched execution itself consumes no
        randomness. Any accidental change to the derivation, the
        batched execution, or the noise draws shows up as a digest
        change here.
        """
        import hashlib
        harness = ExecutionHarness(core, unroll=16, rng=0)
        events = np.array([
            amd_catalog.index_of("RETIRED_UOPS"),
            amd_catalog.index_of("DATA_CACHE_REFILLS_FROM_SYSTEM")])
        per_iter = harness.measure_executions(
            [isa_catalog.get("CLFLUSH m8"), isa_catalog.get("MOV r64,m64")],
            events, 12, 1)[0]
        cumulative = per_iter.sum(axis=0)
        digest = hashlib.sha256(
            np.round(per_iter, 6).tobytes()
            + np.round(cumulative, 6).tobytes()).hexdigest()
        assert digest == ("32a11870b5a14775c31dc3029693972f"
                          "8131e9e779bebdd4d8435f6a683a444a")

    def test_idle_counter_reads_near_zero(self, harness, amd_catalog):
        event = np.array([amd_catalog.index_of("RETIRED_UOPS")])
        per_iter = harness.measure_executions([], event, 16, 1)
        assert abs(per_iter.mean()) < 3.0

    def test_gadget_signal_profile(self, harness, isa_catalog):
        from repro.cpu.signals import Signal
        gadget = _gadget(isa_catalog, [], ["PADDB xmm,xmm"])
        profile = harness.gadget_signal_profile(gadget)
        assert profile[Signal.SIMD_OPS] == pytest.approx(1.0, abs=0.1)

    def test_validation(self, core):
        with pytest.raises(ValueError):
            ExecutionHarness(core, unroll=0)


class TestConfirmer:
    def test_real_gadget_confirms(self, harness, isa_catalog, amd_catalog):
        confirmer = GadgetConfirmer(harness, executions=5, rng=0)
        gadget = _gadget(isa_catalog, ["CLFLUSH m8"], ["MOV r64,m64"])
        event = amd_catalog.index_of("DATA_CACHE_REFILLS_FROM_SYSTEM")
        result = confirmer.confirm(gadget, event)
        assert result.confirmed, result.reason

    def test_broken_reset_rejected(self, harness, isa_catalog, amd_catalog):
        # Without the flush the load only misses on the first iteration:
        # the cumulative effect does not scale with R.
        confirmer = GadgetConfirmer(harness, executions=5, rng=0)
        gadget = _gadget(isa_catalog, ["NOP"], ["MOV r64,m64"])
        event = amd_catalog.index_of("DATA_CACHE_REFILLS_FROM_SYSTEM")
        result = confirmer.confirm(gadget, event)
        assert not result.confirmed

    def test_unrelated_trigger_rejected(self, harness, isa_catalog,
                                        amd_catalog):
        confirmer = GadgetConfirmer(harness, executions=5, rng=0)
        gadget = _gadget(isa_catalog, [], ["NOP"])
        event = amd_catalog.index_of("RETIRED_X87_FP_OPS")
        result = confirmer.confirm(gadget, event)
        assert not result.confirmed
        assert "no counts" in result.reason

    def test_reset_side_effect_rejected(self, harness, isa_catalog,
                                        amd_catalog):
        # The reset itself generates most of the uops: lambda2 test.
        confirmer = GadgetConfirmer(harness, executions=5, rng=0)
        gadget = _gadget(isa_catalog, ["CPUID"], ["ADD r64,r64"])
        event = amd_catalog.index_of("RETIRED_UOPS")
        result = confirmer.confirm(gadget, event)
        assert not result.confirmed

    def test_reorder_keeps_stable_gadgets(self, harness, isa_catalog,
                                          amd_catalog):
        confirmer = GadgetConfirmer(harness, executions=5, rng=0)
        gadget = _gadget(isa_catalog, ["CLFLUSH m8"], ["MOV r64,m64"])
        event = amd_catalog.index_of("DATA_CACHE_REFILLS_FROM_SYSTEM")
        result = confirmer.confirm(gadget, event)
        survivors = confirmer.reorder_validate([result])
        assert [s.gadget.name for s in survivors] == [gadget.name]

    def test_confirm_digest_pinned(self, harness, isa_catalog,
                                   amd_catalog):
        """Regression pin for the fused confirmation path.

        Each path's ten executions run as one batch submission and are
        reduced with vectorized medians and sums; the verdicts and
        medians must match, to the last bit, the per-execution loop
        they replaced (the constant was computed with that loop).
        """
        import hashlib
        confirmer = GadgetConfirmer(harness, rng=0)
        cases = [
            (["CLFLUSH m8"], ["MOV r64,m64"],
             "DATA_CACHE_REFILLS_FROM_SYSTEM"),
            (["NOP"], ["MOV r64,m64"], "DATA_CACHE_REFILLS_FROM_SYSTEM"),
            ([], ["NOP"], "RETIRED_X87_FP_OPS"),
            (["CPUID"], ["ADD r64,r64"], "RETIRED_UOPS"),
        ]
        lines = []
        for reset, trigger, event in cases:
            result = confirmer.confirm(_gadget(isa_catalog, reset, trigger),
                                       amd_catalog.index_of(event))
            lines.append(repr((result.per_iteration_delta,
                               result.cold_median, result.hot_median,
                               result.confirmed)))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == ("0543f04a9885bd0722df7f49ceda3f78"
                          "6bdd325c1a9f8536f88e40ae28038e0f")

    def test_validation(self, harness):
        with pytest.raises(ValueError):
            GadgetConfirmer(harness, executions=0)
        with pytest.raises(ValueError):
            GadgetConfirmer(harness, trigger_repeats=1)
        with pytest.raises(ValueError):
            GadgetConfirmer(harness, lambda1=(0.2, -0.2))


def _confirmation(gadget, event, delta):
    return ConfirmationResult(gadget=gadget, event_index=event,
                              confirmed=True, per_iteration_delta=delta,
                              cold_median=0.0, hot_median=delta * 16)


class TestFilteringAndCover:
    def test_cluster_by_signature(self, isa_catalog):
        g1 = _gadget(isa_catalog, [], ["ADD r64,r64"])
        g2 = _gadget(isa_catalog, [], ["SUB r64,r64"])  # same signature
        g3 = _gadget(isa_catalog, [], ["PADDB xmm,xmm"])
        filt = GadgetFilter()
        clusters = filt.cluster([_confirmation(g1, 0, 1.0),
                                 _confirmation(g2, 0, 2.0),
                                 _confirmation(g3, 0, 3.0)])
        assert len(clusters) == 2

    def test_filter_keeps_best_per_cluster(self, isa_catalog):
        g1 = _gadget(isa_catalog, [], ["ADD r64,r64"])
        g2 = _gadget(isa_catalog, [], ["SUB r64,r64"])
        filt = GadgetFilter()
        kept = filt.filter_event([_confirmation(g1, 0, 1.0),
                                  _confirmation(g2, 0, 5.0)])
        assert len(kept) == 1
        assert kept[0].gadget.name == g2.name

    def test_best_gadget(self, isa_catalog):
        g1 = _gadget(isa_catalog, [], ["ADD r64,r64"])
        g2 = _gadget(isa_catalog, [], ["PADDB xmm,xmm"])
        filt = GadgetFilter()
        best = filt.best_gadget([_confirmation(g1, 0, 1.0),
                                 _confirmation(g2, 0, 9.0)])
        assert best.gadget.name == g2.name
        with pytest.raises(ValueError):
            filt.best_gadget([])

    def test_greedy_cover_minimizes(self, isa_catalog):
        wide = _gadget(isa_catalog, [], ["ADD r64,r64"])
        narrow1 = _gadget(isa_catalog, [], ["PADDB xmm,xmm"])
        narrow2 = _gadget(isa_catalog, [], ["FSQRT"])
        per_event = {
            0: [_confirmation(wide, 0, 1.0), _confirmation(narrow1, 0, 2.0)],
            1: [_confirmation(wide, 1, 1.0)],
            2: [_confirmation(wide, 2, 1.0), _confirmation(narrow2, 2, 2.0)],
        }
        cover = minimal_covering_set(per_event)
        assert len(cover) == 1
        chosen = next(iter(cover))
        assert chosen.name == wide.name
        assert sorted(cover[chosen]) == [0, 1, 2]

    def test_cover_handles_uncoverable_events(self, isa_catalog):
        g = _gadget(isa_catalog, [], ["ADD r64,r64"])
        per_event = {0: [_confirmation(g, 0, 1.0)], 1: []}
        cover = minimal_covering_set(per_event)
        assert sum(len(v) for v in cover.values()) == 1
