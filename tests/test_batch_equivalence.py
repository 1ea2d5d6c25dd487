"""Scalar-vs-vectorized differential suite for the batch engine.

Every test here runs the same workload through the detailed scalar
interpreter (``batch.FORCE_SCALAR``) and through the vectorized engine
in :mod:`repro.cpu.batch`, then asserts **bit identity**: equal signal
vectors, cycles, RDPMC reads, post-execution microarchitectural state,
and campaign-level per-gadget digests. These invariants are what keep
PR 3's warm-cache replays and PR 4's chaos reports byte-for-byte
stable, so any divergence is a correctness bug, not a tolerance issue.
"""

import functools
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.fuzzer import FuzzingCampaign
from repro.core.fuzzer.campaign import default_cleanup, gadget_stream
from repro.core.fuzzer.generator import ExecutionHarness
from repro.core.fuzzer.grammar import GadgetGrammar
from repro.cpu import batch
from repro.cpu.core import Core
from repro.cpu.signals import NUM_SIGNALS
from repro.isa.catalog import shared_catalog
from repro.isa.spec import InstructionClass

MODEL = "amd-epyc-7252"

#: Event indices spanning simple, cache, branch and flush responses.
EVENTS = np.array([10, 400, 900, 1500])


@contextmanager
def force_scalar(enabled=True):
    before = batch.FORCE_SCALAR
    batch.FORCE_SCALAR = enabled
    try:
        yield
    finally:
        batch.FORCE_SCALAR = before


@functools.lru_cache(maxsize=1)
def legal_specs():
    return tuple(default_cleanup(MODEL).legal)


@functools.lru_cache(maxsize=1)
def family_specs():
    """A representative spec set per instruction class in the catalog.

    For each class: the first variant, a memory-form variant when one
    exists, and the highest-uop variant — covering register-only,
    memory-touching, and multi-uop decodes of every gadget family.
    """
    by_class = {}
    for spec in shared_catalog().variants:
        by_class.setdefault(spec.iclass, []).append(spec)
    families = {}
    for iclass, specs in by_class.items():
        picks = {specs[0].name: specs[0]}
        mem = next((s for s in specs if s.reads_memory or s.writes_memory),
                   None)
        if mem is not None:
            picks[mem.name] = mem
        widest = max(specs, key=lambda s: s.uops)
        picks[widest.name] = widest
        families[iclass] = list(picks.values())
    return families


def paired_cores(seed, twin=Core):
    """A core and a ``twin``-class core built from the same seed."""
    return (Core(MODEL, rng=np.random.default_rng(seed)),
            twin(MODEL, rng=np.random.default_rng(seed)))


def assert_results_identical(scalar, vectorized):
    assert len(scalar) == len(vectorized)
    for i, (a, b) in enumerate(zip(scalar, vectorized)):
        assert np.array_equal(a.signals, b.signals), f"signals differ at {i}"
        assert a.cycles == b.cycles, f"cycles differ at {i}"
        assert a.rdpmc_values == b.rdpmc_values, f"rdpmc differs at {i}"
        assert a.faulted == b.faulted, f"faulted differs at {i}"
        assert a.fault_name == b.fault_name, f"fault_name differs at {i}"


def assert_state_identical(a, b):
    """Post-run microarch state + every observable counter must match."""
    fields = batch._counter_fields(a)
    assert batch._state_signature(a) == batch._state_signature(b)
    assert batch._counter_snapshot(a, fields) \
        == batch._counter_snapshot(b, fields)
    assert a.clock.cycles == b.clock.cycles
    assert a.interrupts.total_interrupts == b.interrupts.total_interrupts
    for slot in a.hpc.programmed_slots():
        assert a.hpc.rdpmc(slot) == b.hpc.rdpmc(slot)


def run_both(body, repeats, batch_size, seed=5, update_hpc=False,
             program_slots=()):
    """One body through both engines; returns the two (results, core)."""
    scalar_core, vector_core = paired_cores(seed)
    outputs = []
    for core, scalar in ((scalar_core, True), (vector_core, False)):
        harness = ExecutionHarness(core, rng=0)
        for slot, event in enumerate(program_slots):
            core.hpc.program(slot, int(event))
        program = harness.build_program(list(body), repeats=repeats)
        with force_scalar(scalar):
            outputs.append(core.execute_batch(program, repeats=batch_size,
                                              update_hpc=update_hpc))
    assert_results_identical(outputs[0], outputs[1])
    assert_state_identical(scalar_core, vector_core)
    return outputs[0]


class TestGadgetFamilies:
    """Every instruction class through both paths, bit for bit."""

    @pytest.mark.parametrize(
        "iclass", sorted(family_specs(), key=lambda ic: ic.name),
        ids=lambda ic: ic.name)
    def test_family_batch_equivalence(self, iclass):
        for spec in family_specs()[iclass]:
            results = run_both([spec], repeats=2, batch_size=12)
            if iclass is InstructionClass.SYSTEM:
                assert all(r.faulted for r in results)

    def test_mixed_family_bodies(self):
        families = family_specs()
        body = [families[ic][0] for ic in
                (InstructionClass.LOAD, InstructionClass.BRANCH_COND,
                 InstructionClass.CLFLUSH, InstructionClass.CALL,
                 InstructionClass.RET, InstructionClass.STRING,
                 InstructionClass.PREFETCH, InstructionClass.ALU)]
        run_both(body, repeats=3, batch_size=16)

    def test_hpc_reads_equivalent_with_programmed_slots(self):
        """RDPMC-in-body reads + noisy accumulate force the scalar
        fallback; results (including the noise draws) stay identical."""
        families = family_specs()
        body = [families[InstructionClass.LOAD][0],
                families[InstructionClass.RDPMC][0]]
        results = run_both(body, repeats=2, batch_size=8, update_hpc=True,
                           program_slots=(10, 400))
        assert any(r.rdpmc_values for r in results)


class TestScreeningEquivalence:
    """screen_measure == measure_gadget for sampled campaign gadgets."""

    def _gadgets(self, count, entropy=77, sequence_length=1):
        grammar = GadgetGrammar(list(legal_specs()),
                                sequence_length=sequence_length, rng=0)
        return [grammar.sample(rng=gadget_stream(entropy, i))
                for i in range(count)]

    @pytest.mark.parametrize("sequence_length", [1, 3])
    def test_screen_measure_matches_scalar(self, sequence_length):
        batch.clear_memo()
        scalar_core, vector_core = paired_cores(7)
        scalar_h = ExecutionHarness(scalar_core, rng=0)
        vector_h = ExecutionHarness(vector_core, rng=0)
        for i, gadget in enumerate(self._gadgets(
                120, sequence_length=sequence_length)):
            for core, harness in ((scalar_core, scalar_h),
                                  (vector_core, vector_h)):
                core.reset_microarch_state()
                harness.warm_measurement_state()
                harness.set_rng(gadget_stream(1, i))
            expected = scalar_h.measure_gadget(gadget, EVENTS)
            measured = vector_h.screen_measure(gadget, EVENTS)
            assert np.array_equal(expected.deltas, measured.deltas), i
            assert np.array_equal(expected.signals, measured.signals), i
            assert expected.cycles == measured.cycles, i

    def test_memo_actually_hits(self):
        """The archetype memo must serve repeat shapes without
        executing (otherwise the fast path is a silent no-op)."""
        batch.clear_memo()
        core = Core(MODEL, rng=np.random.default_rng(3))
        harness = ExecutionHarness(core, rng=0)
        gadgets = self._gadgets(200)
        for i, gadget in enumerate(gadgets):
            core.reset_microarch_state()
            harness.warm_measurement_state()
            harness.set_rng(gadget_stream(1, i))
            harness.screen_measure(gadget, EVENTS)
        assert 0 < len(batch._SCREEN_MEMO) < len(gadgets) // 2

    def test_seeded_memo_serves_another_core_exactly(self, monkeypatch):
        """A snapshot learned on one core serves a fresh core of the
        same model bit for bit (what a search's round-start snapshot
        does on a worker), and a snapshot at the cap opens empty."""
        gadgets = self._gadgets(80, sequence_length=3)

        def screen(harness, indices):
            core = harness.core
            for i in indices:
                core.reset_microarch_state()
                harness.warm_measurement_state()
                harness.set_rng(gadget_stream(1, i))
                yield i, harness.screen_measure(gadgets[i], EVENTS)

        batch.clear_memo()
        donor = ExecutionHarness(Core(MODEL, rng=np.random.default_rng(3)),
                                 rng=0)
        list(screen(donor, range(40)))
        snapshot = batch.memo_entries()
        assert snapshot

        batch.seed_memo(snapshot)
        scalar_core, vector_core = paired_cores(7)
        scalar_h = ExecutionHarness(scalar_core, rng=0)
        vector_h = ExecutionHarness(vector_core, rng=0)
        for i, measured in screen(vector_h, range(40, 80)):
            scalar_core.reset_microarch_state()
            scalar_h.warm_measurement_state()
            scalar_h.set_rng(gadget_stream(1, i))
            expected = scalar_h.measure_gadget(gadgets[i], EVENTS)
            assert np.array_equal(expected.deltas, measured.deltas), i
            assert np.array_equal(expected.signals, measured.signals), i
            assert expected.cycles == measured.cycles, i
        # Every miss stores one entry: the snapshot spared executions.
        seeded_misses = len(batch.memo_entries()) - len(snapshot)
        batch.clear_memo()
        list(screen(vector_h, range(40, 80)))
        assert seeded_misses < len(batch.memo_entries())

        monkeypatch.setattr(batch, "MEMO_CAP", len(snapshot))
        batch.seed_memo(snapshot)
        assert batch.memo_entries() == {}
        batch.clear_memo()

    def test_screen_measure_requires_canonical_state(self):
        """Without reset+warm-up the memo must not be consulted."""
        batch.clear_memo()
        core = Core(MODEL, rng=np.random.default_rng(3))
        harness = ExecutionHarness(core, rng=0)
        gadget = self._gadgets(1)[0]
        core.execute_program(harness.build_program(
            [legal_specs()[0]], repeats=1))  # dirty, non-canonical state
        assert batch.screened_begin(
            core, list(gadget.reset) + list(gadget.trigger), 16,
            (harness._push, harness._pop, harness._serialize)) is None


class TestCampaignDigests:
    """Whole-campaign reports are invariant to the engine choice."""

    @staticmethod
    def _report_key(report):
        covering = {gadget.name: sorted(events)
                    for gadget, events in report.covering_set.items()}
        confirmed = {
            event: [(r.gadget.name, r.per_iteration_delta)
                    for r in results]
            for event, results in report.confirmed_per_event.items()}
        return (covering, confirmed, dict(report.screened_per_event),
                report.gadgets_tested)

    def test_fuzz_reports_bit_identical_across_engines(self, make_fuzzer,
                                                       fuzz_events):
        events = np.array(fuzz_events)
        vectorized = make_fuzzer().fuzz(events)
        with force_scalar():
            scalar = make_fuzzer().fuzz(events)
        assert self._report_key(scalar) \
            == self._report_key(vectorized)

    def test_warm_cache_replay_across_engines(self, make_fuzzer,
                                              fuzz_events, tmp_path):
        """A shard store written under the scalar engine serves the
        vectorized one bit for bit: the fingerprint and the stored
        deltas are engine-independent."""
        events = np.array(fuzz_events)
        with force_scalar():
            filled = FuzzingCampaign(make_fuzzer(), cache_dir=tmp_path)
            baseline = self._report_key(filled.run(events))
        replay = FuzzingCampaign(make_fuzzer(), cache_dir=tmp_path)
        assert self._report_key(replay.run(events)) == baseline
        assert replay.stats.screened_shards == 0


class TestBatchApi:
    def test_repeats_requires_single_program(self):
        core = Core(MODEL, rng=np.random.default_rng(0))
        harness = ExecutionHarness(core, rng=0)
        program = harness.build_program([legal_specs()[0]])
        with pytest.raises(ValueError):
            core.execute_batch([program, program], repeats=4)

    def test_zero_and_empty_batches(self):
        core = Core(MODEL, rng=np.random.default_rng(0))
        harness = ExecutionHarness(core, rng=0)
        program = harness.build_program([legal_specs()[0]])
        assert core.execute_batch(program, repeats=0) == []
        assert core.execute_batch([]) == []
        assert core.execute_signals(program, 0).shape == (0, NUM_SIGNALS)

    def test_negative_repeats_rejected(self):
        core = Core(MODEL, rng=np.random.default_rng(0))
        harness = ExecutionHarness(core, rng=0)
        program = harness.build_program([legal_specs()[0]])
        with pytest.raises(ValueError):
            core.execute_batch(program, repeats=-1)
        with pytest.raises(ValueError):
            core.execute_signals(program, -1)


class TestSignalsEntry:
    """execute_signals == the signals of execute_batch(repeats=n)."""

    @staticmethod
    def _compare(body, repeats, count, program_slots=()):
        core_a, core_b = paired_cores(13)
        programs = []
        for core in (core_a, core_b):
            for slot, event in enumerate(program_slots):
                core.hpc.program(slot, int(event))
            programs.append(ExecutionHarness(core, rng=0).build_program(
                list(body), repeats=repeats))
        results = core_a.execute_batch(programs[0], update_hpc=False,
                                       repeats=count)
        matrix = core_b.execute_signals(programs[1], count)
        assert matrix.shape == (count, NUM_SIGNALS)
        for i, result in enumerate(results):
            assert np.array_equal(result.signals, matrix[i]), i
        assert_state_identical(core_a, core_b)
        return results

    @pytest.mark.parametrize("scalar", [False, True])
    def test_converging_body(self, scalar):
        families = family_specs()
        body = [families[InstructionClass.CLFLUSH][0],
                families[InstructionClass.LOAD][0]]
        with force_scalar(scalar):
            self._compare(body, repeats=1, count=40)

    def test_faulting_system_body(self):
        body = [family_specs()[InstructionClass.SYSTEM][0]]
        results = self._compare(body, repeats=2, count=12)
        assert all(r.faulted for r in results)

    def test_programmed_hpc_slots(self):
        families = family_specs()
        body = [families[InstructionClass.LOAD][0],
                families[InstructionClass.RDPMC][0]]
        results = self._compare(body, repeats=2, count=8,
                                program_slots=(10, 400))
        assert any(r.rdpmc_values for r in results)

    def test_counts_like_execute_batch(self):
        from repro.telemetry import runtime as telemetry
        body = [family_specs()[InstructionClass.LOAD][0]]
        counters = []
        for entry in ("batch", "signals"):
            core = Core(MODEL, rng=np.random.default_rng(0))
            program = ExecutionHarness(core, rng=0).build_program(body)
            with telemetry.session():
                if entry == "batch":
                    core.execute_batch(program, update_hpc=False,
                                       repeats=30)
                else:
                    core.execute_signals(program, 30)
                snapshot = telemetry.metrics().snapshot()["counters"]
            counters.append((snapshot[batch.EVALS_COUNTER],
                             snapshot[batch.FALLBACK_COUNTER]))
        assert counters[0] == counters[1]
        assert counters[0][0] == 30 and counters[0][1] < 30

    def test_observed_as_batch_submissions(self):
        from repro.observability import runtime as observability
        core = Core(MODEL, rng=np.random.default_rng(0))
        program = ExecutionHarness(core, rng=0).build_program(
            [legal_specs()[0]])
        with observability.session() as runtime:
            core.execute_batch(program, repeats=4)
            core.execute_signals(program, 4)
            assert runtime.slo.readout("batch.execute")["count"] == 2


# -- hypothesis property tests ---------------------------------------------

PROPERTY_SETTINGS = settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


def draw_body(data, max_size=5):
    specs = legal_specs()
    indices = data.draw(st.lists(st.integers(0, len(specs) - 1),
                                 min_size=1, max_size=max_size))
    return [specs[i] for i in indices]


@PROPERTY_SETTINGS
@given(data=st.data())
def test_random_programs_scalar_vs_vectorized(data):
    """Random body x repeats x batch size: both engines bit-identical."""
    body = draw_body(data)
    repeats = data.draw(st.integers(1, 4))
    batch_size = data.draw(st.integers(1, 24))
    seed = data.draw(st.integers(0, 2**32 - 1))
    run_both(body, repeats=repeats, batch_size=batch_size, seed=seed)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_batch_size_invariance(data):
    """One call of N == N calls of 1 (state carries over either way)."""
    body = draw_body(data)
    n = data.draw(st.integers(1, 12))
    seed = data.draw(st.integers(0, 2**32 - 1))
    core_a, core_b = paired_cores(seed)
    program_a = ExecutionHarness(core_a, rng=0).build_program(body, repeats=2)
    program_b = ExecutionHarness(core_b, rng=0).build_program(body, repeats=2)
    one_call = core_a.execute_batch(program_a, update_hpc=False, repeats=n)
    n_calls = []
    for _ in range(n):
        n_calls.extend(core_b.execute_batch(program_b, update_hpc=False,
                                            repeats=1))
    assert_results_identical(one_call, n_calls)
    assert_state_identical(core_a, core_b)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_fused_executions_equal_sequential(data):
    """One measure_executions call over P paths == P one-path calls ==
    P x n calls of one execution: same deltas, same harness stream
    position, same core state and execution count — on both engines."""
    paths = [draw_body(data) if data.draw(st.integers(0, 3)) else []
             for _ in range(data.draw(st.integers(1, 3)))]
    events = np.array(data.draw(st.lists(st.sampled_from(EVENTS.tolist()),
                                         min_size=1, max_size=3,
                                         unique=True)))
    iterations = data.draw(st.integers(2, 16))
    executions = data.draw(st.integers(1, 10))
    seed = data.draw(st.integers(0, 2**32 - 1))
    for scalar in (False, True):
        cores = [Core(MODEL, rng=np.random.default_rng(seed))
                 for _ in range(3)]
        fused_h, path_h, single_h = (ExecutionHarness(core, rng=seed)
                                     for core in cores)
        with force_scalar(scalar):
            fused = fused_h.measure_executions(paths, events, iterations,
                                               executions)
            per_path = np.stack([
                path_h.measure_executions([body], events, iterations,
                                          executions)[0]
                for body in paths])
            single = np.stack([
                np.stack([single_h.measure_executions(
                    [body], events, iterations, 1)[0, 0]
                    for _ in range(executions)])
                for body in paths])
        assert fused.shape == (len(paths), executions, iterations,
                               len(events))
        assert np.array_equal(fused, per_path)
        assert np.array_equal(fused, single)
        assert len({h._rng.integers(2**63)
                    for h in (fused_h, path_h, single_h)}) == 1
        assert fused_h.executions == path_h.executions \
            == single_h.executions
        assert_state_identical(cores[0], cores[1])
        assert_state_identical(cores[0], cores[2])


@PROPERTY_SETTINGS
@given(data=st.data())
def test_screening_order_invariance(data):
    """Screening measurements are independent of gadget order (each
    starts from reset + warm-up), whatever the memo has seen before."""
    count = data.draw(st.integers(2, 10))
    permutation = data.draw(st.permutations(range(count)))
    grammar = GadgetGrammar(list(legal_specs()), rng=0)
    gadgets = [grammar.sample(rng=gadget_stream(5, i))
               for i in range(count)]

    def screen(order):
        batch.clear_memo()
        core = Core(MODEL, rng=np.random.default_rng(2))
        harness = ExecutionHarness(core, rng=0)
        deltas = {}
        for i in order:
            core.reset_microarch_state()
            harness.warm_measurement_state()
            harness.set_rng(gadget_stream(6, i))
            deltas[i] = harness.screen_measure(gadgets[i], EVENTS).deltas
        return deltas

    natural = screen(range(count))
    permuted = screen(permutation)
    for i in range(count):
        assert np.array_equal(natural[i], permuted[i])
