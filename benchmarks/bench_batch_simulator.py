"""Batch simulator throughput: vectorized engine vs scalar interpreter.

The Event Fuzzer's scale story is bounded by measurement evaluations
per second ((gadget, event) pairs, the same unit campaign_scaling
reports). This bench drives the workloads the batch engine
accelerates:

- **Repeated measurement**: one framed program executed tens of
  thousands of times back to back. Convergence replication detects the
  microarchitectural fixed point after a few iterations and replicates
  results arithmetically, so throughput is decoupled from the
  interpreter.
- **Screening** (one measurement per gadget from the canonical
  reset+warm-up state): the archetype memo serves repeat gadget shapes
  without executing.
- **Confirmation** (the Fig. 6 repeated-trigger test): a candidate's
  cold and hot paths, ten executions of R bare-body iterations each,
  are one ``ExecutionHarness.measure_executions`` call: one
  convergence-replicated ``Core.execute_signals`` submission per path,
  then one array pass for projection, interference noise and medians.

All paths are proven bit-identical to the scalar interpreter by
``tests/test_batch_equivalence.py``; this bench re-asserts identity on
a sample (the ``bit_identical`` gate metric) so the throughput numbers
can never drift away from correctness.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import SMOKE, emit, emit_metrics, once
from repro.core.fuzzer.campaign import default_cleanup, gadget_stream
from repro.core.fuzzer.confirm import GadgetConfirmer
from repro.core.fuzzer.generator import ExecutionHarness
from repro.core.fuzzer.grammar import GadgetGrammar
from repro.cpu import batch
from repro.cpu.core import Core
from repro.cpu.events import processor_catalog
from repro.isa.catalog import shared_catalog

MODEL = "amd-epyc-7252"

#: Same event set as campaign_scaling, so evals/s are comparable.
EVENT_NAMES = ("RETIRED_UOPS", "RETIRED_MMX_FP_INSTRUCTIONS:SSE_INSTR",
               "DATA_CACHE_REFILLS_FROM_SYSTEM", "LS_DISPATCH",
               "RETIRED_X87_FP_OPS", "MUL_OPS_RETIRED",
               "RETIRED_COND_BRANCHES", "CACHE_LINE_FLUSHES")

REPEATS = 20_000 if SMOKE else 100_000     # repeated-measurement batch
SCALAR_SAMPLE = 1_000 if SMOKE else 4_000  # scalar comparison sample
IDENTITY_CHECK = 512                       # full bit-compare batch
SCREEN_GADGETS = 400 if SMOKE else 1_600   # screening workload
CONFIRM_PAIRS = 24 if SMOKE else 96        # confirmation workload


def _measurement_batch(n, scalar):
    """Run the repeated-measurement workload on a fresh core.

    Returns the per-execution event deltas and the elapsed seconds for
    execute + batched projection (one full measurement per repetition).
    """
    amd = processor_catalog(MODEL)
    events = np.array([amd.index_of(name) for name in EVENT_NAMES])
    isa = shared_catalog()
    core = Core(MODEL, rng=np.random.default_rng(7))
    harness = ExecutionHarness(core, rng=0)
    program = harness.build_program(
        [isa.get("CLFLUSH m8"), isa.get("MOV r64,m64")], repeats=16)
    before = batch.FORCE_SCALAR
    batch.FORCE_SCALAR = scalar
    try:
        start = time.perf_counter()
        results = core.execute_batch(program, update_hpc=False, repeats=n)
        signals = np.stack([r.signals for r in results])
        deltas = amd.counts_for(signals, rng=None, event_indices=events)
        elapsed = time.perf_counter() - start
    finally:
        batch.FORCE_SCALAR = before
    return deltas, elapsed


def _screening_batch(count, scalar):
    """Screen ``count`` grammar gadgets; returns (deltas, seconds)."""
    amd = processor_catalog(MODEL)
    events = np.array([amd.index_of(name) for name in EVENT_NAMES])
    grammar = GadgetGrammar(default_cleanup(MODEL).legal, rng=0)
    gadgets = [grammar.sample(rng=gadget_stream(21, i))
               for i in range(count)]
    core = Core(MODEL, rng=np.random.default_rng(9))
    harness = ExecutionHarness(core, rng=0)
    batch.clear_memo()
    before = batch.FORCE_SCALAR
    batch.FORCE_SCALAR = scalar
    try:
        deltas = np.empty((count, len(events)))
        start = time.perf_counter()
        for i, gadget in enumerate(gadgets):
            core.reset_microarch_state()
            harness.warm_measurement_state()
            harness.set_rng(gadget_stream(22, i))
            deltas[i] = harness.screen_measure(gadget, events).deltas
        elapsed = time.perf_counter() - start
    finally:
        batch.FORCE_SCALAR = before
    return deltas, elapsed


def _confirmation_batch(count, scalar):
    """Confirm ``count`` fixed (gadget, event) pairs on one core.

    Returns the :class:`ConfirmationResult` list and the seconds spent
    confirming. Candidates are grammar gadgets, each paired with one
    of the bench events in turn.
    """
    amd = processor_catalog(MODEL)
    events = [amd.index_of(name) for name in EVENT_NAMES]
    grammar = GadgetGrammar(default_cleanup(MODEL).legal, rng=0)
    pairs = [(grammar.sample(rng=gadget_stream(23, i)),
              events[i % len(events)]) for i in range(count)]
    core = Core(MODEL, rng=np.random.default_rng(11))
    confirmer = GadgetConfirmer(ExecutionHarness(core, rng=0), rng=0)
    before = batch.FORCE_SCALAR
    batch.FORCE_SCALAR = scalar
    try:
        start = time.perf_counter()
        results = [confirmer.confirm(gadget, event)
                   for gadget, event in pairs]
        elapsed = time.perf_counter() - start
    finally:
        batch.FORCE_SCALAR = before
    return results, elapsed


@pytest.mark.benchmark(group="batch")
def test_batch_simulator(benchmark):
    n_events = len(EVENT_NAMES)

    # Correctness first: both engines must agree bit for bit on a
    # sample of each workload before any throughput is reported.
    vec_check, _ = _measurement_batch(IDENTITY_CHECK, scalar=False)
    scl_check, _ = _measurement_batch(IDENTITY_CHECK, scalar=True)
    repeated_identical = np.array_equal(vec_check, scl_check)
    vec_screen, vec_screen_s = _screening_batch(SCREEN_GADGETS,
                                                scalar=False)
    scl_screen, scl_screen_s = _screening_batch(SCREEN_GADGETS,
                                                scalar=True)
    screening_identical = np.array_equal(vec_screen, scl_screen)
    vec_confirm, vec_confirm_s = _confirmation_batch(CONFIRM_PAIRS,
                                                     scalar=False)
    scl_confirm, scl_confirm_s = _confirmation_batch(CONFIRM_PAIRS,
                                                     scalar=True)
    confirmation_identical = vec_confirm == scl_confirm
    bit_identical = float(repeated_identical and screening_identical
                          and confirmation_identical)
    assert bit_identical == 1.0

    _, vectorized_s = once(
        benchmark, lambda: _measurement_batch(REPEATS, scalar=False))
    _, scalar_s = _measurement_batch(SCALAR_SAMPLE, scalar=True)

    evals = REPEATS * n_events
    throughput = evals / vectorized_s
    scalar_rate = SCALAR_SAMPLE * n_events / scalar_s
    screen_rate = SCREEN_GADGETS * n_events / vec_screen_s
    screen_scalar_rate = SCREEN_GADGETS * n_events / scl_screen_s
    confirm_rate = CONFIRM_PAIRS / vec_confirm_s
    confirm_scalar_rate = CONFIRM_PAIRS / scl_confirm_s
    accepted = sum(r.confirmed for r in vec_confirm)

    lines = [
        f"repeated measurement: {REPEATS:,} executions x {n_events} "
        f"events in {vectorized_s:.3f} s",
        f"{'path':>22s} {'evals/s':>14s} {'speedup':>8s}",
        f"{'scalar interpreter':>22s} {scalar_rate:>14,.0f} "
        f"{1.0:>7.2f}x",
        f"{'vectorized engine':>22s} {throughput:>14,.0f} "
        f"{throughput / scalar_rate:>7.2f}x",
        f"screening ({SCREEN_GADGETS} gadgets): "
        f"{screen_scalar_rate:,.0f} evals/s scalar vs "
        f"{screen_rate:,.0f} vectorized "
        f"({screen_rate / screen_scalar_rate:.2f}x)",
        f"confirmation ({CONFIRM_PAIRS} candidates, {accepted} "
        f"accepted): {confirm_scalar_rate:,.1f} confirms/s scalar vs "
        f"{confirm_rate:,.1f} vectorized "
        f"({confirm_rate / confirm_scalar_rate:.2f}x)",
        f"bit-identical across engines: repeated={repeated_identical} "
        f"screening={screening_identical} "
        f"confirmation={confirmation_identical}",
    ]
    emit("batch_simulator", "\n".join(lines))
    emit_metrics("batch_simulator", {
        "throughput_evals_per_s": throughput,
        "speedup_vs_scalar": throughput / scalar_rate,
        # Ungated: the scalar interpreter's own rate, the denominator
        # of speedup_vs_scalar, so a faster interpreter shows as such.
        "scalar_evals_per_s": scalar_rate,
        "screening_evals_per_s": screen_rate,
        "confirm_per_s": confirm_rate,
        "confirm_scalar_per_s": confirm_scalar_rate,
        "bit_identical": bit_identical,
    })

    # The tentpole acceptance floor: >= 10x the 15,457 evals/s the
    # scalar campaign baseline was committed at.
    assert throughput >= 154_570, f"{throughput:,.0f} evals/s < 10x floor"
