"""Vectorized batch execution engine.

The Event Fuzzer evaluates on the order of millions of (gadget, event)
pairs per campaign, and every one of them used to walk the detailed
per-instruction interpreter in :mod:`repro.cpu.core`. This module makes
batched evaluation cheap while staying **bit-identical** to the scalar
path — the contract the engine-independent shard store and the
chaos-equivalence suites depend on. Three mechanisms, all exact:

- **Signal-response decomposition** (:func:`spec_profile`): every
  instruction variant splits into a *static* signal row (retired
  instructions, uops, class-op signals, load/store counts — a pure
  function of the spec) plus a *dynamic* remainder (cache, TLB, branch
  and prefetch perturbations — a pure function of the *state-interaction
  archetype sequence* executed from a canonical start state). Because
  all signal increments are small integers held in float64, the
  decomposition and its recomposition are exact, not approximate.
- **Canonical-state memoization** (:func:`screened_begin`): the
  screening stage measures every gadget from reset + deterministic
  warm-up. Two programs whose archetype sequences match therefore share
  the same dynamic remainder, so one scalar execution per archetype
  class serves the whole shard; the per-gadget result is rebuilt as
  ``static(program) + dynamic(archetype)``.
- **Convergence replication** (:meth:`Core.execute_batch` repeats and
  :meth:`Core.execute_signals`): a program executed back to back
  drives the microarchitectural state to a fixed point after a few
  iterations (the warmed caches stop evicting, the predictor
  saturates). Once two consecutive post-states are identical the
  remaining executions are replicas: results are copied (or, for the
  signals matrix, written as rows) and the per-execution counter
  deltas are applied arithmetically (all integers, so ``k`` scalar
  additions equal one ``delta * k``).

Aggregate :class:`ActivityBlock` batches vectorize the interrupt
arrival draws and signal adjustments (:func:`execute_blocks`); the HPC
register-file accumulation stays per-block because its noise draws and
float fold order must match the scalar path bit for bit.

Set ``REPRO_BATCH_DISABLE=1`` (or :data:`FORCE_SCALAR`) to route every
entry point through the scalar interpreter — the differential test
suite A/Bs the two paths this way.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.cpu.signals import NUM_SIGNALS, Signal
from repro.isa.spec import InstructionClass, InstructionSpec, Program
from repro.telemetry import runtime as telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.cpu.core import ActivityBlock, Core, ExecutionResult

#: Environment switch that forces the scalar interpreter everywhere.
DISABLE_ENV = "REPRO_BATCH_DISABLE"

#: Module switch for in-process differential testing (monkeypatched by
#: the equivalence suite; the env var serves whole-process A/B runs).
FORCE_SCALAR = False

#: Scalar executions before giving up on state-fixed-point detection.
MAX_SCALAR_PREFIX = 8

#: Entry cap of the screening memo (cleared wholesale when exceeded;
#: real campaigns stay 2-3 orders of magnitude below this).
MEMO_CAP = 8192

#: Telemetry counter names (dashboards watch the pair to see when the
#: fast path is bypassed).
EVALS_COUNTER = "batch.evals"
FALLBACK_COUNTER = "batch.fallback_scalar"


def scalar_only() -> bool:
    """Whether every batch entry point must take the scalar path."""
    return FORCE_SCALAR or os.environ.get(DISABLE_ENV, "") == "1"


def _count(name: str, n: int) -> None:
    registry = telemetry.metrics()
    if registry.enabled and n:
        registry.counter(name).inc(n)


def count_evals(n: int = 1) -> None:
    """Record ``n`` evaluations served through the batch layer."""
    _count(EVALS_COUNTER, n)


def count_fallback(n: int = 1) -> None:
    """Record ``n`` evaluations that ran the scalar interpreter."""
    _count(FALLBACK_COUNTER, n)


# -- spec profiles ---------------------------------------------------------

#: Class signals charged by the scalar ``_execute_simple`` handler.
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

#: Classes whose handlers never touch cache/TLB/branch/prefetch state
#: (FENCE/SERIALIZE only charge the pipeline stall counter, which is
#: not part of an :class:`ExecutionResult`).
_INERT_CLASSES = frozenset({
    InstructionClass.ALU, InstructionClass.MUL, InstructionClass.DIV,
    InstructionClass.BIT, InstructionClass.MOV, InstructionClass.LEA,
    InstructionClass.NOP, InstructionClass.X87, InstructionClass.SIMD_INT,
    InstructionClass.SIMD_FP, InstructionClass.FMA, InstructionClass.CRYPTO,
    InstructionClass.FENCE, InstructionClass.SERIALIZE,
    InstructionClass.RDPMC,
})


@dataclass(frozen=True)
class SpecProfile:
    """Static signal-response row + state-interaction archetype of a spec.

    ``arch`` is a hashable id such that two specs with equal ids perturb
    the microarchitectural state identically when placed at the same
    program position (all placed memory operands resolve to the data
    page, addresses are position-determined). ``None`` marks variants
    the vectorized paths do not model (privileged SYSTEM instructions,
    which fault) — they force a scalar fallback.
    """

    spec: InstructionSpec
    arch: "tuple | str | None"
    static_signals: np.ndarray
    issue_cycles: int


def _arch_of(spec: InstructionSpec) -> "tuple | str | None":
    ic = spec.iclass
    if ic in (InstructionClass.SERIALIZE, InstructionClass.RDPMC):
        # Dedicated handlers that never touch cache/TLB/branch state.
        return "n"
    if ic in _INERT_CLASSES:
        if spec.reads_memory or spec.writes_memory:
            return ("m", spec.reads_memory, spec.writes_memory)
        return "n"
    if ic is InstructionClass.LOAD:
        return ("m", True, False)
    if ic is InstructionClass.STORE:
        return ("m", False, True)
    if ic in (InstructionClass.BRANCH_COND, InstructionClass.BRANCH_UNCOND):
        # Both update the predictor with taken=True at the placed pc.
        return "br"
    if ic is InstructionClass.CALL:
        return "call"
    if ic is InstructionClass.RET:
        return "ret"
    if ic is InstructionClass.PUSH:
        return "push"
    if ic is InstructionClass.POP:
        return "pop"
    if ic is InstructionClass.CLFLUSH:
        return "clf"
    if ic is InstructionClass.PREFETCH:
        return "pf"
    if ic is InstructionClass.TLB_FLUSH:
        return "tlbf"
    if ic is InstructionClass.STRING:
        rep = spec.mnemonic.startswith("REP")
        writes = spec.mnemonic.lstrip("REP ").startswith(("MOVS", "STOS"))
        return ("str", rep, writes)
    return None  # SYSTEM (faults) and anything unknown


def _static_row(spec: InstructionSpec) -> np.ndarray:
    """The signal increments charged regardless of microarch state."""
    row = np.zeros(NUM_SIGNALS, dtype=np.float64)
    row[Signal.INSTRUCTIONS] = 1.0
    row[Signal.UOPS] = float(spec.uops)
    ic = spec.iclass
    if ic is InstructionClass.SERIALIZE:
        row[Signal.SERIALIZING] += 1.0
    elif ic is InstructionClass.RDPMC:
        pass  # the handler only reads programmed counters
    elif ic in _INERT_CLASSES:
        sig = _SIMPLE_SIGNALS.get(ic)
        if sig is not None:
            row[sig] += 1.0
        row[Signal.LOADS] += float(spec.reads_memory)
        row[Signal.STORES] += float(spec.writes_memory)
    elif ic is InstructionClass.LOAD:
        row[Signal.LOADS] += 1.0
    elif ic is InstructionClass.STORE:
        row[Signal.STORES] += 1.0
        if spec.mnemonic.startswith("MOVNT"):
            row[Signal.MEM_WRITES] += 1.0
    elif ic in (InstructionClass.BRANCH_COND, InstructionClass.BRANCH_UNCOND):
        row[Signal.BRANCHES] += 1.0
        if ic is InstructionClass.BRANCH_COND:
            row[Signal.COND_BRANCHES] += 1.0
    elif ic is InstructionClass.CALL:
        row[[Signal.BRANCHES, Signal.CALLS, Signal.STACK_OPS,
             Signal.STORES]] += 1.0
    elif ic is InstructionClass.RET:
        row[[Signal.BRANCHES, Signal.RETURNS, Signal.STACK_OPS,
             Signal.LOADS]] += 1.0
    elif ic is InstructionClass.PUSH:
        row[[Signal.STACK_OPS, Signal.STORES]] += 1.0
    elif ic is InstructionClass.POP:
        row[[Signal.STACK_OPS, Signal.LOADS]] += 1.0
    elif ic is InstructionClass.CLFLUSH:
        row[Signal.CACHE_FLUSHES] += 1.0
    elif ic is InstructionClass.PREFETCH:
        row[Signal.PREFETCHES] += 1.0
    elif ic is InstructionClass.TLB_FLUSH:
        row[Signal.TLB_FLUSHES] += 1.0
    elif ic is InstructionClass.STRING:
        repeats = 8 if spec.mnemonic.startswith("REP") else 1
        row[Signal.LOADS] += float(repeats)
        if spec.mnemonic.lstrip("REP ").startswith(("MOVS", "STOS")):
            row[Signal.STORES] += float(repeats)
    return row


# Profiles are keyed by spec identity; catalog specs are process-wide
# singletons, and keeping the spec inside the profile pins the id.
_PROFILE_CACHE: dict[int, SpecProfile] = {}

#: The dispatch width the cached issue-cycle figures assume (matches
#: the :class:`Pipeline` default; other widths fall back to scalar).
_DISPATCH_WIDTH = 4


def spec_profile(spec: InstructionSpec) -> SpecProfile:
    """The cached static/dynamic decomposition of one variant."""
    profile = _PROFILE_CACHE.get(id(spec))
    if profile is None:
        issue = (max(1, round(spec.uops / _DISPATCH_WIDTH))
                 + max(0, (spec.latency - 1) // 4))
        profile = SpecProfile(spec=spec, arch=_arch_of(spec),
                              static_signals=_static_row(spec),
                              issue_cycles=issue)
        _PROFILE_CACHE[id(spec)] = profile
    return profile


# -- canonical-state screening memo ---------------------------------------

_SCREEN_MEMO: dict[tuple, tuple[np.ndarray, int]] = {}


def clear_memo() -> None:
    """Drop all memoized dynamic remainders (test isolation)."""
    _SCREEN_MEMO.clear()


def _core_token(core: "Core") -> tuple:
    """Everything about a core's geometry that shapes the dynamics."""
    token = getattr(core, "_batch_token", None)
    if token is None:
        caches = core.caches
        predictor = core.branch_predictor
        prefetcher = core.prefetcher
        token = (
            core.code_page.base, core.data_page.base, core.stack_page.base,
            core.stack_page.size, core.pipeline.dispatch_width,
            core.pipeline.penalties,
            (caches.l1.num_sets, caches.l1.ways, caches.l1.line_size),
            (caches.l2.num_sets, caches.l2.ways, caches.l2.line_size),
            (caches.llc.num_sets, caches.llc.ways, caches.llc.line_size),
            (core.itlb.entries, core.dtlb.entries),
            (predictor.table_bits, predictor.history_bits),
            (prefetcher.table_entries, prefetcher.depth,
             prefetcher.line_size),
        )
        core._batch_token = token
    return token


_FRAME_CACHE: dict[tuple, tuple[tuple, np.ndarray, int]] = {}

#: Callee-saved register count of the harness frame (mirrors
#: ``repro.core.fuzzer.generator._CALLEE_SAVED``).
_FRAME_SAVES = 6


def _frame_profile(push: "InstructionSpec | None",
                   pop: "InstructionSpec | None",
                   serialize: "InstructionSpec | None"
                   ) -> "tuple[tuple, np.ndarray, int] | None":
    """(arch ids, static signals, static cycles) of the harness frame."""
    key = (id(push), id(pop), id(serialize))
    cached = _FRAME_CACHE.get(key)
    if cached is not None:
        return cached
    specs: list[InstructionSpec] = []
    if push is not None:
        specs.extend([push] * _FRAME_SAVES)
    if serialize is not None:
        # One CPUID before the body and one after; statics are
        # order-independent, and the memo key pairs this frame with the
        # body archetypes + repeat count, which fixes the real layout.
        specs.extend([serialize, serialize])
    if pop is not None:
        specs.extend([pop] * _FRAME_SAVES)
    profiles = [spec_profile(s) for s in specs]
    if any(p.arch is None for p in profiles):
        return None
    static = np.zeros(NUM_SIGNALS, dtype=np.float64)
    cycles = 0
    for profile in profiles:
        static += profile.static_signals
        cycles += profile.issue_cycles
    result = (tuple(p.arch for p in profiles), static, cycles)
    _FRAME_CACHE[key] = result
    return result


class ScreenSlot:
    """One screening measurement's memo context.

    ``hit`` carries the rebuilt ``(signals, cycles)`` when the archetype
    class has already been executed once; otherwise the caller runs the
    scalar measurement and hands the result to :meth:`store`.
    """

    __slots__ = ("hit", "_key", "_static_signals", "_static_cycles")

    def __init__(self, key: tuple, static_signals: np.ndarray,
                 static_cycles: int,
                 hit: "tuple[np.ndarray, int] | None") -> None:
        self._key = key
        self._static_signals = static_signals
        self._static_cycles = static_cycles
        self.hit = hit

    def store(self, result: "ExecutionResult") -> None:
        """Memoize the dynamic remainder of a scalar screening run."""
        if result.faulted:
            return
        if len(_SCREEN_MEMO) >= MEMO_CAP:
            _SCREEN_MEMO.clear()
        _SCREEN_MEMO[self._key] = (
            result.signals - self._static_signals,
            result.cycles - self._static_cycles)


def screened_begin(core: "Core", body: "list[InstructionSpec]",
                   repeats: int,
                   frame: "tuple[InstructionSpec | None, ...]"
                   ) -> "ScreenSlot | None":
    """Open a canonical-state screening measurement on ``core``.

    Returns ``None`` when the vectorized path cannot serve the
    measurement (engine disabled, core not in the canonical
    reset+warmed state, HPC slots programmed, unsupported variant in
    the body, or a non-default dispatch width) — the caller must then
    fall back to the full scalar measurement.

    On a memo hit the core's microarchitectural state is deliberately
    left at the post-warm-up state (the measurement never executes);
    the canonical flag is cleared so a second measurement without an
    intervening reset cannot reuse the memo against stale state.
    """
    if scalar_only() or not getattr(core, "_canonical", False):
        return None
    if core.pipeline.dispatch_width != _DISPATCH_WIDTH:
        return None
    if core.hpc.programmed_slots():
        return None
    frame_profile = _frame_profile(*frame)
    if frame_profile is None:
        return None
    body_profiles = [spec_profile(spec) for spec in body]
    if any(p.arch is None for p in body_profiles):
        return None
    frame_arch, frame_static, frame_cycles = frame_profile
    body_static = np.zeros(NUM_SIGNALS, dtype=np.float64)
    body_cycles = 0
    for profile in body_profiles:
        body_static += profile.static_signals
        body_cycles += profile.issue_cycles
    static_signals = frame_static + repeats * body_static
    static_cycles = frame_cycles + repeats * body_cycles
    # CYCLES folds the issue cycles into the signal vector at the end
    # of execute_program; the static share must live in the static row
    # or the memoized dynamic remainder would absorb the donor
    # program's issue cycles.
    static_signals[Signal.CYCLES] = float(static_cycles)
    key = (_core_token(core), frame_arch,
           tuple(p.arch for p in body_profiles), repeats)
    cached = _SCREEN_MEMO.get(key)
    hit = None
    if cached is not None:
        dyn_signals, dyn_cycles = cached
        hit = (static_signals + dyn_signals, static_cycles + dyn_cycles)
        # The memoized measurement was never executed: state stays
        # post-warm-up, so it is no longer the canonical post-execution
        # state the next memo lookup would need.
        core._canonical = False
    return ScreenSlot(key, static_signals, static_cycles, hit)


# -- convergence replication ----------------------------------------------


def _cache_lines(cache) -> tuple:
    return cache.resident_lines()


def _state_signature(core: "Core") -> tuple:
    """Hashable digest of every piece of state the detailed path reads."""
    predictor = core.branch_predictor
    history_mask = (1 << predictor.history_bits) - 1
    return (
        _cache_lines(core.caches.l1),
        _cache_lines(core.caches.l2),
        _cache_lines(core.caches.llc),
        tuple(core.itlb._pages),
        tuple(core.dtlb._pages),
        predictor._table.tobytes(),
        predictor._history & history_mask,
        tuple((pc, e.last_address, e.stride, e.confidence)
              for pc, e in core.prefetcher._table.items()),
        core._stack_depth,
        core._last_outcome is None,
    )


#: (owner, attribute) pairs of the integer counters the detailed path
#: advances; replicated executions apply their per-execution deltas
#: arithmetically instead of re-executing.
def _counter_fields(core: "Core") -> list[tuple[object, str]]:
    fields = []
    for cache in (core.caches.l1, core.caches.l2, core.caches.llc):
        fields.append((cache.stats, "hits"))
        fields.append((cache.stats, "misses"))
        fields.append((cache.stats, "evictions"))
        fields.append((cache.stats, "flushes"))
    for tlb in (core.itlb, core.dtlb):
        fields.append((tlb, "hits"))
        fields.append((tlb, "misses"))
    fields.append((core.branch_predictor, "predictions"))
    fields.append((core.branch_predictor, "mispredictions"))
    fields.append((core.prefetcher, "issued"))
    fields.append((core.prefetcher, "trained"))
    fields.append((core.pipeline, "retired_uops"))
    fields.append((core.pipeline, "retired_instructions"))
    fields.append((core.pipeline, "stall_cycles"))
    return fields


def _counter_snapshot(core: "Core",
                      fields: list[tuple[object, str]]) -> tuple:
    return (tuple(getattr(owner, name) for owner, name in fields),
            core.branch_predictor._history)


def _apply_replica_deltas(core: "Core", fields: list[tuple[object, str]],
                          before: tuple, after: tuple, k: int,
                          cycles: int) -> None:
    """Apply ``k`` executions' worth of counter deltas arithmetically."""
    before_counts, history_before = before
    after_counts, history_after = after
    for (owner, name), was, now in zip(fields, before_counts, after_counts):
        delta = now - was
        if delta:
            setattr(owner, name, now + delta * k)
    core.clock.advance(cycles * k)
    # The global branch history appends the same n-bit pattern every
    # replica; rebuild the exact integer the scalar loop would hold.
    bits = after_counts[_PREDICTIONS_INDEX] - before_counts[_PREDICTIONS_INDEX]
    if bits:
        pattern = history_after - (history_before << bits)
        repeated = pattern * (((1 << (bits * k)) - 1) // ((1 << bits) - 1))
        core.branch_predictor._history = \
            (history_after << (bits * k)) | repeated


#: Index of the predictor ``predictions`` counter in `_counter_fields`
#: order (3 levels x 4 cache stats + 2 TLBs x 2).
_PREDICTIONS_INDEX = 16


def _scalar_results(core: "Core", program: Program, count: int,
                    update_hpc: bool) -> "list[ExecutionResult]":
    return [core.execute_program(program, update_hpc=update_hpc)
            for _ in range(count)]


def _replicate(last: "ExecutionResult", k: int) -> "list[ExecutionResult]":
    from repro.cpu.core import ExecutionResult
    return [ExecutionResult(signals=last.signals.copy(), cycles=last.cycles,
                            rdpmc_values=list(last.rdpmc_values))
            for _ in range(k)]


def _run_repeated(core: "Core", program: Program, count: int,
                  update_hpc: bool
                  ) -> "tuple[list[ExecutionResult], int]":
    """``count`` sequential executions of one program, replicated once
    the microarchitectural state reaches its fixed point.

    Returns the executed results and the number of replicas of the
    last one that complete the sequence; the core's state and counters
    already stand where ``count`` scalar executions would leave them.
    """
    if count < 0:
        raise ValueError(f"repeats must be >= 0, got {count}")
    if count == 0:
        return [], 0
    if scalar_only() or count <= 2 or core.hpc.programmed_slots():
        results = _scalar_results(core, program, count, update_hpc)
        _count(EVALS_COUNTER, count)
        _count(FALLBACK_COUNTER, count)
        return results, 0
    fields = _counter_fields(core)
    results: "list[ExecutionResult]" = []
    replicas = 0
    prev_sig = None
    prev_counts = None
    while len(results) < count:
        result = core.execute_program(program, update_hpc=update_hpc)
        results.append(result)
        if result.faulted:
            # Faulting programs skip the HPC/clock epilogue; keep the
            # remainder scalar rather than modeling partial execution.
            results.extend(_scalar_results(core, program,
                                           count - len(results),
                                           update_hpc))
            break
        sig = _state_signature(core)
        counts = _counter_snapshot(core, fields)
        if prev_sig is not None and sig == prev_sig:
            replicas = count - len(results)
            if replicas:
                _apply_replica_deltas(core, fields, prev_counts, counts,
                                      replicas, result.cycles)
            break
        if len(results) >= MAX_SCALAR_PREFIX:
            results.extend(_scalar_results(core, program,
                                           count - len(results),
                                           update_hpc))
            break
        prev_sig, prev_counts = sig, counts
    _count(EVALS_COUNTER, count)
    _count(FALLBACK_COUNTER, len(results))
    return results, replicas


def _repeated_results(core: "Core", program: Program, count: int,
                      update_hpc: bool) -> "list[ExecutionResult]":
    executed, replicas = _run_repeated(core, program, count, update_hpc)
    if replicas:
        executed.extend(_replicate(executed[-1], replicas))
    return executed


def execute_batch(core: "Core",
                  programs: "Program | Iterable[Program] | None",
                  update_hpc: bool = True,
                  repeats: "int | None" = None
                  ) -> "list[ExecutionResult]":
    """Vectorized engine behind :meth:`Core.execute_batch`.

    Semantics are exactly those of looping ``execute_program`` —
    microarchitectural state carries over between executions — with
    runs of the *same* program object served by convergence
    replication. ``repeats`` batches one program without materializing
    a duplicated list.
    """
    if isinstance(programs, Program):
        count = 1 if repeats is None else repeats
        return _repeated_results(core, programs, count, update_hpc)
    if repeats is not None:
        raise ValueError("repeats requires a single Program")
    if programs is None:
        return []
    programs = list(programs)
    results: "list[ExecutionResult]" = []
    start = 0
    while start < len(programs):
        stop = start
        while (stop < len(programs)
               and programs[stop] is programs[start]):
            stop += 1
        results.extend(_repeated_results(core, programs[start],
                                         stop - start, update_hpc))
        start = stop
    return results


def execute_signals(core: "Core", program: Program,
                    repeats: int) -> np.ndarray:
    """Vectorized engine behind :meth:`Core.execute_signals`.

    The signals of ``execute_batch(core, program, update_hpc=False,
    repeats=repeats)`` as one ``(repeats, NUM_SIGNALS)`` matrix:
    converged replicas are written into rows of that matrix rather than
    allocated as one :class:`ExecutionResult` each.
    """
    executed, replicas = _run_repeated(core, program, repeats,
                                       update_hpc=False)
    matrix = np.empty((repeats, NUM_SIGNALS), dtype=np.float64)
    for row, result in zip(matrix, executed):
        row[:] = result.signals
    if replicas:
        matrix[len(executed):] = executed[-1].signals
    return matrix


# -- aggregate block batches ----------------------------------------------


def execute_blocks(core: "Core", blocks: "Iterable[ActivityBlock]",
                   noisy: bool = True) -> "list[np.ndarray]":
    """Batched :meth:`Core.execute_block`, bit-identical to the loop.

    Interrupt arrival draws and the interference/cycle adjustments are
    vectorized across the batch (batched ``Generator.poisson`` over the
    positive-rate entries consumes the stream exactly like the scalar
    per-block draws). The HPC register-file update stays per block: its
    noise draws and float accumulation order must replay the scalar
    fold exactly.
    """
    blocks = list(blocks)
    if not blocks:
        return []
    if scalar_only():
        results = [core.execute_block(block, noisy=noisy)
                   for block in blocks]
        _count(EVALS_COUNTER, len(blocks))
        _count(FALLBACK_COUNTER, len(blocks))
        return results
    core._pristine = False
    core._canonical = False
    durations = np.array([block.duration_s for block in blocks],
                         dtype=np.float64)
    matrix = np.stack([block.signals for block in blocks])
    cycles = durations * core.clock.frequency_hz
    if noisy:
        lam = core.interrupts.effective_rate_hz * durations
        n_irq = np.zeros(len(blocks), dtype=np.float64)
        mask = lam > 0
        if mask.any():
            draws = core.interrupts._rng.poisson(lam[mask])
            n_irq[mask] = draws
            core.interrupts.total_interrupts += int(draws.sum())
        matrix[:, Signal.INTERRUPTS] += n_irq
        matrix[:, Signal.INSTRUCTIONS] += 400.0 * n_irq
        matrix[:, Signal.UOPS] += 700.0 * n_irq
        cycles = cycles + core.pipeline.penalties.interrupt * n_irq
    matrix[:, Signal.CYCLES] += cycles
    core.clock.advance(int(cycles.astype(np.int64).sum()))
    if core.hpc.programmed_slots():
        for row in matrix:
            core.hpc.accumulate(row, noisy=noisy)
    _count(EVALS_COUNTER, len(blocks))
    return list(matrix)
