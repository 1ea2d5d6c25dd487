"""Code generation and execution (paper Section VI-D).

The harness places gadget code on a dedicated page between a prolog and
an epilog (saving registers, pointing every memory operand at a
pre-allocated writable data page), serializes execution with CPUID
around the measurement, reads the HPC registers with RDPMC, pins the
process and isolates the core to suppress interrupt noise — each of the
paper's measurement-stability techniques.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fuzzer.grammar import Gadget
from repro.cpu import batch
from repro.cpu.core import Core, decode_spec
from repro.isa.spec import Instruction, InstructionSpec, Program
from repro.utils.rng import derive_streams, ensure_rng

#: Callee-saved registers the prolog preserves.
_CALLEE_SAVED = 6


@dataclass
class MeasuredDelta:
    """One measurement: per-event count deltas plus raw execution data."""

    deltas: np.ndarray
    signals: np.ndarray
    cycles: int


class ExecutionHarness:
    """Executes gadgets on a core and measures HPC event deltas.

    Parameters
    ----------
    core:
        The simulated core (its data/stack pages back memory operands).
    unroll:
        How many (reset + trigger) iterations one measurement executes;
        lifts real effects above the counters' read noise.
    fast:
        When True, event deltas are computed from the recorded signal
        vector for *all* requested events at once (equivalent to having
        unlimited counter registers); when False, events are measured in
        hardware groups of four via RDPMC, exactly as on real silicon.
    """

    def __init__(self, core: Core, unroll: int = 16, fast: bool = True,
                 rng: "int | np.random.Generator | None" = None) -> None:
        if unroll < 1:
            raise ValueError(f"unroll must be >= 1, got {unroll}")
        self.core = core
        self.unroll = unroll
        self.fast = fast
        self._rng = ensure_rng(rng)
        self._push = self._find_spec("PUSH r64")
        self._pop = self._find_spec("POP r64")
        self._serialize = self._find_spec("CPUID")
        core.configure_measurement_environment()
        self.executions = 0

    def set_rng(self, rng: "int | np.random.Generator | None") -> None:
        """Replace the measurement-noise stream.

        The campaign's screening stage reseeds per gadget so that each
        gadget's noise draws depend only on (root seed, gadget index),
        never on how the budget was sharded across workers.
        """
        self._rng = ensure_rng(rng)

    def warm_measurement_state(self) -> None:
        """Bring a freshly reset core to the steady measurement state.

        After :meth:`Core.reset_microarch_state` every line is cold; a
        real campaign's back-to-back measurements instead run with the
        harness's own data/stack lines and code page resident (only a
        gadget's explicit flushes evict them). Touching those few
        locations deterministically reproduces that steady state without
        executing a full throwaway measurement.
        """
        core = self.core
        core.itlb.access(core.code_page.base)
        core.dtlb.access(core.data_page.base)
        core.caches.access(core.data_page.base, write=False)
        core.dtlb.access(core.stack_page.base)
        core.caches.access(core.stack_page.base, write=True)
        # A warm-up over a freshly reset core is the *canonical* state
        # the batch engine's screening memo is keyed against; warming
        # anything else is just a warm-up.
        core._canonical = core._pristine
        core._pristine = False

    def _find_spec(self, name: str) -> InstructionSpec | None:
        # The harness helpers come from the ISA catalog when available;
        # a core without a catalog entry just skips that element.
        from repro.isa.catalog import shared_catalog
        try:
            return shared_catalog().get(name)
        except KeyError:
            return None

    # -- program construction ------------------------------------------

    def build_program(self, body: list[InstructionSpec], repeats: int = 1,
                      include_frame: bool = True) -> Program:
        """Prolog + body*repeats + epilog, placed in the code page.

        Instructions sit 4 bytes apart from the code page's base; every
        variant with a memory operand (its decoded ``mem_operand``
        flag) points at the data page.

        ``include_frame=False`` emits the bare body — used between
        in-execution RDPMC reads, where the prolog/epilog counts would
        pollute every per-iteration delta.
        """
        prolog: list[InstructionSpec] = []
        epilog: list[InstructionSpec] = []
        if include_frame and self._push is not None:
            prolog.extend([self._push] * _CALLEE_SAVED)
        if include_frame and self._serialize is not None:
            prolog.append(self._serialize)
            epilog.append(self._serialize)
        if include_frame and self._pop is not None:
            epilog.extend([self._pop] * _CALLEE_SAVED)
        body = list(body)
        data = self.core.data_page.base

        def operands(specs: list[InstructionSpec]) -> list[int]:
            return [data if decode_spec(spec).mem_operand else 0
                    for spec in specs]

        specs = prolog + body * repeats + epilog
        placed = (operands(prolog) + operands(body) * repeats
                  + operands(epilog))
        base = self.core.code_page.base
        return Program([
            Instruction(spec, base + 4 * i, operand, True)
            for i, (spec, operand) in enumerate(zip(specs, placed))])

    def measure_executions(self, paths: list[list[InstructionSpec]],
                           event_indices: np.ndarray, iterations: int,
                           executions: int) -> np.ndarray:
        """Per-iteration deltas of repeated executions of each path (Fig. 6).

        One execution runs a path's body ``iterations`` times back to
        back with the counters read between iterations; a path's
        ``executions`` executions follow each other on the same core
        (microarchitectural state is deliberately NOT reset — that is
        exactly what the repeated-trigger test exploits), so all
        ``executions * iterations`` bodies form one sequence and run as
        one batch submission. The paths run in order, each on the core
        state the previous one left. Returns shape (paths, executions,
        iterations, E). An empty body measures pure read noise.

        Each execution's interference stream is
        ``derive_stream(root, "interference")``; the call seeds all of
        them in one array pass (:func:`repro.utils.rng.derive_streams`),
        with the same draws.
        """
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        if executions < 1:
            raise ValueError(f"executions must be >= 1, got {executions}")
        event_indices = np.asarray(event_indices, dtype=int)
        catalog = self.core.catalog
        n_events = len(event_indices)
        # One root per execution from the harness stream, in path then
        # execution order (64-bit bounded draws are unbuffered: one bulk
        # draw equals one draw at a time); each seeds that execution's
        # interference stream. Everything downstream is a pure function
        # of the roots, which the pinned-digest regression tests lock.
        roots = self._rng.integers(2**63, size=len(paths) * executions)
        per_iteration = np.zeros((len(paths), executions, iterations,
                                  n_events))
        weights_t = catalog.weights[event_indices].T
        for measured, body in zip(per_iteration, paths):
            if body:
                program = self.build_program(body, repeats=1,
                                             include_frame=False)
                signals = self.core.execute_signals(program,
                                                    executions * iterations)
                # Exact on integer signals; (iterations, S) as counts_for.
                np.maximum(signals.reshape(executions, iterations, -1)
                           @ weights_t, 0.0, out=measured)
        # RDPMC reads the register exactly; the non-determinism is rare
        # external interference (residual interrupts on the isolated
        # core) that *adds* counts between reads. This is precisely the
        # disturbance the paper's median-of-multiple-executions step
        # filters out. Numpy draws Poisson values one by one, so a
        # stream's draws up to its last polluted position are the head
        # of a full-length draw; a single event takes a scalar lambda.
        uniforms = np.empty((len(roots), iterations * n_events))
        streams = derive_streams(roots.tolist(), "interference")
        for row, stream in zip(uniforms, streams):
            stream.random(out=row)
        polluted = uniforms < 0.03
        ends = (polluted * np.arange(1, polluted.shape[1] + 1)).max(
            axis=1, initial=0)
        noise = np.zeros(polluted.shape, dtype=np.int64)
        noise_lam = np.tile(catalog.noise_abs[event_indices], iterations)
        for s in np.flatnonzero(ends).tolist():
            end = int(ends[s])
            noise[s, :end] = (streams[s].poisson(noise_lam[0], size=end)
                              if n_events == 1 else
                              streams[s].poisson(noise_lam[:end]))
        per_iteration += (polluted * noise).reshape(per_iteration.shape)
        self.executions += len(paths) * executions * iterations
        return per_iteration

    # -- measurement -----------------------------------------------------

    def screen_measure(self, gadget: Gadget,
                       event_indices: np.ndarray) -> MeasuredDelta:
        """Screening-stage measurement through the batch engine's memo.

        Callable only in the screening flow — reset, warm-up, then one
        measurement — where the core is in the canonical state the
        memo is keyed against. Gadgets whose archetype sequence was
        already measured once skip execution entirely and rebuild their
        signals as ``static(program) + dynamic(archetype)``, which is
        bit-identical to the scalar measurement (the equivalence suite
        proves it). Anything the engine cannot serve exactly — engine
        disabled, non-canonical state, slow RDPMC grouping, programmed
        HPC slots, unsupported instruction classes — falls back to
        :meth:`measure_gadget`.
        """
        body = list(gadget.reset) + list(gadget.trigger)
        slot = None
        if self.fast:
            slot = batch.screened_begin(
                self.core, body, self.unroll,
                (self._push, self._pop, self._serialize))
        if slot is None:
            batch.count_evals(1)
            batch.count_fallback(1)
            return self.measure_gadget(gadget, event_indices)
        event_indices = np.asarray(event_indices, dtype=int)
        if slot.hit is not None:
            signals, cycles = slot.hit
            batch.count_evals(1)
        else:
            program = self.build_program(body, repeats=self.unroll)
            result = self.core.execute_program(program, update_hpc=False)
            slot.store(result)
            signals, cycles = result.signals, result.cycles
            batch.count_evals(1)
            batch.count_fallback(1)
        deltas = np.atleast_1d(self.core.catalog.counts_for(
            signals, rng=self._rng, event_indices=event_indices))
        self.executions += 1
        return MeasuredDelta(deltas=deltas, signals=signals, cycles=cycles)

    def measure_program(self, program: Program,
                        event_indices: np.ndarray) -> MeasuredDelta:
        """Fast-path measurement of an already-built program.

        One scalar execution with no archetype memo; screening goes
        through :meth:`screen_measure` instead.
        """
        event_indices = np.asarray(event_indices, dtype=int)
        result = self.core.execute_program(program, update_hpc=False)
        deltas = np.atleast_1d(self.core.catalog.counts_for(
            result.signals, rng=self._rng, event_indices=event_indices))
        self.executions += 1
        return MeasuredDelta(deltas=deltas, signals=result.signals,
                             cycles=result.cycles)

    def measure_body(self, body: list[InstructionSpec],
                     event_indices: np.ndarray,
                     repeats: int | None = None) -> MeasuredDelta:
        """Execute a body and return per-event deltas for it."""
        event_indices = np.asarray(event_indices, dtype=int)
        repeats = repeats if repeats is not None else self.unroll
        program = self.build_program(body, repeats=repeats)
        if self.fast:
            return self.measure_program(program, event_indices)
        deltas = np.empty(len(event_indices))
        hpc = self.core.hpc
        groups = [event_indices[i:i + hpc.num_registers]
                  for i in range(0, len(event_indices),
                                 hpc.num_registers)]
        signals_total = None
        cycles_total = 0
        for g, group in enumerate(groups):
            for slot, event in enumerate(group):
                hpc.program(slot, int(event))
            before = np.array([hpc.rdpmc(s) for s in range(len(group))])
            result = self.core.execute_program(program, update_hpc=True)
            after = np.array([hpc.rdpmc(s) for s in range(len(group))])
            start = g * hpc.num_registers
            deltas[start:start + len(group)] = after - before
            signals_total = (result.signals if signals_total is None
                             else signals_total + result.signals)
            cycles_total += result.cycles
        self.executions += len(groups)
        return MeasuredDelta(deltas=deltas, signals=signals_total,
                             cycles=cycles_total)

    def measure_gadget(self, gadget: Gadget, event_indices: np.ndarray,
                       repeats: int | None = None) -> MeasuredDelta:
        """Hot path: (reset + trigger) * repeats."""
        return self.measure_body(list(gadget.reset) + list(gadget.trigger),
                                 event_indices, repeats)

    def gadget_signal_profile(self, gadget: Gadget,
                              iterations: int = 8) -> np.ndarray:
        """Mean per-iteration signal vector of the gadget.

        The Event Obfuscator uses this to convert a differential-privacy
        noise value (in event counts) into a number of gadget
        repetitions.
        """
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        program = self.build_program(
            list(gadget.reset) + list(gadget.trigger), repeats=iterations)
        result = self.core.execute_program(program, update_hpc=False)
        overhead = self.build_program([], repeats=0)
        base = self.core.execute_program(overhead, update_hpc=False)
        return (result.signals - base.signals) / iterations
