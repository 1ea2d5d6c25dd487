"""Workload building blocks: instruction mixes, phases, phase programs.

A workload is a *phase program*: a sequence of phases, each with an
instruction mix (rates of loads, branches, FP ops, miss ratios, ...) and
a duration. Sampled at the monitor's 1 ms interval it yields a
``(T, NUM_SIGNALS)`` signal matrix, one row per slice. Per-run randomness
(intensity jitter, duration jitter) produces the Gaussian within-secret
spread of HPC values the paper observes (Fig. 3), while between-secret
phase differences carry the information the attacks extract.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, replace

import numpy as np

from repro.cpu.signals import Signal, zero_signals
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class InstructionMix:
    """A self-consistent instruction mix, expressed as rates.

    ``ips`` is instructions per second; every other field is a ratio
    relative to the natural denominator (per instruction for operation
    shares, per access for miss ratios). :meth:`rate_vector` converts
    the mix into a per-second signal-rate vector with consistent derived
    quantities (L1D accesses = loads + stores, L2 accesses = L1D misses,
    and so on).
    """

    ips: float = 1e9
    uops_per_instr: float = 1.6
    load_ratio: float = 0.25
    store_ratio: float = 0.10
    branch_ratio: float = 0.18
    cond_branch_share: float = 0.8
    call_ratio: float = 0.01
    branch_miss_ratio: float = 0.02
    l1d_miss_ratio: float = 0.03
    l2_miss_ratio: float = 0.30
    llc_miss_ratio: float = 0.20
    dtlb_miss_ratio: float = 0.002
    itlb_miss_ratio: float = 0.0005
    l1i_miss_ratio: float = 0.005
    fp_ratio: float = 0.0
    simd_ratio: float = 0.0
    x87_ratio: float = 0.0
    crypto_ratio: float = 0.0
    div_ratio: float = 0.001
    mul_ratio: float = 0.01
    bit_ratio: float = 0.30
    stack_ratio: float = 0.04
    nop_ratio: float = 0.01
    prefetch_ratio: float = 0.002

    def rate_vector(self) -> np.ndarray:
        """Per-second signal rates implied by this mix."""
        if self.ips < 0:
            raise ValueError(f"ips must be non-negative, got {self.ips}")
        rates = zero_signals()
        instr = self.ips
        loads = instr * self.load_ratio
        stores = instr * self.store_ratio
        l1d_access = loads + stores
        l1d_miss = l1d_access * self.l1d_miss_ratio
        l2_access = l1d_miss
        l2_miss = l2_access * self.l2_miss_ratio
        llc_access = l2_miss
        llc_miss = llc_access * self.llc_miss_ratio
        branches = instr * self.branch_ratio
        rates[Signal.INSTRUCTIONS] = instr
        rates[Signal.UOPS] = instr * self.uops_per_instr
        rates[Signal.LOADS] = loads
        rates[Signal.STORES] = stores
        rates[Signal.L1D_ACCESS] = l1d_access
        rates[Signal.L1D_MISS] = l1d_miss
        rates[Signal.L1I_MISS] = instr * self.l1i_miss_ratio
        rates[Signal.L2_ACCESS] = l2_access
        rates[Signal.L2_MISS] = l2_miss
        rates[Signal.LLC_ACCESS] = llc_access
        rates[Signal.LLC_MISS] = llc_miss
        rates[Signal.MEM_READS] = llc_miss
        rates[Signal.MEM_WRITES] = llc_miss * 0.4
        rates[Signal.MAB_ALLOC] = l1d_miss
        rates[Signal.BRANCHES] = branches
        rates[Signal.COND_BRANCHES] = branches * self.cond_branch_share
        rates[Signal.BRANCH_MISS] = branches * self.branch_miss_ratio
        rates[Signal.CALLS] = instr * self.call_ratio
        rates[Signal.RETURNS] = instr * self.call_ratio
        rates[Signal.ITLB_MISS] = instr * self.itlb_miss_ratio
        rates[Signal.DTLB_MISS] = l1d_access * self.dtlb_miss_ratio
        rates[Signal.FP_OPS] = instr * self.fp_ratio
        rates[Signal.SIMD_OPS] = instr * self.simd_ratio
        rates[Signal.X87_OPS] = instr * self.x87_ratio
        rates[Signal.CRYPTO_OPS] = instr * self.crypto_ratio
        rates[Signal.DIV_OPS] = instr * self.div_ratio
        rates[Signal.MUL_OPS] = instr * self.mul_ratio
        rates[Signal.BIT_OPS] = instr * self.bit_ratio
        rates[Signal.STACK_OPS] = instr * self.stack_ratio
        rates[Signal.NOP_OPS] = instr * self.nop_ratio
        rates[Signal.PREFETCHES] = instr * self.prefetch_ratio
        return rates

    def scaled(self, factor: float) -> "InstructionMix":
        """Same mix at ``factor`` times the instruction rate."""
        return replace(self, ips=self.ips * factor)


def idle_mix() -> InstructionMix:
    """Background activity of an otherwise idle guest."""
    return InstructionMix(ips=4e6, load_ratio=0.22, store_ratio=0.08,
                          branch_ratio=0.2, l1d_miss_ratio=0.01)


@dataclass(frozen=True)
class Phase:
    """One workload phase: a mix active for a (jittered) duration."""

    name: str
    mix: InstructionMix
    duration_s: float
    duration_jitter: float = 0.1
    intensity_jitter: float = 0.08

    def sample_duration(self, rng: np.random.Generator) -> float:
        """Draw this execution's actual phase duration."""
        jitter = rng.normal(1.0, self.duration_jitter)
        return max(1e-4, self.duration_s * jitter)

    def sample_intensity(self, rng: np.random.Generator) -> float:
        """Draw this execution's intensity multiplier."""
        return max(0.05, rng.normal(1.0, self.intensity_jitter))


@dataclass
class PhaseProgram:
    """An ordered phase list executed once per workload run."""

    phases: list[Phase] = field(default_factory=list)

    def render(self, duration_s: float, slice_s: float,
               rng: np.random.Generator,
               baseline: InstructionMix | None = None
               ) -> tuple[np.ndarray, list[str]]:
        """Render the program into fixed-width sampling slices.

        Returns the ``(T, NUM_SIGNALS)`` signal matrix, one row per
        slice, and the name of the dominant phase per slice. The program
        plays from t=0; once it finishes, the baseline (idle) mix fills
        the remainder of the window. Within a slice every overlapping
        phase's rate vector is integrated over the overlap, with
        per-slice jitter so no two runs are identical.

        The phase labels give ground-truth frame alignment — what an
        attacker who controls the template VM has during offline
        training (the MEA case). Slices dominated by the idle baseline
        get the empty-string label.
        """
        if duration_s <= 0 or slice_s <= 0:
            raise ValueError("duration_s and slice_s must be positive")
        num_slices = int(round(duration_s / slice_s))
        if num_slices < 1:
            raise ValueError(f"duration_s={duration_s} is shorter than one "
                             f"slice_s={slice_s}")
        baseline = baseline or idle_mix()
        index = np.arange(num_slices)
        start, end = index * slice_s, (index + 1) * slice_s
        signals = np.tile(baseline.rate_vector() * slice_s, (num_slices, 1))
        best_overlap = np.zeros(num_slices)
        best_phase = np.full(num_slices, len(self.phases))  # the "" label
        # Play this run's phases in time order, so each slice sums its
        # phases in the same order as a slice-by-slice walk, and a
        # strict ``>`` keeps the first of tied overlaps.
        t = 0.0
        for k, phase in enumerate(self.phases):
            ph_start, ph_end = t, t + phase.sample_duration(rng)
            rates = phase.mix.rate_vector() * phase.sample_intensity(rng)
            t = ph_end
            lo = np.searchsorted(end, ph_start, side="right")
            hi = np.searchsorted(start, ph_end, side="left")
            overlap = (np.minimum(end[lo:hi], ph_end)
                       - np.maximum(start[lo:hi], ph_start))
            positive = overlap > 0
            rows = lo + np.flatnonzero(positive)
            overlap = overlap[positive]
            signals[rows] = signals[rows] + rates * overlap[:, None]
            better = overlap > best_overlap[rows]
            best_overlap[rows[better]] = overlap[better]
            best_phase[rows[better]] = k
        best_phase[best_overlap < 0.3 * slice_s] = len(self.phases)
        names = [phase.name for phase in self.phases] + [""]
        labels = [names[k] for k in best_phase.tolist()]
        # Per-slice multiplicative jitter: microarchitectural noise
        # beyond measurement noise (scheduling, frequency wander).
        jitter = rng.normal(1.0, 0.012, size=num_slices)
        return signals * np.maximum(0.0, jitter)[:, None], labels


class Workload(abc.ABC):
    """A victim application parameterized by a secret."""

    #: Sampling-window length the paper uses (3 s at 1 ms).
    default_duration_s: float = 3.0
    default_slice_s: float = 1e-3

    @property
    @abc.abstractmethod
    def secrets(self) -> list:
        """All secret values this workload can execute."""

    @abc.abstractmethod
    def program_for(self, secret, rng: np.random.Generator) -> PhaseProgram:
        """Build this run's phase program for ``secret``."""

    def generate_signals(self, secret,
                         rng: "int | np.random.Generator | None" = None,
                         duration_s: float | None = None,
                         slice_s: float | None = None) -> np.ndarray:
        """Run the workload once; returns the ``(T, NUM_SIGNALS)``
        sampled signal matrix."""
        signals, _ = self.generate_signals_with_phases(secret, rng,
                                                       duration_s, slice_s)
        return signals

    def generate_signals_with_phases(
            self, secret, rng: "int | np.random.Generator | None" = None,
            duration_s: float | None = None, slice_s: float | None = None
    ) -> tuple[np.ndarray, list[str]]:
        """Run once; returns (signal matrix, dominant phase name per
        slice)."""
        if secret not in self.secrets:
            raise ValueError(f"unknown secret {secret!r} for {type(self).__name__}")
        gen = ensure_rng(rng)
        program = self.program_for(secret, gen)
        return program.render(
            duration_s if duration_s is not None else self.default_duration_s,
            slice_s if slice_s is not None else self.default_slice_s,
            gen)
