"""The noise injector (paper Section VII-C).

The injector owns the *code segment*: the minimal covering gadget set
(43 gadgets for the paper's 137 events) stacked into one block that is
executed repeatedly; the repetition count per sampling slice comes from
the noise calculator. Injection consumes real cycles on the protected
vCPU — that consumption is the defense's latency/CPU overhead, so the
injector accounts for it precisely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cpu.signals import NUM_SIGNALS, Signal, zero_signals
from repro.telemetry import runtime as telemetry
from repro.utils.rng import ensure_rng

#: Buckets for the per-slice gadget-repetition histogram.
_REPS_BUCKETS = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                 500.0, 1000.0)


def default_noise_components() -> np.ndarray:
    """Diverse per-gadget-group signal profiles (K, NUM_SIGNALS).

    A fixed noise direction in event space is a weakness: an attacker
    can project the observations onto the orthogonal complement of the
    injected profile and strip the noise. Injecting a *random mix* of
    diverse gadget groups each slice makes the noise span a subspace
    instead of a line. These six components stand in for clusters of a
    covering set (uop-, load-, branch-, SIMD-, FP-, and cache-heavy);
    real campaigns supply their own per-gadget profiles.
    """
    base = default_noise_segment()
    components = []
    emphasis = {
        "uops": {Signal.UOPS: 1.6, Signal.INSTRUCTIONS: 1.6,
                 Signal.BIT_OPS: 1.8, Signal.NOP_OPS: 2.0},
        "loads": {Signal.LOADS: 2.5, Signal.STORES: 2.5,
                  Signal.L1D_ACCESS: 2.5, Signal.STACK_OPS: 2.0,
                  Signal.DTLB_MISS: 2.0},
        "branches": {Signal.BRANCHES: 2.5, Signal.COND_BRANCHES: 2.5,
                     Signal.BRANCH_MISS: 2.5, Signal.CALLS: 2.5,
                     Signal.RETURNS: 2.5},
        "simd": {Signal.SIMD_OPS: 2.5, Signal.MUL_OPS: 2.0,
                 Signal.CRYPTO_OPS: 2.5},
        "fp": {Signal.FP_OPS: 2.5, Signal.X87_OPS: 2.5,
               Signal.DIV_OPS: 2.5},
        "cache": {Signal.L1D_MISS: 3.0, Signal.L2_ACCESS: 3.0,
                  Signal.L2_MISS: 3.0, Signal.LLC_ACCESS: 3.0,
                  Signal.LLC_MISS: 3.0, Signal.MEM_READS: 3.0,
                  Signal.MAB_ALLOC: 3.0, Signal.CACHE_FLUSHES: 2.0,
                  Signal.PREFETCHES: 2.0},
    }
    for scales in emphasis.values():
        component = base.copy()
        for signal, scale in scales.items():
            component[signal] *= scale
        # Re-derive the cycle cost for the emphasized mix.
        component[Signal.CYCLES] = (component[Signal.UOPS] / 4.0
                                    + 10.0 * component[Signal.L1D_MISS]
                                    + 30.0 * component[Signal.L2_MISS]
                                    + 140.0 * component[Signal.LLC_MISS]
                                    + 16.0 * component[Signal.BRANCH_MISS])
        components.append(component)
    return np.stack(components)


def default_noise_segment() -> np.ndarray:
    """A representative stacked-gadget signal profile (per repetition).

    Used when no fuzzing campaign output is supplied: a uop-dense block
    (cheap ALU/SIMD work keeps cycles-per-count low) that still touches
    every guest-visible signal family, so all vulnerable events are
    perturbed. ``Signal.CYCLES`` holds the per-repetition cycle cost.
    """
    segment = zero_signals()
    segment[Signal.INSTRUCTIONS] = 96.0
    segment[Signal.UOPS] = 128.0
    segment[Signal.LOADS] = 18.0
    segment[Signal.STORES] = 8.0
    segment[Signal.L1D_ACCESS] = 26.0
    segment[Signal.L1D_MISS] = 0.6
    segment[Signal.L2_ACCESS] = 0.6
    segment[Signal.L2_MISS] = 0.12
    segment[Signal.LLC_ACCESS] = 0.12
    segment[Signal.LLC_MISS] = 0.05
    segment[Signal.MEM_READS] = 0.05
    segment[Signal.MEM_WRITES] = 0.02
    segment[Signal.MAB_ALLOC] = 0.6
    segment[Signal.BRANCHES] = 12.0
    segment[Signal.COND_BRANCHES] = 10.0
    segment[Signal.BRANCH_MISS] = 0.15
    segment[Signal.CALLS] = 0.8
    segment[Signal.RETURNS] = 0.8
    segment[Signal.ITLB_MISS] = 0.01
    segment[Signal.DTLB_MISS] = 0.06
    segment[Signal.FP_OPS] = 14.0
    segment[Signal.SIMD_OPS] = 20.0
    segment[Signal.X87_OPS] = 2.0
    segment[Signal.DIV_OPS] = 0.3
    segment[Signal.MUL_OPS] = 5.0
    segment[Signal.BIT_OPS] = 28.0
    segment[Signal.CRYPTO_OPS] = 1.0
    segment[Signal.STACK_OPS] = 3.0
    segment[Signal.NOP_OPS] = 4.0
    segment[Signal.PREFETCHES] = 1.0
    segment[Signal.CACHE_FLUSHES] = 1.5
    segment[Signal.SERIALIZING] = 0.05
    segment[Signal.TLB_FLUSHES] = 0.01
    # Cycle cost: throughput-bound uops plus the (rare) miss penalties.
    segment[Signal.CYCLES] = (segment[Signal.UOPS] / 4.0
                              + 10.0 * segment[Signal.L1D_MISS]
                              + 30.0 * segment[Signal.L2_MISS]
                              + 140.0 * segment[Signal.LLC_MISS]
                              + 16.0 * segment[Signal.BRANCH_MISS])
    return segment


@dataclass
class InjectionReport:
    """Accounting for one obfuscated window."""

    repetitions: np.ndarray
    injected_reference_counts: np.ndarray
    injected_cycles: np.ndarray
    clipped_slices: int

    @property
    def total_reference_counts(self) -> float:
        return float(self.injected_reference_counts.sum())

    @property
    def total_cycles(self) -> float:
        return float(self.injected_cycles.sum())

    def latency_overhead(self, app_cycles: np.ndarray,
                         active_mask: np.ndarray | None = None) -> float:
        """Execution-time overhead: injected / application cycles.

        Injection is pinned to the protected vCPU, so the application
        is slowed only while it actually runs; ``active_mask`` selects
        those slices (all slices when omitted).
        """
        app_cycles = np.asarray(app_cycles, dtype=np.float64)
        if active_mask is None:
            active_mask = np.ones(len(app_cycles), dtype=bool)
        app = app_cycles[active_mask].sum()
        if app <= 0:
            return 0.0
        return float(self.injected_cycles[active_mask].sum() / app)

    def cpu_usage_overhead(self, slice_cycles: float) -> float:
        """Extra CPU utilization: injected cycles / core capacity."""
        capacity = slice_cycles * len(self.injected_cycles)
        if capacity <= 0:
            return 0.0
        return float(self.total_cycles / capacity)


class NoiseInjector:
    """Converts noise values (reference-event counts) into injections.

    Parameters
    ----------
    segment_signals:
        Per-repetition signal profile(s) of the covering gadget set:
        either one stacked vector ``(NUM_SIGNALS,)`` or a component
        stack ``(K, NUM_SIGNALS)`` — one row per gadget group. With
        components, every slice executes a *random mix* of groups, so
        the injected noise spans a K-dimensional subspace of event
        space instead of a fixed line an attacker could project out.
        (``Signal.CYCLES`` entries = per-repetition cycle costs.)
    reference_weights:
        The reference event's weight row; fixes the counts-per-
        repetition conversion.
    clip_bound:
        B_u: per-slice injected reference counts are clipped to
        [0, B_u] (noise cannot be negative — gadgets only add counts).
    """

    def __init__(self, segment_signals: np.ndarray,
                 reference_weights: np.ndarray,
                 clip_bound: float = np.inf,
                 rng: "int | np.random.Generator | None" = None) -> None:
        segment_signals = np.asarray(segment_signals, dtype=np.float64)
        reference_weights = np.asarray(reference_weights, dtype=np.float64)
        if segment_signals.ndim == 1:
            segment_signals = segment_signals[None, :]
        if segment_signals.ndim != 2 \
                or segment_signals.shape[1] != NUM_SIGNALS:
            raise ValueError(
                "segment_signals must be (NUM_SIGNALS,) or "
                "(K, NUM_SIGNALS)")
        if reference_weights.shape != (NUM_SIGNALS,):
            raise ValueError("reference_weights must be one weight row")
        if clip_bound <= 0:
            raise ValueError(f"clip_bound must be positive, got {clip_bound}")
        self.components = segment_signals
        component_counts = segment_signals @ reference_weights
        if np.any(component_counts <= 0):
            raise ValueError(
                "a gadget component does not move the reference event; "
                "pick a different covering set or reference event")
        self._component_reference_counts = component_counts
        self._component_cycles = segment_signals[:, Signal.CYCLES]
        self.clip_bound = float(clip_bound)
        self._rng = ensure_rng(rng)

    @property
    def num_components(self) -> int:
        return len(self.components)

    @property
    def segment_signals(self) -> np.ndarray:
        """Mean per-repetition profile (back-compat single-segment view)."""
        return self.components.mean(axis=0)

    @property
    def reference_counts_per_rep(self) -> float:
        """Mean reference counts per repetition across components."""
        return float(self._component_reference_counts.mean())

    def inject(self, matrix: np.ndarray, noise_counts: np.ndarray
               ) -> tuple[np.ndarray, InjectionReport]:
        """Add gadget repetitions realizing ``noise_counts`` per slice.

        With multiple components each slice draws Dirichlet mixing
        weights, splits the (clipped) target counts across components,
        and rounds per-component repetitions. Returns the obfuscated
        signal matrix and the accounting report.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        noise_counts = np.asarray(noise_counts, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != NUM_SIGNALS:
            raise ValueError("matrix must be (T, NUM_SIGNALS)")
        if noise_counts.shape != (len(matrix),):
            raise ValueError("noise_counts must have one entry per slice")
        clipped = np.clip(noise_counts, 0.0, self.clip_bound)
        clipped_slices = int(((noise_counts < 0)
                              | (noise_counts > self.clip_bound)).sum())
        k = self.num_components
        if k == 1:
            mix = np.ones((len(matrix), 1))
        else:
            mix = self._rng.dirichlet(np.ones(k), size=len(matrix))
        # Per-component repetitions: split the count target by mix
        # weight, convert with each component's own counts-per-rep.
        per_component = np.round(
            clipped[:, None] * mix / self._component_reference_counts)
        injected = per_component @ self.components
        repetitions = per_component.sum(axis=1)
        report = InjectionReport(
            repetitions=repetitions,
            injected_reference_counts=per_component
            @ self._component_reference_counts,
            injected_cycles=per_component @ self._component_cycles,
            clipped_slices=clipped_slices)
        registry = telemetry.metrics()
        if registry.enabled:
            registry.counter("inject.windows").inc()
            registry.counter("inject.slices").inc(len(matrix))
            registry.counter("inject.clipped_slices").inc(clipped_slices)
            registry.counter("inject.repetitions").inc(
                float(repetitions.sum()))
            registry.counter("inject.cycles").inc(report.total_cycles)
            histogram = registry.histogram("inject.reps_per_slice",
                                           _REPS_BUCKETS)
            for value in repetitions:
                histogram.observe(float(value))
        return matrix + injected, report


class RandomNoiseInjector:
    """Uniform-random noise baseline (paper Fig. 11).

    Injects ``U(0, bound)`` reference counts per slice — no privacy
    guarantee, and empirically needs several times more noise than the
    DP mechanisms for the same attack degradation.
    """

    def __init__(self, injector: NoiseInjector, bound: float,
                 rng: "int | np.random.Generator | None" = None) -> None:
        if bound < 0:
            raise ValueError(f"bound must be non-negative, got {bound}")
        self.injector = injector
        self.bound = float(bound)
        self._rng = ensure_rng(rng)

    def obfuscate_matrix(self, matrix: np.ndarray, slice_s: float,
                         rng: "np.random.Generator | None" = None
                         ) -> np.ndarray:
        gen = rng if rng is not None else self._rng
        noise = gen.uniform(0.0, self.bound, size=len(matrix))
        obfuscated, self.last_report = self.injector.inject(matrix, noise)
        return obfuscated


class SecretTiedNoise:
    """Constant secret-dependent noise (paper Section IX-B extension).

    Against an attacker who averages many traces of the same secret, a
    constant per-secret offset cannot be averaged out. The offset is a
    deterministic keyed hash of the secret, so re-runs of the same
    secret always add the same counts.
    """

    def __init__(self, injector: NoiseInjector, scale: float,
                 key: int = 0x5EC12E7) -> None:
        if scale < 0:
            raise ValueError(f"scale must be non-negative, got {scale}")
        self.injector = injector
        self.scale = float(scale)
        self.key = key

    def offset_for(self, secret) -> float:
        """Per-slice constant reference counts for ``secret``."""
        import zlib
        digest = zlib.crc32(f"{self.key}:{secret!r}".encode("utf-8"))
        return self.scale * (digest / 2**32)

    def obfuscate_matrix_for_secret(self, matrix: np.ndarray,
                                    secret) -> np.ndarray:
        """Add the secret's constant offset to every slice."""
        offset = self.offset_for(secret)
        noise = np.full(len(matrix), offset)
        obfuscated, self.last_report = self.injector.inject(matrix, noise)
        return obfuscated
