"""Warm-up profiling (paper Section V-B).

Most of a processor's monitorable events cannot reflect activity inside
a guest VM. The warm-up pass measures every event twice — once with the
application running, once with the VM idle — and drops the events whose
counts do not change. Repeated a few times (the paper uses 5), this
compacts thousands of events to a few hundred, and its cost is

    T_W = (M * t_w * 2) / C

for M events, a per-event monitoring window of t_w and C hardware
counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cpu.events import EventCatalog, EventType
from repro.telemetry import runtime as telemetry
from repro.utils.rng import ensure_rng
from repro.workloads.base import Workload, idle_mix


@dataclass
class WarmupReport:
    """Outcome of warm-up profiling."""

    surviving_indices: np.ndarray
    total_events: int
    repetitions: int
    simulated_seconds: float
    type_histogram_before: dict[EventType, int] = field(default_factory=dict)
    type_histogram_after: dict[EventType, int] = field(default_factory=dict)

    @property
    def surviving_count(self) -> int:
        return len(self.surviving_indices)

    @property
    def surviving_fraction(self) -> float:
        return self.surviving_count / self.total_events if self.total_events else 0.0

    def remaining_share_by_type(self) -> dict[EventType, float]:
        """Per-type fraction of events that survived (paper Table II)."""
        shares = {}
        for event_type, before in self.type_histogram_before.items():
            after = self.type_histogram_after.get(event_type, 0)
            shares[event_type] = after / before if before else 0.0
        return shares


class WarmupProfiler:
    """Active-vs-idle differential screening of the full event list.

    Parameters
    ----------
    catalog:
        Full event catalog of the template server's processor.
    workload:
        The protected application (run with an arbitrary secret).
    monitor_window_s:
        t_w: how long each event is monitored per measurement.
    num_registers:
        C: concurrently monitorable events.
    repetitions:
        How many active/idle comparisons each event must pass.
    threshold_sigmas:
        Count change must exceed this many noise standard deviations.
    """

    def __init__(self, catalog: EventCatalog, workload: Workload,
                 monitor_window_s: float = 1.0, num_registers: int = 4,
                 repetitions: int = 5, threshold_sigmas: float = 4.0,
                 rng: "int | np.random.Generator | None" = None) -> None:
        if monitor_window_s <= 0:
            raise ValueError("monitor_window_s must be positive")
        if repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {repetitions}")
        self.catalog = catalog
        self.workload = workload
        self.monitor_window_s = monitor_window_s
        self.num_registers = num_registers
        self.repetitions = repetitions
        self.threshold_sigmas = threshold_sigmas
        self._rng = ensure_rng(rng)

    def _active_signals(self, secret, rng: np.random.Generator) -> np.ndarray:
        """Total signals of one application run in the window."""
        return self.workload.generate_signals(
            secret, rng, duration_s=self.monitor_window_s,
            slice_s=self.monitor_window_s / 50).sum(axis=0)

    def _idle_signals(self, rng: np.random.Generator) -> np.ndarray:
        """Total signals of the idle VM in the window."""
        rates = idle_mix().rate_vector()
        jitter = max(0.0, rng.normal(1.0, 0.02))
        return rates * self.monitor_window_s * jitter

    def run(self, secret=None) -> WarmupReport:
        """Screen every catalog event; returns the survivors.

        The comparison needs a secret that actually *exercises* the
        application; by default the last secret is used (for the
        keystroke workload, secret 0 means zero keystrokes — an idle
        VM — which would make active and idle indistinguishable).
        """
        secret = secret if secret is not None else self.workload.secrets[-1]
        num_events = len(self.catalog)
        tracer = telemetry.tracer()
        repetition_counter = telemetry.metrics().counter(
            "profile.warmup_repetitions")
        # The repetitions are submitted as one batch: each draws its
        # active/idle measurement pair in repetition order (so the RNG
        # stream is consumed exactly as a one-at-a-time loop would),
        # then the pass/fail screen runs vectorized over the whole
        # (repetitions, events) matrix instead of per repetition.
        batch = np.empty((self.repetitions, 2, num_events))
        for repetition in range(self.repetitions):
            with tracer.span("profile.warmup_pass",
                             repetition=repetition):
                batch[repetition] = self._measure_pass(secret)
            repetition_counter.inc()
        passes = self._screen_batch(batch)
        surviving = np.flatnonzero(passes == self.repetitions)
        # Paper's T_W = (M * t_w * 2) / C counts one active/idle pass;
        # the repetitions reuse the same measurements for confirmation.
        simulated = (num_events * self.monitor_window_s * 2) \
            / self.num_registers
        before = self.catalog.type_histogram()
        after: dict[EventType, int] = {t: 0 for t in EventType}
        for index in surviving:
            after[self.catalog.specs[index].event_type] += 1
        return WarmupReport(
            surviving_indices=surviving, total_events=num_events,
            repetitions=self.repetitions, simulated_seconds=simulated,
            type_histogram_before=before, type_histogram_after=after)

    def _measure_pass(self, secret) -> np.ndarray:
        """One active/idle measurement pair, shape ``(2, events)``."""
        active = self._active_signals(secret, self._rng)
        idle = self._idle_signals(self._rng)
        noisy_active = self.catalog.counts_for(active, rng=self._rng)
        noisy_idle = self.catalog.counts_for(idle, rng=self._rng)
        return np.stack([noisy_active, noisy_idle])

    def _screen_batch(self, batch: np.ndarray) -> np.ndarray:
        """Vectorized pass counts for a ``(R, 2, events)`` batch.

        Elementwise over the batch axis, so the result is identical to
        screening each repetition on its own.
        """
        noisy_active = batch[:, 0, :]
        noisy_idle = batch[:, 1, :]
        # Noise scale of the difference of two measurements.
        sigma = (self.catalog.noise_rel * np.maximum(noisy_active,
                                                     noisy_idle)
                 + self.catalog.noise_abs) * np.sqrt(2.0)
        changed = np.abs(noisy_active - noisy_idle) \
            > self.threshold_sigmas * sigma
        return changed.sum(axis=0)
