"""Event vulnerability ranking (paper Section V-B, "Event ranking").

For each warm-up survivor, the application is executed repeatedly with
every customer-specified secret while the event is monitored. Each
run's time series is reduced to one scalar with PCA; per-secret
Gaussians are fitted; the event's vulnerability score is the mutual
information I(Y; X) of paper Eq. 1. The profiling cost is

    T_P = (N * S * m * t_p) / C

for N events, S secrets, m runs per secret, a per-run window of t_p and
C hardware counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.profiler.gaussian import fit_class_gaussians, mutual_information
from repro.core.profiler.pca import first_principal_component
from repro.cpu.events import EventCatalog
from repro.telemetry import runtime as telemetry
from repro.utils.rng import ensure_rng
from repro.workloads.base import Workload


@dataclass
class EventRanking:
    """Mutual-information ranking over profiled events."""

    event_indices: np.ndarray
    event_names: list[str]
    mutual_information_bits: np.ndarray
    secret_entropy_bits: float
    runs_per_secret: int
    simulated_seconds: float
    order: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.order = np.argsort(-self.mutual_information_bits)

    def top(self, n: int) -> list[tuple[str, float]]:
        """The ``n`` most vulnerable events as (name, MI bits)."""
        return [(self.event_names[i], float(self.mutual_information_bits[i]))
                for i in self.order[:n]]

    def sorted_mi(self) -> np.ndarray:
        """MI values in descending order (paper Fig. 8 curves)."""
        return self.mutual_information_bits[self.order]

    def vulnerable_indices(self, mi_threshold_bits: float = 0.0) -> np.ndarray:
        """Catalog indices of events with MI above the threshold."""
        keep = self.mutual_information_bits > mi_threshold_bits
        return self.event_indices[keep]


class VulnerabilityRanker:
    """Computes the MI ranking for the warm-up survivors.

    Parameters
    ----------
    catalog / workload:
        Template processor catalog and the protected application.
    runs_per_secret:
        m: repeated executions per secret (paper: 100; 10 suffices for a
        rough analysis and is the test default).
    window_s / slice_s:
        t_p and the sampling interval of each profiling run.
    num_registers:
        C, for the cost accounting.
    """

    def __init__(self, catalog: EventCatalog, workload: Workload,
                 runs_per_secret: int = 10, window_s: float = 1.0,
                 slice_s: float = 0.01, num_registers: int = 4,
                 rng: "int | np.random.Generator | None" = None) -> None:
        if runs_per_secret < 2:
            raise ValueError(
                f"runs_per_secret must be >= 2, got {runs_per_secret}")
        self.catalog = catalog
        self.workload = workload
        self.runs_per_secret = runs_per_secret
        self.window_s = window_s
        self.slice_s = slice_s
        self.num_registers = num_registers
        self._rng = ensure_rng(rng)

    def _collect_signal_runs(self, secrets: list
                             ) -> tuple[np.ndarray, np.ndarray]:
        """All runs' per-slice signal matrices and labels.

        Signals are workload-level and event-agnostic, so one set of
        runs feeds every event's trace computation (the simulation
        equivalent of re-running the application per event group — the
        cost accounting still charges the full T_P).
        """
        runs = []
        labels = []
        tracer = telemetry.tracer()
        run_counter = telemetry.metrics().counter("profile.rank_runs")
        for label, secret in enumerate(secrets):
            with tracer.span("profile.rank_secret", secret=label,
                             runs=self.runs_per_secret):
                for _ in range(self.runs_per_secret):
                    runs.append(self.workload.generate_signals(
                        secret, self._rng, duration_s=self.window_s,
                        slice_s=self.slice_s))
                    labels.append(label)
                    run_counter.inc()
        return np.stack(runs), np.array(labels)

    def rank(self, event_indices: np.ndarray,
             secrets: list | None = None) -> EventRanking:
        """Rank ``event_indices`` by mutual information with the secret."""
        event_indices = np.asarray(event_indices, dtype=int)
        if len(event_indices) == 0:
            raise ValueError("event_indices must be non-empty")
        secrets = list(secrets) if secrets is not None else self.workload.secrets
        signal_runs, labels = self._collect_signal_runs(secrets)
        num_runs, num_slices, _ = signal_runs.shape
        mi_values = np.empty(len(event_indices))
        for i, event_index in enumerate(event_indices):
            weights = self.catalog.weights[event_index]
            traces = signal_runs @ weights                   # (R, T)
            traces = np.maximum(traces, 0.0)
            sigma = (self.catalog.noise_rel[event_index] * traces
                     + self.catalog.noise_abs[event_index])
            traces = np.maximum(
                traces + self._rng.normal(0.0, sigma), 0.0)
            if np.allclose(traces.std(axis=0).sum(), 0.0):
                mi_values[i] = 0.0
                continue
            scores, _ = first_principal_component(traces)
            model = fit_class_gaussians(scores, labels)
            mi_values[i] = mutual_information(model)
        priors = np.full(len(secrets), 1.0 / len(secrets))
        entropy_bits = float(-(priors * np.log2(priors)).sum())
        simulated = (len(event_indices) * len(secrets) * self.runs_per_secret
                     * self.window_s) / self.num_registers
        names = [self.catalog.specs[j].name for j in event_indices]
        return EventRanking(
            event_indices=event_indices, event_names=names,
            mutual_information_bits=mi_values,
            secret_entropy_bits=entropy_bits,
            runs_per_secret=self.runs_per_secret,
            simulated_seconds=simulated)
