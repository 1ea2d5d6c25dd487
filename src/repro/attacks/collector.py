"""HPC leakage-trace collection.

The collector plays a workload inside a (simulated) SEV guest while the
malicious host samples the victim vCPU's HPC events through the
perf_event interface — 3 seconds at a 1 ms interval in the paper, i.e. a
4 x 3000 tensor per run. An optional obfuscator hook lets the defense
inject noise gadgets into the guest's execution flow before the host
observes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cpu.events import processor_catalog
from repro.cpu.interrupts import InterruptSource
from repro.cpu.signals import Signal
from repro.utils.rng import ensure_rng
from repro.vm.perf_event import PerfEventAttr, PerfEventMonitor
from repro.workloads.base import Workload

def _forward_fill(trace: np.ndarray) -> np.ndarray:
    """Replace NaN slices with the last observed value per event row."""
    filled = trace.copy()
    for row in filled:
        last = 0.0
        for t in range(len(row)):
            if np.isnan(row[t]):
                row[t] = last
            else:
                last = row[t]
    return filled


#: The four events the paper monitors (top-ranked by the profiler).
DEFAULT_ATTACK_EVENTS: tuple[str, ...] = (
    "RETIRED_UOPS",
    "LS_DISPATCH",
    "MAB_ALLOCATION_BY_PIPE",
    "DATA_CACHE_REFILLS_FROM_SYSTEM",
)


@dataclass
class TraceDataset:
    """Collected leakage traces with labels.

    ``traces`` is (N, E, T); ``labels`` indexes into ``secrets``;
    ``frame_labels`` (N, T), present when collected with frame
    alignment, holds per-slice phase-class ids (0 = idle/blank).
    """

    traces: np.ndarray
    labels: np.ndarray
    secrets: list
    event_names: list[str]
    frame_labels: np.ndarray | None = None
    frame_classes: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.traces)

    def split(self, train_fraction: float = 0.7,
              rng: "int | np.random.Generator | None" = None
              ) -> tuple["TraceDataset", "TraceDataset"]:
        """Random train/validation split (paper: 70% / 30%)."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError(
                f"train_fraction must be in (0, 1), got {train_fraction}")
        gen = ensure_rng(rng)
        order = gen.permutation(len(self))
        cut = int(round(train_fraction * len(self)))
        first, second = order[:cut], order[cut:]

        def subset(idx: np.ndarray) -> TraceDataset:
            return TraceDataset(
                traces=self.traces[idx], labels=self.labels[idx],
                secrets=self.secrets, event_names=self.event_names,
                frame_labels=(None if self.frame_labels is None
                              else self.frame_labels[idx]),
                frame_classes=self.frame_classes)

        return subset(first), subset(second)


class TraceCollector:
    """Collects HPC traces of a workload under host monitoring.

    Parameters
    ----------
    workload:
        The victim application.
    events:
        HPC events the attacker monitors (max = hardware registers for
        un-multiplexed traces).
    processor_model:
        Host processor (event catalog source).
    duration_s / slice_s:
        Sampling window and interval (paper: 3 s at 1 ms).
    obfuscator:
        Optional defense hook with an ``obfuscate_matrix(matrix,
        slice_s, rng)`` method (see
        :class:`repro.core.obfuscator.EventObfuscator`).
    pid_filtered:
        Whether the host monitor follows only the victim vCPU.
    """

    def __init__(self, workload: Workload,
                 events: tuple[str, ...] = DEFAULT_ATTACK_EVENTS,
                 processor_model: str = "amd-epyc-7252",
                 duration_s: float = 3.0, slice_s: float = 1e-3,
                 obfuscator=None, pid_filtered: bool = True,
                 rng: "int | np.random.Generator | None" = None) -> None:
        if duration_s <= 0 or slice_s <= 0:
            raise ValueError("duration_s and slice_s must be positive")
        self.workload = workload
        self.events = list(events)
        self.catalog = processor_catalog(processor_model)
        self.duration_s = duration_s
        self.slice_s = slice_s
        self.obfuscator = obfuscator
        self.pid_filtered = pid_filtered
        self._rng = ensure_rng(rng)
        self.num_slices = int(round(duration_s / slice_s))
        self._interrupts = InterruptSource(
            rng=np.random.default_rng(int(self._rng.integers(2**63))))

    # -- single trace --------------------------------------------------

    def collect_one(self, secret,
                    rng: "int | np.random.Generator | None" = None,
                    with_frames: bool = False
                    ) -> "tuple[np.ndarray, list[str]]":
        """Collect one (E, T) trace; also returns per-slice phase names."""
        gen = ensure_rng(rng) if rng is not None else self._rng
        matrix, phases = self.workload.generate_signals_with_phases(
            secret, gen, self.duration_s, self.slice_s)  # (T, S)
        matrix = self._add_interrupt_noise(matrix, gen)
        if self.obfuscator is not None:
            matrix = self.obfuscator.obfuscate_matrix(matrix, self.slice_s,
                                                      gen)
        monitor = PerfEventMonitor(
            self.catalog, self.events,
            attr=PerfEventAttr(pid_filtered=self.pid_filtered),
            rng=np.random.default_rng(int(gen.integers(2**63))))
        trace = monitor.observe_trace(matrix, duration_s=self.slice_s)
        if monitor.multiplexed:
            # Time multiplexing leaves NaN gaps in unscheduled slices;
            # the attacker interpolates with the last scheduled value
            # (what perf's scaled estimates amount to).
            trace = _forward_fill(trace)
        if with_frames:
            return trace, phases
        return trace, []

    def _add_interrupt_noise(self, matrix: np.ndarray,
                             gen: np.random.Generator) -> np.ndarray:
        """Vectorized version of the core's per-slice interrupt model."""
        rate = self._interrupts.effective_rate_hz
        n_irq = gen.poisson(rate * self.slice_s, size=len(matrix))
        if n_irq.any():
            matrix = matrix.copy()
            matrix[:, Signal.INTERRUPTS] += n_irq
            matrix[:, Signal.INSTRUCTIONS] += 400.0 * n_irq
            matrix[:, Signal.UOPS] += 700.0 * n_irq
        return matrix

    # -- datasets -------------------------------------------------------

    def collect(self, runs_per_secret: int, secrets: list | None = None,
                with_frames: bool = False) -> TraceDataset:
        """Collect ``runs_per_secret`` traces for each secret."""
        if runs_per_secret < 1:
            raise ValueError(
                f"runs_per_secret must be >= 1, got {runs_per_secret}")
        secrets = list(secrets) if secrets is not None else self.workload.secrets
        traces = []
        labels = []
        frame_rows: list[list[str]] = []
        for label, secret in enumerate(secrets):
            for _ in range(runs_per_secret):
                trace, phases = self.collect_one(secret,
                                                 with_frames=with_frames)
                traces.append(trace)
                labels.append(label)
                if with_frames:
                    frame_rows.append(phases)
        frame_labels = None
        frame_classes: list[str] = []
        if with_frames:
            frame_classes = sorted({p for row in frame_rows for p in row
                                    if p})
            class_ids = {name: i + 1 for i, name in enumerate(frame_classes)}
            frame_labels = np.array(
                [[class_ids.get(p, 0) for p in row] for row in frame_rows],
                dtype=int)
        return TraceDataset(traces=np.stack(traces),
                            labels=np.array(labels, dtype=int),
                            secrets=secrets, event_names=list(self.events),
                            frame_labels=frame_labels,
                            frame_classes=frame_classes)
