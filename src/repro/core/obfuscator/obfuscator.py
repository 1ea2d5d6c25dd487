"""The Event Obfuscator facade.

Wires kernel module, daemon, mechanism and injector together, estimates
the DP sensitivity from profiling traces, and exposes the
``obfuscate_matrix`` hook that the trace collector (i.e. the guest's
execution flow) calls per sampling window.
"""

from __future__ import annotations

import numpy as np

from repro.core.obfuscator.budget import PrivacyAccountant
from repro.core.obfuscator.daemon import UserspaceDaemon
from repro.core.obfuscator.dp import DpMechanism, DstarMechanism, LaplaceMechanism
from repro.core.obfuscator.injector import (
    InjectionReport, NoiseInjector, default_noise_components)
from repro.core.obfuscator.kernel_module import KernelModule
from repro.core.obfuscator.noise import NoiseCalculator, SupplierFn
from repro.cpu.events import EventCatalog, processor_catalog
from repro.telemetry import runtime as telemetry
from repro.utils.rng import ensure_rng


def estimate_sensitivity(traces: np.ndarray, labels: np.ndarray,
                         mode: str = "mean-gap") -> float:
    """DP sensitivity Delta from clean profiling traces.

    ``traces`` is (N, T) reference-event values, ``labels`` the secret
    per trace.

    ``mode="mean-gap"`` — the largest per-slice gap between any two
    secrets' *mean* traces. Right for workloads whose secrets shift
    sustained activity levels (website fingerprints).

    ``mode="adjacent-peak"`` — the per-trace dynamic range (max slice
    value minus the 10th-percentile baseline), taken as the median
    within each class and the max across classes. Right for transient
    workloads: adjacent secrets (K vs K+1 keystrokes) differ by a full
    activity burst at some instant, which position-averaged means
    drastically underestimate — and which global percentiles miss when
    bursts are sparse.
    """
    traces = np.asarray(traces, dtype=np.float64)
    labels = np.asarray(labels)
    if traces.ndim != 2 or len(traces) != len(labels):
        raise ValueError("traces must be (N, T) aligned with labels")
    classes = np.unique(labels)
    if len(classes) < 2:
        raise ValueError("need at least two secrets to estimate sensitivity")
    if mode == "mean-gap":
        means = np.stack([traces[labels == c].mean(axis=0)
                          for c in classes])
        gap = means.max(axis=0) - means.min(axis=0)
        # 98th percentile over slices: the max is dominated by
        # finite-sample noise at phase boundaries when the per-class
        # means come from few runs.
        return float(np.percentile(gap, 98))
    if mode == "adjacent-peak":
        ranges = traces.max(axis=1) - np.percentile(traces, 10, axis=1)
        per_class = [float(np.median(ranges[labels == c]))
                     for c in classes]
        return max(max(per_class), 1e-12)
    raise ValueError(
        f"mode must be 'mean-gap' or 'adjacent-peak', got {mode!r}")


class EventObfuscator:
    """The online defense deployed inside the victim VM.

    Parameters
    ----------
    mechanism:
        ``"laplace"`` or ``"dstar"`` (or a ready
        :class:`~repro.core.obfuscator.dp.DpMechanism`).
    epsilon:
        Privacy budget.
    sensitivity:
        Delta in reference-event counts per slice; estimate it with
        :func:`estimate_sensitivity` from profiling traces.
    reference_event:
        Event whose counts calibrate the injection (default: the
        paper's RETIRED_UOPS).
    segment_signals:
        Per-repetition signal profile(s) of the covering gadget set —
        one vector or a (K, NUM_SIGNALS) component stack (default:
        :func:`default_noise_components`, six diverse gadget groups;
        fuzzing campaigns supply their own per-gadget profiles via
        :meth:`repro.core.aegis.Aegis.build_obfuscator`).
    clip_bound:
        B_u: per-slice injected counts are clipped to [0, B_u].
    accountant:
        A restored :class:`PrivacyAccountant` carrying budget already
        spent by a previous process (e.g. loaded from a deployment
        artifact after a crash); a fresh one is created when omitted.
    noise_supplier:
        Optional external source backing the daemon's noise calculator
        (``supplier(count) -> ndarray``) — the fleet provisioner hands
        each tenant's obfuscator a supplier reading that tenant's
        precomputed buffer, keeping noise generation central while the
        fail-closed serving path stays stock.
    """

    def __init__(self, mechanism: "str | DpMechanism" = "laplace",
                 epsilon: float = 1.0, sensitivity: float = 1.0,
                 reference_event: str = "RETIRED_UOPS",
                 processor_model: str = "amd-epyc-7252",
                 catalog: EventCatalog | None = None,
                 segment_signals: np.ndarray | None = None,
                 clip_bound: float = np.inf,
                 accountant: PrivacyAccountant | None = None,
                 noise_supplier: "SupplierFn | None" = None,
                 rng: "int | np.random.Generator | None" = None) -> None:
        self.catalog = catalog or processor_catalog(processor_model)
        self.reference_event = reference_event
        self._reference_index = self.catalog.index_of(reference_event)
        self._reference_weights = self.catalog.weights[self._reference_index]
        if isinstance(mechanism, str):
            if mechanism == "laplace":
                mechanism = LaplaceMechanism(epsilon, sensitivity)
            elif mechanism == "dstar":
                mechanism = DstarMechanism(epsilon, sensitivity)
            else:
                raise ValueError(
                    f"mechanism must be 'laplace' or 'dstar', got "
                    f"{mechanism!r}")
        self.mechanism = mechanism
        segment = (segment_signals if segment_signals is not None
                   else default_noise_components())
        self._rng = ensure_rng(rng)
        self.injector = NoiseInjector(
            segment, self._reference_weights, clip_bound=clip_bound,
            rng=np.random.default_rng(int(self._rng.integers(2**63))))
        self.kernel_module = KernelModule()
        calculator = None
        if noise_supplier is not None:
            calculator = NoiseCalculator(
                self.mechanism.sensitivity / self.mechanism.epsilon,
                rng=self._rng, supplier=noise_supplier)
        self.daemon = UserspaceDaemon(self.mechanism, self.injector,
                                      self.kernel_module, rng=self._rng,
                                      calculator=calculator)
        if accountant is not None \
                and accountant.per_slice_epsilon != self.mechanism.epsilon:
            raise ValueError(
                f"restored accountant was calibrated for eps="
                f"{accountant.per_slice_epsilon:g} per slice, but the "
                f"mechanism releases at eps={self.mechanism.epsilon:g}")
        self.accountant = accountant if accountant is not None \
            else PrivacyAccountant(per_slice_epsilon=self.mechanism.epsilon)
        telemetry.ledger().sync(self.accountant)
        self.last_report: InjectionReport | None = None
        self.reports: list[InjectionReport] = []

    @property
    def epsilon(self) -> float:
        return self.mechanism.epsilon

    @property
    def privacy_guarantee(self) -> str:
        return self.mechanism.privacy_guarantee

    def obfuscate_matrix(self, matrix: np.ndarray, slice_s: float,
                         rng: "np.random.Generator | None" = None
                         ) -> np.ndarray:
        """Inject DP noise into one window of guest signal slices.

        This is the hook the guest's execution flow (the trace
        collector) calls; the hypervisor only ever sees counters
        derived from the returned matrix.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        with telemetry.tracer().span("obfuscate.window",
                                     slices=len(matrix)):
            reference = matrix @ self._reference_weights
            obfuscated = self.daemon.obfuscate(matrix, reference)
        if len(matrix):
            self.accountant.record(len(matrix))
        self.last_report = self.daemon.last_report
        if self.last_report is not None:
            self.reports.append(self.last_report)
        return obfuscated

    def reset_reports(self) -> None:
        """Clear accumulated injection accounting."""
        self.reports.clear()
        self.last_report = None
