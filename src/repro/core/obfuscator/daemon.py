"""The userspace daemon (paper Fig. 7).

Two components: the *noise calculator* (buffered Laplace draws, or the
d* reconstruction fed by HPC samples streamed from the kernel module)
and the *noise injector* (gadget repetitions on the protected vCPU).
One daemon protects one guest; the multi-tenant fleet
(:mod:`repro.fleet`) serves precomputed injection plans instead and
runs no daemon.
"""

from __future__ import annotations

import numpy as np

import logging

from repro.core.obfuscator.dp import DpMechanism, DstarMechanism, LaplaceMechanism
from repro.core.obfuscator.injector import InjectionReport, NoiseInjector
from repro.core.obfuscator.kernel_module import KernelModule, KernelModuleCrashed
from repro.core.obfuscator.noise import NoiseCalculator
from repro.telemetry import runtime as telemetry
from repro.utils.rng import ensure_rng

logger = logging.getLogger(__name__)


class UserspaceDaemon:
    """Computes per-slice noise and drives the injector.

    Parameters
    ----------
    mechanism:
        The DP mechanism generating the noise.
    injector:
        Converts noise counts into gadget repetitions.
    kernel_module:
        Source of live HPC samples (required by the d* mechanism).
    """

    def __init__(self, mechanism: DpMechanism, injector: NoiseInjector,
                 kernel_module: KernelModule | None = None,
                 rng: "int | np.random.Generator | None" = None) -> None:
        self.mechanism = mechanism
        self.injector = injector
        self.kernel_module = kernel_module or KernelModule()
        self._rng = ensure_rng(rng)
        # The Laplace path pre-buffers draws at the mechanism's scale.
        self.calculator = NoiseCalculator(
            mechanism.sensitivity / mechanism.epsilon, rng=self._rng)
        self.last_report: InjectionReport | None = None

    @property
    def needs_hpc_monitoring(self) -> bool:
        """d* anchors its reconstruction on live values; Laplace doesn't."""
        return isinstance(self.mechanism, DstarMechanism)

    def start(self) -> None:
        """Receive the kernel module's launch signal."""
        self.kernel_module.launch(monitor_hpcs=self.needs_hpc_monitoring)

    def _recover_kernel_module(self) -> None:
        """Bring a crashed kernel module back without losing d* state."""
        logger.warning("daemon: kernel module down; restarting it")
        self.kernel_module.restart()

    def _stream_sample(self, value: float) -> None:
        """Forward one RDPMC reading, surviving one module crash.

        A crashed read forwards nothing and does not advance the slice
        index, so retrying after recovery re-reads the same slice — the
        streamed sequence the mechanism sees is identical to a
        fault-free run. A second consecutive crash on the same slice
        propagates: the window is withheld (fail closed).
        """
        try:
            self.kernel_module.on_hpc_read(value)
        except KernelModuleCrashed:
            self._recover_kernel_module()
            self.kernel_module.on_hpc_read(value)

    def compute_noise(self, reference_values: np.ndarray) -> np.ndarray:
        """Per-slice noise for one window of reference-event values."""
        with telemetry.tracer().span(
                "obfuscate.noise",
                mechanism=type(self.mechanism).__name__):
            return self._compute_noise(reference_values)

    def _compute_noise(self, reference_values: np.ndarray) -> np.ndarray:
        reference_values = np.asarray(reference_values, dtype=np.float64)
        if self.needs_hpc_monitoring:
            if not self.kernel_module.running:
                self.start()
            # Stream the readings through the netlink channel, exactly
            # as the kernel module would deliver them.
            for value in reference_values:
                self._stream_sample(float(value))
            samples = self.kernel_module.channel.drain()
            values = np.array([s.value for s in samples])
            return self.mechanism.noise_sequence(values, rng=self._rng)
        if isinstance(self.mechanism, LaplaceMechanism):
            # Serve Laplace noise from the precomputed buffer.
            return self.calculator.take(len(reference_values))
        return self.mechanism.noise_sequence(reference_values, rng=self._rng)

    def obfuscate(self, matrix: np.ndarray,
                  reference_values: np.ndarray) -> np.ndarray:
        """Compute noise for the window and inject it."""
        noise = self.compute_noise(reference_values)
        with telemetry.tracer().span("obfuscate.inject"):
            obfuscated, self.last_report = self.injector.inject(matrix,
                                                                noise)
        return obfuscated
