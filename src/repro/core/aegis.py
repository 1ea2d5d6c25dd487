"""The end-to-end Aegis pipeline (paper Fig. 2).

Offline, run once: the Application Profiler finds the vulnerable HPC
events, the Event Fuzzer finds the gadgets that perturb them and the
minimal covering set. Online: the Event Obfuscator injects
DP-calibrated repetitions of that covering segment into the protected
VM's execution flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fuzzer.campaign import FuzzingCampaign
from repro.core.fuzzer.fuzzer import EventFuzzer, FuzzingReport
from repro.core.fuzzer.generator import ExecutionHarness
from repro.core.obfuscator.obfuscator import EventObfuscator, estimate_sensitivity
from repro.core.profiler.profiler import ApplicationProfiler, ProfilerReport
from repro.cpu.signals import Signal
from repro.telemetry import runtime as telemetry
from repro.utils.rng import ensure_rng, spawn_rng
from repro.workloads.base import Workload


@dataclass
class AegisDeployment:
    """Everything the offline stage produced, ready for the VM."""

    profiler_report: ProfilerReport
    fuzzing_report: FuzzingReport
    obfuscator: EventObfuscator

    @property
    def covered_events(self) -> int:
        return sum(len(v) for v in self.fuzzing_report.covering_set.values())

    @property
    def covering_gadgets(self) -> int:
        return len(self.fuzzing_report.covering_set)


class Aegis:
    """The unified defense framework.

    Parameters
    ----------
    workload:
        The customer's protected application.
    processor_model:
        Cloud host processor family (from the attestation report).
    mechanism / epsilon:
        Online DP mechanism and privacy budget.
    workers / shard_size / checkpoint_dir / resume / cache_dir /
    fault_plan / shard_timeout / max_retries:
        Fuzzing-campaign execution knobs, forwarded to
        :class:`FuzzingCampaign`. They change how the screening budget
        is scheduled (parallel workers, checkpoint artifacts, the shard
        store ``cache_dir`` reuses across runs, fault injection and
        retry policy), never the resulting covering set for a fixed
        seed. ``cache_dir`` conflicts with ``checkpoint_dir``.
    """

    def __init__(self, workload: Workload,
                 processor_model: str = "amd-epyc-7252",
                 mechanism: str = "laplace", epsilon: float = 1.0,
                 runs_per_secret: int = 10, gadget_budget: int = 1500,
                 mi_threshold_bits: float = 0.1, workers: int = 1,
                 shard_size: int | None = None,
                 checkpoint_dir: str | None = None, resume: bool = False,
                 cache_dir: str | None = None,
                 fault_plan=None, shard_timeout: float | None = None,
                 max_retries: int = 2,
                 rng: "int | np.random.Generator | None" = None) -> None:
        root = ensure_rng(rng)
        self._prof_rng, self._fuzz_rng, self._obf_rng, self._sens_rng = \
            spawn_rng(root, 4)
        self.workload = workload
        self.processor_model = processor_model
        self.mechanism = mechanism
        self.epsilon = epsilon
        self.runs_per_secret = runs_per_secret
        self.gadget_budget = gadget_budget
        self.mi_threshold_bits = mi_threshold_bits
        self.workers = workers
        self.shard_size = shard_size
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        self.cache_dir = cache_dir
        self.fault_plan = fault_plan
        self.shard_timeout = shard_timeout
        self.max_retries = max_retries

    # -- offline stage ---------------------------------------------------

    def profile(self, secrets: list | None = None) -> ProfilerReport:
        """Stage 1: Application Profiler."""
        profiler = ApplicationProfiler(
            self.workload, processor_model=self.processor_model,
            runs_per_secret=self.runs_per_secret, rng=self._prof_rng)
        return profiler.profile(secrets=secrets)

    def fuzz(self, profiler_report: ProfilerReport) -> FuzzingReport:
        """Stage 2: Event Fuzzer over the vulnerable events.

        Runs as a sharded campaign; ``workers``/``checkpoint_dir``/
        ``resume`` scale it out and make it interruptible without
        changing the covering set for a fixed seed.
        """
        vulnerable = profiler_report.ranking.vulnerable_indices(
            self.mi_threshold_bits)
        kwargs = {} if self.shard_size is None \
            else {"shard_size": self.shard_size}
        fuzzer = EventFuzzer(processor_model=self.processor_model,
                             gadget_budget=self.gadget_budget,
                             rng=self._fuzz_rng, **kwargs)
        campaign = FuzzingCampaign(fuzzer, workers=self.workers,
                                   checkpoint_dir=self.checkpoint_dir,
                                   resume=self.resume,
                                   cache_dir=self.cache_dir,
                                   fault_plan=self.fault_plan,
                                   shard_timeout=self.shard_timeout,
                                   max_retries=self.max_retries)
        return campaign.run(vulnerable)

    def _covering_segment(self, fuzzing_report: FuzzingReport) -> np.ndarray:
        """Per-gadget signal profiles of the covering set (K, SIGNALS).

        Each covering gadget becomes one injection component: the
        online injector mixes them randomly per slice, so the noise
        spans a subspace of event space rather than one fixed
        direction an attacker could project out.
        """
        from repro.cpu.core import Core
        from repro.cpu.signals import Signal
        core = Core(self.processor_model, rng=self._obf_rng)
        harness = ExecutionHarness(core, rng=self._obf_rng)
        components = []
        reference_weights = core.catalog.weights[
            core.catalog.index_of("RETIRED_UOPS")]
        for gadget in fuzzing_report.covering_set:
            profile = np.maximum(harness.gadget_signal_profile(gadget), 0.0)
            # Only components that move the reference event can be
            # dosed by the injector's counts-per-rep conversion.
            if profile @ reference_weights > 0 \
                    and profile[Signal.CYCLES] > 0:
                components.append(profile)
        if not components:
            raise RuntimeError(
                "fuzzing produced no covering gadgets; increase "
                "gadget_budget")
        return np.stack(components)

    def _estimate_sensitivity(self, secrets: list | None,
                              reference_event: str) -> float:
        """Delta from clean reference-event profiling traces."""
        from repro.cpu.events import processor_catalog
        catalog = processor_catalog(self.processor_model)
        weights = catalog.weights[catalog.index_of(reference_event)]
        secrets = (list(secrets) if secrets is not None
                   else self.workload.secrets)
        traces = []
        labels = []
        for label, secret in enumerate(secrets):
            for _ in range(max(8, self.runs_per_secret)):
                matrix = self.workload.generate_signals(
                    secret, self._sens_rng, duration_s=3.0, slice_s=0.01)
                traces.append(matrix @ weights)
                labels.append(label)
        return estimate_sensitivity(np.stack(traces), np.array(labels))

    def build_obfuscator(self, fuzzing_report: FuzzingReport,
                         secrets: list | None = None,
                         reference_event: str = "RETIRED_UOPS",
                         clip_bound: float = np.inf) -> EventObfuscator:
        """Stage 3: assemble the online Event Obfuscator."""
        segment = self._covering_segment(fuzzing_report)
        if np.any(segment[:, Signal.CYCLES] <= 0):
            raise RuntimeError("a covering component has no cycle cost")
        sensitivity = self._estimate_sensitivity(secrets, reference_event)
        return EventObfuscator(
            mechanism=self.mechanism, epsilon=self.epsilon,
            sensitivity=sensitivity, reference_event=reference_event,
            processor_model=self.processor_model,
            segment_signals=segment, clip_bound=clip_bound,
            rng=self._obf_rng)

    def deploy(self, secrets: list | None = None) -> AegisDeployment:
        """Run the whole offline pipeline; returns the deployment."""
        tracer = telemetry.tracer()
        with tracer.span("aegis.profile"):
            profiler_report = self.profile(secrets=secrets)
        with tracer.span("aegis.fuzz"):
            fuzzing_report = self.fuzz(profiler_report)
        with tracer.span("aegis.obfuscate"):
            obfuscator = self.build_obfuscator(fuzzing_report,
                                               secrets=secrets)
        return AegisDeployment(profiler_report=profiler_report,
                               fuzzing_report=fuzzing_report,
                               obfuscator=obfuscator)
