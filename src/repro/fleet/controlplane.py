"""The fleet control plane: N obfuscated guests behind one scheduler.

This is the paper's deployment story at fleet scale: one host runs many
SEV guests, each with its own Event Obfuscator, and a single control
plane provisions their noise, polices their privacy quotas, and keeps
their daemons alive. The pieces:

- an :class:`~repro.fleet.registry.ArtifactRegistry` artifact fixes the
  calibration (components, reference event, ε, Δ, B_u) for every
  tenant — one offline stage, N online deployments;
- the :class:`~repro.fleet.provisioner.NoiseProvisioner` precomputes
  each tenant's value-independent injection plan in batches;
- the :class:`~repro.fleet.admission.AdmissionController` gates each
  window on the tenant's ε-quota and noise availability (fail closed);
- the scheduler (:meth:`FleetControlPlane.tick`) multiplexes the
  per-tenant housekeeping a real deployment spreads across threads:
  watermark refills, daemon heartbeat/watchdog polls, and the host's
  periodic HPC reads of every guest vCPU.

Serving happens at the observable boundary: the hypervisor only ever
sees the monitored events' counts, so the fleet serves noised *event*
reads — ``event_matrix + plan @ comp_event`` — instead of re-deriving
full signal matrices per tenant. ``comp_event`` (the gadget components
projected onto the monitored events) is computed once per fleet; a
served slice costs one small matmul row and an add.

Determinism: tenant RNG streams depend only on (fleet entropy, tenant
id); scheduler iteration is in sorted tenant order; guests are launched
in admission order. Replaying the same specs under the same seed
reproduces every tenant's noised reads and ε-ledger bit-for-bit —
including under retry-absorbed ``fleet.provision`` faults, because the
fault check precedes every stream draw.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.artifacts import DeploymentArtifact
from repro.core.obfuscator.daemon import UserspaceDaemon
from repro.core.obfuscator.dp import LaplaceMechanism
from repro.core.obfuscator.injector import NoiseInjector
from repro.core.obfuscator.noise import NoiseCalculator
from repro.cpu.events import processor_catalog
from repro.fleet.admission import AdmissionController, AdmissionDecision
from repro.fleet.ledger import FleetLedger
from repro.fleet.provisioner import (
    DEFAULT_CAPACITY,
    DEFAULT_WATERMARK,
    NoiseProvisioner,
)
from repro.fleet.policy import DefensePolicyEngine
from repro.fleet.registry import check_compatible
from repro.observability import runtime as observability
from repro.resilience.watchdog import DaemonWatchdog
from repro.telemetry import runtime as telemetry
from repro.utils.rng import derive_stream
from repro.vm.hypervisor import Hypervisor


@dataclass(frozen=True)
class TenantSpec:
    """Everything the control plane needs to admit one tenant."""

    tenant_id: str
    workload: str = "website"
    secret: object = None
    epsilon_cap: float = math.inf
    accountant_state: "dict | None" = None


@dataclass
class TenantRuntime:
    """The per-tenant state the control plane schedules."""

    spec: TenantSpec
    guest_name: str
    daemon: UserspaceDaemon
    watchdog: DaemonWatchdog
    windows_served: int = 0
    slices_served: int = 0
    hpc_reads: int = 0
    _out: "np.ndarray | None" = field(default=None, repr=False)

    def out_buffer(self, slices: int, events: int) -> np.ndarray:
        """The tenant's reusable serving buffer, grown on demand."""
        if self._out is None or self._out.shape[0] < slices \
                or self._out.shape[1] != events:
            self._out = np.empty((slices, events))
        return self._out[:slices]


class FleetControlPlane:
    """Serves N tenants' noised HPC reads from one artifact.

    Parameters
    ----------
    artifact:
        The deployment artifact calibrating every tenant (Laplace
        mechanism required — d* needs live per-tenant values, which
        defeats batched provisioning).
    seed:
        Root entropy of the fleet RNG tree.
    monitored_events:
        Host-visible HPC events served to readers; defaults to the
        artifact's top four vulnerable events (the paper's count).
    housekeeping_interval:
        Ticks between one tenant's housekeeping visits (watchdog poll,
        host HPC reads, watermark check). ``1`` — the default — visits
        every tenant every tick, byte-for-byte the old full-sweep
        schedule; larger intervals make :meth:`tick` event-driven: a
        min-heap of ``(due_tick, tenant)`` is popped instead of
        sweeping the whole fleet, so a tick costs O(due log N) rather
        than O(N). Serving is unaffected either way — noised reads and
        ledgers are bit-identical across intervals.
    defense_policy:
        Arm the adaptive defense plane: an
        :class:`~repro.fleet.policy.EscalationProfile` (or a
        registered profile name). ``None`` — the default — leaves the
        fleet on the static policy, byte-identical to earlier
        releases. With a policy armed, detector alerts drive per-tenant
        ε reallocation, Laplace→d* plan escalation, and fail-closed
        quarantine (see :mod:`repro.fleet.policy`).
    fault_generation:
        A replacement shard worker's recovery generation; biases the
        implicit attempt counts of the plane's fault points
        (provisioning, policy decisions) past budgets an earlier
        generation consumed, so ``times``-bounded chaos faults do not
        re-fire on every replacement.
    """

    def __init__(self, artifact: DeploymentArtifact, seed: int = 0,
                 monitored_events: "list[str] | None" = None,
                 capacity: int = DEFAULT_CAPACITY,
                 watermark: int = DEFAULT_WATERMARK,
                 refill_retries: int = 4,
                 stale_polls: int = 2,
                 hypervisor: "Hypervisor | None" = None,
                 housekeeping_interval: int = 1,
                 defense_policy=None,
                 fault_generation: int = 0) -> None:
        if artifact.mechanism != "laplace":
            raise ValueError(
                "the fleet control plane precomputes value-independent "
                "injection plans, which only the Laplace mechanism "
                f"permits; artifact uses {artifact.mechanism!r}")
        check_compatible(artifact, artifact.processor_model)
        self.artifact = artifact
        self.seed = int(seed)
        self.catalog = processor_catalog(artifact.processor_model)
        events = (list(monitored_events) if monitored_events is not None
                  else list(artifact.vulnerable_events[:4]))
        if not events:
            raise ValueError("need at least one monitored event")
        self.monitored_events = events
        self._event_weights = np.stack(
            [self.catalog.weights[self.catalog.index_of(name)]
             for name in events]).T  # (NUM_SIGNALS, E)
        reference_weights = self.catalog.weights[
            self.catalog.index_of(artifact.reference_event)]
        scale = artifact.sensitivity / artifact.epsilon
        if housekeeping_interval < 1:
            raise ValueError(f"housekeeping_interval must be >= 1, "
                             f"got {housekeeping_interval}")
        self.housekeeping_interval = int(housekeeping_interval)
        self.provisioner = NoiseProvisioner(
            entropy=self.seed, scale=scale,
            components=artifact.segment_signals,
            reference_weights=reference_weights,
            clip_bound=artifact.clip_bound,
            capacity=capacity, watermark=watermark,
            refill_retries=refill_retries,
            fault_attempt_bias=fault_generation)
        # The serving projection: per-repetition monitored-event counts
        # of each gadget component, (K, E).
        self._comp_event = self.provisioner.components @ self._event_weights
        self.ledger = FleetLedger()
        self.policy = None
        if defense_policy is not None:
            self.policy = DefensePolicyEngine(
                defense_policy, ledger=self.ledger,
                provisioner=self.provisioner, seed=self.seed,
                base_epsilon=artifact.epsilon,
                fault_attempt_bias=fault_generation)
        self.admission = AdmissionController(self.ledger, self.provisioner,
                                             policy=self.policy)
        self.hypervisor = hypervisor if hypervisor is not None \
            else Hypervisor(processor_model=artifact.processor_model,
                            rng=derive_stream(self.seed, "hypervisor"))
        self.stale_polls = stale_polls
        self.tenants: dict[str, TenantRuntime] = {}
        self.ticks = 0
        self._guest_tenant: dict[str, str] = {}
        # Event-driven scheduling: (due_tick, tenant_id) min-heap. Ties
        # resolve by tenant id (tuple order), and the due set is sorted
        # before processing, so the visit order within a tick matches
        # the old sorted full sweep exactly.
        self._due: list[tuple[int, str]] = []
        self.hypervisor.install_read_tap(self._on_host_read)

    @property
    def event_weights(self) -> np.ndarray:
        """``(NUM_SIGNALS, E)`` projection onto the monitored events."""
        return self._event_weights

    # -- tenant lifecycle ---------------------------------------------

    def admit_tenant(self, spec: TenantSpec) -> TenantRuntime:
        """Launch a guest for ``spec`` and wire its obfuscator stack.

        The tenant gets a stock userspace daemon whose calculator pulls
        from the fleet provisioner (the ``supplier`` hook), so the
        single-VM fail-closed semantics are preserved verbatim; the
        batched serving path shares the same buffer cursor.
        """
        if spec.tenant_id in self.tenants:
            raise ValueError(f"tenant {spec.tenant_id!r} already admitted")
        artifact = self.artifact
        self.ledger.register(
            spec.tenant_id, per_slice_epsilon=artifact.epsilon,
            epsilon_cap=spec.epsilon_cap,
            state=spec.accountant_state)
        self.provisioner.create_buffer(spec.tenant_id)
        guest = self.hypervisor.launch_guest(
            f"tenant-{spec.tenant_id}", num_vcpus=1)
        guest.spawn_process(f"workload-{spec.workload}", vcpu_index=0)
        for slot, event in enumerate(self.monitored_events):
            self.hypervisor.program_vcpu_hpc(guest.name, 0, slot, event)
        mechanism = LaplaceMechanism(artifact.epsilon, artifact.sensitivity)
        injector = NoiseInjector(
            artifact.segment_signals,
            self.catalog.weights[
                self.catalog.index_of(artifact.reference_event)],
            clip_bound=artifact.clip_bound,
            rng=derive_stream(self.seed, "injector", spec.tenant_id))
        calculator = NoiseCalculator(
            mechanism.sensitivity / mechanism.epsilon,
            supplier=self.provisioner.supplier(spec.tenant_id))
        daemon = UserspaceDaemon(mechanism, injector,
                                 rng=derive_stream(self.seed, "daemon",
                                                   spec.tenant_id),
                                 calculator=calculator)
        runtime = TenantRuntime(
            spec=spec, guest_name=guest.name, daemon=daemon,
            watchdog=DaemonWatchdog(daemon, stale_polls=self.stale_polls))
        self.tenants[spec.tenant_id] = runtime
        self._guest_tenant[guest.name] = spec.tenant_id
        if self.policy is not None:
            self.policy.register_tenant(spec.tenant_id)
        heapq.heappush(self._due, (self.ticks + 1, spec.tenant_id))
        registry = telemetry.metrics()
        if registry.enabled:
            registry.counter("fleet.tenants_admitted").inc()
        return runtime

    def tenant(self, tenant_id: str) -> TenantRuntime:
        try:
            return self.tenants[tenant_id]
        except KeyError as exc:
            raise KeyError(f"no such tenant {tenant_id!r}") from exc

    # -- observability -------------------------------------------------

    def _on_host_read(self, guest_name: str, vcpu_index: int, slot: int,
                      at: "float | None") -> None:
        """Hypervisor read tap: feed the attack-signal extractor.

        Resolves the observability plane at call time so a plane
        configured after the fleet was built still sees every read;
        reads of guests the fleet does not own are ignored.
        """
        obs = observability.active()
        if not obs.enabled:
            return
        tenant_id = self._guest_tenant.get(guest_name)
        if tenant_id is None:
            return
        if at is None:
            at = float(self.ticks)
        obs.ingest_read(tenant_id, slot, at)

    # -- serving -------------------------------------------------------

    def serve_window(self, tenant_id: str, event_matrix: np.ndarray
                     ) -> tuple[AdmissionDecision, "np.ndarray | None"]:
        """SLO-timed wrapper around :meth:`_serve_window`.

        Only admitted windows count toward the latency objective — a
        rejection is an admission outcome, not a serving latency.
        """
        obs = observability.active()
        if not obs.enabled:
            return self._serve_window(tenant_id, event_matrix)
        start = time.perf_counter()
        decision, out = self._serve_window(tenant_id, event_matrix)
        if decision:
            obs.slo.observe("fleet.serve_window",
                            time.perf_counter() - start)
        return decision, out

    def _serve_window(self, tenant_id: str, event_matrix: np.ndarray
                      ) -> tuple[AdmissionDecision, "np.ndarray | None"]:
        """Serve one window of noised monitored-event reads.

        ``event_matrix`` is the guest's raw ``(T, E)`` counts for the
        monitored events; the return value adds the tenant's
        precomputed injection plan projected onto those events. The
        returned array is the tenant's reusable serving buffer — valid
        until this tenant's next window; copy to retain.

        A rejected window returns ``(decision, None)`` having consumed
        no noise and no budget.
        """
        runtime = self.tenant(tenant_id)
        event_matrix = np.asarray(event_matrix, dtype=np.float64)
        if event_matrix.ndim != 2 \
                or event_matrix.shape[1] != len(self.monitored_events):
            raise ValueError(
                f"event_matrix must be (T, {len(self.monitored_events)})")
        slices = len(event_matrix)
        decision = self.admission.admit(tenant_id, slices)
        if not decision:
            return decision, None
        plan, _ = self.provisioner.take(tenant_id, slices)
        out = runtime.out_buffer(slices, len(self.monitored_events))
        np.matmul(plan, self._comp_event, out=out)
        np.add(event_matrix, out, out=out)
        self.ledger.account(tenant_id, slices)
        runtime.daemon.heartbeat += 1
        runtime.windows_served += 1
        runtime.slices_served += slices
        registry = telemetry.metrics()
        if registry.enabled:
            registry.counter("fleet.windows_served").inc()
            registry.counter("fleet.slices_served").inc(slices)
        return decision, out

    # -- the scheduler tick -------------------------------------------

    def tick(self) -> dict:
        """SLO-timed wrapper around :meth:`_tick`."""
        obs = observability.active()
        if not obs.enabled:
            return self._tick()
        start = time.perf_counter()
        result = self._tick()
        obs.slo.observe("fleet.tick", time.perf_counter() - start)
        return result

    def _tick(self) -> dict:
        """One control-loop round over the tenants *due* this tick.

        Multiplexes the housekeeping a deployment runs continuously:
        watermark-driven provisioning, daemon watchdog polls, and one
        host-side HPC read per guest (the kernel-module/hypervisor
        read path the side channel rides on). Housekeeping reads carry
        tick-granular logical timestamps (slot reads spread at 1/8-tick
        offsets) so the signal extractor sees them on a coarser
        timebase than any polling burst — they reset runs, never
        extend them.

        Due tenants come off the ``(due_tick, tenant)`` min-heap and go
        back on at ``tick + housekeeping_interval``; with the default
        interval of 1 every tenant is due every tick and the schedule
        is identical to the old sorted full sweep. The heap is what
        makes a six-figure-tenant tick affordable: cost scales with the
        due set, never the fleet.
        """
        self.ticks += 1
        due: list[str] = []
        while self._due and self._due[0][0] <= self.ticks:
            due.append(heapq.heappop(self._due)[1])
        due.sort()
        with telemetry.tracer().span("fleet.tick", tick=self.ticks,
                                     due=len(due)):
            provisioned = self.provisioner.top_up(only=due)
            restarts = 0
            for tenant_id in due:
                runtime = self.tenants[tenant_id]
                if not runtime.watchdog.poll():
                    restarts += 1
                for slot in range(len(self.monitored_events)):
                    self.hypervisor.read_vcpu_hpc(
                        runtime.guest_name, 0, slot,
                        at=self.ticks + slot * 0.125)
                runtime.hpc_reads += len(self.monitored_events)
                heapq.heappush(
                    self._due,
                    (self.ticks + self.housekeeping_interval, tenant_id))
            # The defense plane decides after the tick's reads landed:
            # alerts raised up to and including this tick are consumed
            # in one deterministic batch, per tenant in sorted order.
            if self.policy is not None:
                self.policy.on_tick(self.ticks)
        registry = telemetry.metrics()
        if registry.enabled:
            registry.counter("fleet.ticks").inc()
        return {"tick": self.ticks, "due_tenants": len(due),
                "provisioned_slices": provisioned,
                "daemon_restarts": restarts}

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Release the provisioner's buffers. The plane is unusable
        afterwards."""
        self.provisioner.close()

    # -- introspection -------------------------------------------------

    def health(self) -> dict:
        """Actionable fleet health: healthy flag plus why-not reasons.

        Degraded when any tenant's noise provisioning has stalled
        (fail-closed slices withheld — the fleet equivalent of a
        quarantined shard) or its daemon watchdog had to restart a
        stalled heartbeat. Budget exhaustion is *not* unhealthy: a
        tenant running out of ε-quota is admission control doing its
        job.
        """
        reasons: list[str] = []
        for tenant_id in sorted(self.tenants):
            runtime = self.tenants[tenant_id]
            stalls = self.provisioner.buffer(tenant_id).stalls
            if stalls:
                reasons.append(
                    f"tenant {tenant_id}: {stalls} provisioning "
                    f"stall(s) — noise refills failing, slices "
                    f"withheld fail-closed")
            restarts = runtime.watchdog.restarts
            if restarts:
                reasons.append(
                    f"tenant {tenant_id}: daemon heartbeat stalled, "
                    f"watchdog restarted it {restarts} time(s)")
        # Alert-driven escalation is the defense plane *working*; only
        # a faulted decision path (fail-closed quarantine forced by the
        # engine itself crashing) degrades health.
        if self.policy is not None:
            reasons.extend(self.policy.health_reasons())
        return {"healthy": not reasons, "reasons": reasons}

    def status(self) -> dict:
        """JSON-ready snapshot of the whole fleet."""
        buffers = {}
        for tenant_id in sorted(self.tenants):
            runtime = self.tenants[tenant_id]
            buffer = self.provisioner.buffer(tenant_id)
            buffers[tenant_id] = {
                "workload": runtime.spec.workload,
                "guest": runtime.guest_name,
                "buffer_available": buffer.available,
                "buffer_capacity": buffer.capacity,
                "watermark": buffer.watermark,
                "refills": buffer.refills,
                "provision_stalls": buffer.stalls,
                "windows_served": runtime.windows_served,
                "slices_served": runtime.slices_served,
                "daemon_heartbeat": runtime.daemon.heartbeat,
                "daemon_restarts": runtime.watchdog.restarts,
                "hpc_reads": runtime.hpc_reads,
            }
        payload = {
            "processor_model": self.artifact.processor_model,
            "mechanism": self.artifact.mechanism,
            "epsilon": self.artifact.epsilon,
            "monitored_events": list(self.monitored_events),
            "seed": self.seed,
            "ticks": self.ticks,
            "tenants": buffers,
            "admitted_windows": self.admission.admitted_windows,
            "rejected_windows": self.admission.rejected_windows,
            "budgets": self.ledger.snapshot(),
            "health": self.health(),
        }
        if self.policy is not None:
            payload["defense"] = self.policy.snapshot()
        obs = observability.active()
        if obs.enabled:
            payload["observability"] = obs.snapshot()
        return payload
