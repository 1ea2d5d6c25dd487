"""The fleet control plane: N obfuscated guests behind one scheduler.

This is the paper's deployment story at fleet scale: one host runs many
SEV guests, each protected by the Event Obfuscator, and a single control
plane provisions their noise and polices their privacy quotas. Where
the paper's per-guest daemon buffers Laplace draws (Fig. 7), the fleet
precomputes each tenant's whole injection plan, so no tenant runs a
daemon of its own. The pieces:

- an :class:`~repro.fleet.registry.ArtifactRegistry` artifact fixes the
  calibration (components, reference event, ε, Δ, B_u) for every
  tenant — one offline stage, N online deployments;
- the :class:`~repro.fleet.provisioner.NoiseProvisioner` precomputes
  each tenant's value-independent injection plan in batches;
- the :class:`~repro.fleet.admission.AdmissionController` gates each
  window on the tenant's ε-quota and noise availability (fail closed);
- the scheduler (:meth:`FleetControlPlane.tick`) multiplexes the
  per-tenant housekeeping a real deployment spreads across threads:
  watermark refills and the host's periodic HPC reads of every guest
  vCPU.

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

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.artifacts import DeploymentArtifact
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

    The host-visible events served to readers are the artifact's top
    four vulnerable events (the paper's count).
    """

    def __init__(self, artifact: DeploymentArtifact, seed: int = 0,
                 capacity: int = DEFAULT_CAPACITY,
                 watermark: int = DEFAULT_WATERMARK,
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
        events = list(artifact.vulnerable_events[:4])
        if not events:
            raise ValueError("need at least one monitored event; the "
                             "artifact lists no vulnerable events")
        self.monitored_events = events
        self._event_weights = np.stack(
            [self.catalog.weights[self.catalog.index_of(name)]
             for name in events]).T  # (NUM_SIGNALS, E)
        reference_weights = self.catalog.weights[
            self.catalog.index_of(artifact.reference_event)]
        scale = artifact.sensitivity / artifact.epsilon
        self.provisioner = NoiseProvisioner(
            entropy=self.seed, scale=scale,
            components=artifact.segment_signals,
            reference_weights=reference_weights,
            clip_bound=artifact.clip_bound,
            capacity=capacity, watermark=watermark,
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
        self.hypervisor = Hypervisor(
            processor_model=artifact.processor_model,
            rng=derive_stream(self.seed, "hypervisor"))
        self.tenants: dict[str, TenantRuntime] = {}
        self.ticks = 0
        self._guest_tenant: dict[str, str] = {}
        self.hypervisor.install_read_tap(self._on_host_read)

    @property
    def event_weights(self) -> np.ndarray:
        """``(NUM_SIGNALS, E)`` projection onto the monitored events."""
        return self._event_weights

    # -- tenant lifecycle ---------------------------------------------

    def admit_tenant(self, spec: TenantSpec) -> TenantRuntime:
        """Launch a guest for ``spec``: register its ε-quota, allocate
        its plan buffer, and program its vCPU's HPCs with the monitored
        events."""
        if spec.tenant_id in self.tenants:
            raise ValueError(f"tenant {spec.tenant_id!r} already admitted")
        self.ledger.register(
            spec.tenant_id, per_slice_epsilon=self.artifact.epsilon,
            epsilon_cap=spec.epsilon_cap,
            state=spec.accountant_state)
        self.provisioner.create_buffer(spec.tenant_id)
        guest = self.hypervisor.launch_guest(
            f"tenant-{spec.tenant_id}", num_vcpus=1)
        guest.spawn_process(f"workload-{spec.workload}", vcpu_index=0)
        for slot, event in enumerate(self.monitored_events):
            self.hypervisor.program_vcpu_hpc(guest.name, 0, slot, event)
        runtime = TenantRuntime(spec=spec, guest_name=guest.name)
        self.tenants[spec.tenant_id] = runtime
        self._guest_tenant[guest.name] = spec.tenant_id
        if self.policy is not None:
            self.policy.register_tenant(spec.tenant_id)
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
        """One control-loop round over every tenant, in sorted order.

        Multiplexes the housekeeping a deployment runs continuously:
        watermark-driven provisioning and one host-side HPC read per
        guest (the kernel-module/hypervisor read path the side channel
        rides on). Housekeeping reads carry tick-granular logical
        timestamps (slot reads spread at 1/8-tick offsets) so the
        signal extractor sees them on a coarser timebase than any
        polling burst — they reset runs, never extend them.
        """
        self.ticks += 1
        with telemetry.tracer().span("fleet.tick", tick=self.ticks):
            provisioned = self.provisioner.top_up()
            for tenant_id in sorted(self.tenants):
                runtime = self.tenants[tenant_id]
                for slot in range(len(self.monitored_events)):
                    self.hypervisor.read_vcpu_hpc(
                        runtime.guest_name, 0, slot,
                        at=self.ticks + slot * 0.125)
                runtime.hpc_reads += len(self.monitored_events)
            # The defense plane decides after the tick's reads landed:
            # alerts raised up to and including this tick are consumed
            # in one deterministic batch, per tenant in sorted order.
            if self.policy is not None:
                self.policy.on_tick(self.ticks)
        registry = telemetry.metrics()
        if registry.enabled:
            registry.counter("fleet.ticks").inc()
        return {"tick": self.ticks, "provisioned_slices": provisioned}

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Release the provisioner's buffers. The plane is unusable
        afterwards."""
        self.provisioner.close()

    # -- introspection -------------------------------------------------

    def health(self) -> dict:
        """Actionable fleet health: healthy flag plus why-not reasons.

        Degraded exactly when a fault withheld a tenant's slices: its
        noise provisioning stalled, an admission fault rejected one of
        its windows, or the defense plane's decision path failed
        closed. Waiting its turn, budget exhaustion and alert-driven
        quarantine are *not* unhealthy: they are the scheduler,
        admission control and the defense plane doing their jobs.
        """
        reasons: list[str] = []
        for tenant_id in sorted(self.tenants):
            stalls = self.provisioner.buffer(tenant_id).stalls
            if stalls:
                reasons.append(
                    f"tenant {tenant_id}: {stalls} provisioning "
                    f"stall(s) — noise refills failing, slices "
                    f"withheld fail-closed")
            faulted = self.admission.faulted_windows[tenant_id]
            if faulted:
                reasons.append(
                    f"tenant {tenant_id}: {faulted} window(s) rejected "
                    f"by admission faults — slices withheld "
                    f"fail-closed")
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
