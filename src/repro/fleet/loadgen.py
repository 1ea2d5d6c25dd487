"""Trace-replay load generation for the fleet control plane.

Records one guest workload trace per tenant — the raw monitored-event
counts the hypervisor would read, before obfuscation — and replays the
recorded windows against the control plane at configurable concurrency.
Because the traces are recorded up front from per-tenant derived RNG
streams, a replay is a *closed* workload: the exact same reads arrive
in the exact same order on every run, which is what lets the replay
report state bit-identity (per-tenant SHA-256 digests of every noised
read, plus the final ε-ledger) instead of eyeballing statistics.

The generator doubles as the fleet benchmark driver: it counts served
slices and wall-clock so the throughput CI gate and the ``aegis fleet``
CLI share one code path.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro.fleet.controlplane import FleetControlPlane, TenantSpec
from repro.telemetry import runtime as telemetry
from repro.utils.rng import derive_stream
from repro.workloads import (
    DnnWorkload,
    KeystrokeWorkload,
    RsaSignWorkload,
    WebsiteWorkload,
    Workload,
)

#: Workload names the load generator can instantiate.
WORKLOAD_FACTORIES = {
    "website": WebsiteWorkload,
    "keystroke": KeystrokeWorkload,
    "dnn": DnnWorkload,
    "rsa": RsaSignWorkload,
}

#: Attacker trace kinds the load generator can inject.
ATTACKER_KINDS = ("single-step", "burst-poll")


@dataclass(frozen=True)
class AttackerProfile:
    """A host-side read-attack trace injected against one tenant.

    ``single-step`` replays the SEV-Step signature: one register read
    per instruction step at an exactly periodic ``cadence``.
    ``burst-poll`` replays a profiling burst: reads rotating across
    every programmed register with seeded jittered intervals drawn
    uniformly from ``jitter``. Both issue their reads through the
    hypervisor's legitimate HPC read path — an attacker needs nothing
    else — and their logical timestamps derive from the *window index*,
    so the injected stream (and therefore every detector alert) is
    identical at any load-generator concurrency.
    """

    kind: str
    reads_per_window: int = 64
    cadence: float = 1e-3
    slot: int = 0
    jitter: tuple = (2e-4, 2e-3)

    def __post_init__(self) -> None:
        if self.kind not in ATTACKER_KINDS:
            raise ValueError(f"unknown attacker kind {self.kind!r}; "
                             f"choose from {sorted(ATTACKER_KINDS)}")
        if self.reads_per_window < 1:
            raise ValueError("reads_per_window must be >= 1, got "
                             f"{self.reads_per_window}")


def make_workload(name: str) -> Workload:
    """Instantiate a registered workload by name."""
    try:
        factory = WORKLOAD_FACTORIES[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown workload {name!r}; choose from "
            f"{sorted(WORKLOAD_FACTORIES)}") from exc
    return factory()


def record_trace(plane: FleetControlPlane, spec: TenantSpec,
                 slices: int, slice_s: float = 1e-3) -> np.ndarray:
    """One recorded ``(T, E)`` raw monitored-event window for a tenant.

    Deterministic in (fleet seed, tenant id): the workload runs under
    the tenant's own derived stream, so the recorded trace — like the
    tenant's noise — is reproducible with no other tenant present.
    """
    workload = make_workload(spec.workload)
    secret = spec.secret if spec.secret is not None \
        else workload.secrets[0]
    rng = derive_stream(plane.seed, "workload", spec.tenant_id)
    signals = workload.generate_signals(secret, rng, slices * slice_s,
                                        slice_s)
    return signals[:slices] @ plane.event_weights


@dataclass
class ReplayReport:
    """What one replay run produced, digests first."""

    windows: int
    slices_per_window: int
    tenants: list[str]
    served_windows: int
    rejected_windows: int
    served_slices: int
    elapsed_s: float
    read_digests: dict[str, str]
    budget_digest: str
    budgets: dict = field(default_factory=dict)
    rejections: dict = field(default_factory=dict)

    @property
    def slices_per_second(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.served_slices / self.elapsed_s

    def fingerprint(self) -> dict:
        """The replay's determinism-relevant state, for comparison."""
        return {"read_digests": dict(self.read_digests),
                "budget_digest": self.budget_digest}

    def to_dict(self) -> dict:
        return {
            "windows": self.windows,
            "slices_per_window": self.slices_per_window,
            "tenants": list(self.tenants),
            "served_windows": self.served_windows,
            "rejected_windows": self.rejected_windows,
            "served_slices": self.served_slices,
            "elapsed_s": self.elapsed_s,
            "slices_per_second": self.slices_per_second,
            "read_digests": dict(self.read_digests),
            "budget_digest": self.budget_digest,
            "budgets": self.budgets,
            "rejections": self.rejections,
        }


class LoadGenerator:
    """Replays recorded tenant traces against a control plane.

    Parameters
    ----------
    plane:
        The fleet under load. Tenants from ``specs`` not yet admitted
        are admitted by :meth:`run`.
    specs:
        The tenants to drive, one recorded trace each.
    windows / slices_per_window:
        Replay volume: every tenant submits ``windows`` windows of
        ``slices_per_window`` slices (its recorded trace, repeated).
    concurrency:
        Tenants interleaved per scheduling round; one control-plane
        tick (watermark refills, host HPC reads) follows each round.
        ``None`` means all — full multiplexing; ``1`` degenerates to
        serving tenants strictly one after another.
    attackers:
        Optional ``{tenant_id: AttackerProfile}`` — after each listed
        tenant's window is served, its attack trace replays against
        that tenant's guest, exercising the observability plane's
        detectors under otherwise-normal fleet load.
    window_hook:
        Optional ``hook(window_index)`` called after each completed
        window (all tenants served, ticks run). Shard workers hang
        their ``fleet.shard`` crash fault point here, so a chaos plan
        can kill a shard *mid-replay* with progress already made.
    """

    def __init__(self, plane: FleetControlPlane, specs: list[TenantSpec],
                 windows: int = 4, slices_per_window: int = 3000,
                 concurrency: "int | None" = None,
                 slice_s: float = 1e-3,
                 attackers: "dict[str, AttackerProfile] | None" = None,
                 window_hook=None,
                 ) -> None:
        if windows < 1:
            raise ValueError(f"windows must be >= 1, got {windows}")
        if slices_per_window < 1:
            raise ValueError(
                f"slices_per_window must be >= 1, got {slices_per_window}")
        if concurrency is not None and concurrency < 1:
            raise ValueError(
                f"concurrency must be >= 1, got {concurrency}")
        self.plane = plane
        self.specs = sorted(specs, key=lambda s: s.tenant_id)
        self.windows = windows
        self.slices_per_window = slices_per_window
        self.concurrency = concurrency
        self.slice_s = slice_s
        self.window_hook = window_hook
        self.attackers = dict(attackers) if attackers else {}
        known = {spec.tenant_id for spec in self.specs}
        unknown = sorted(set(self.attackers) - known)
        if unknown:
            raise ValueError(
                f"attacker profiles target unknown tenant(s): {unknown}")

    def _inject_attack(self, tenant_id: str, profile: AttackerProfile,
                       window: int) -> None:
        """Replay one window of ``profile`` against ``tenant_id``.

        Timestamps sit at ``window + 0.5`` plus sub-burst offsets —
        never near the scheduler ticks' 1/8-tick grid — so attack
        bursts and housekeeping reads cannot blur into one run.
        ``rdpmc`` is a pure read: injection perturbs no RNG stream and
        no noised value, which keeps replay digests bit-identical with
        and without an attacker present.
        """
        plane = self.plane
        runtime = plane.tenants[tenant_id]
        base = float(window) + 0.5
        if profile.kind == "single-step":
            for i in range(profile.reads_per_window):
                plane.hypervisor.read_vcpu_hpc(
                    runtime.guest_name, 0, profile.slot,
                    at=base + i * profile.cadence)
        else:  # burst-poll
            rng = derive_stream(plane.seed, "attacker", tenant_id,
                                window)
            lo, hi = profile.jitter
            intervals = rng.uniform(lo, hi, profile.reads_per_window)
            slots = len(plane.monitored_events)
            at = base
            for i in range(profile.reads_per_window):
                plane.hypervisor.read_vcpu_hpc(
                    runtime.guest_name, 0, i % slots, at=at)
                at += float(intervals[i])
        runtime.hpc_reads += profile.reads_per_window

    def run(self) -> ReplayReport:
        """Admit, record, replay; returns the digest-bearing report."""
        plane = self.plane
        for spec in self.specs:
            if spec.tenant_id not in plane.tenants:
                plane.admit_tenant(spec)
        traces = {spec.tenant_id: record_trace(plane, spec,
                                               self.slices_per_window,
                                               self.slice_s)
                  for spec in self.specs}
        digests = {spec.tenant_id: hashlib.sha256()
                   for spec in self.specs}
        tenant_ids = [spec.tenant_id for spec in self.specs]
        group = len(tenant_ids) if self.concurrency is None \
            else min(self.concurrency, len(tenant_ids))
        served_windows = 0
        rejected_windows = 0
        served_slices = 0
        rejections: dict[str, list[str]] = {}
        start = time.perf_counter()
        with telemetry.tracer().span("fleet.replay",
                                     tenants=len(tenant_ids),
                                     windows=self.windows):
            for window in range(self.windows):
                for lo in range(0, len(tenant_ids), group):
                    for tenant_id in tenant_ids[lo:lo + group]:
                        decision, noised = plane.serve_window(
                            tenant_id, traces[tenant_id])
                        if decision:
                            digests[tenant_id].update(noised.tobytes())
                            served_windows += 1
                            served_slices += decision.slices
                        else:
                            rejected_windows += 1
                            rejections.setdefault(tenant_id, []).append(
                                decision.reason)
                        profile = self.attackers.get(tenant_id)
                        if profile is not None:
                            self._inject_attack(tenant_id, profile,
                                                window)
                    plane.tick()
                if self.window_hook is not None:
                    self.window_hook(window)
        elapsed = time.perf_counter() - start
        budgets = plane.ledger.snapshot()
        budget_digest = hashlib.sha256(
            json.dumps(budgets, sort_keys=True).encode("utf-8")).hexdigest()
        return ReplayReport(
            windows=self.windows,
            slices_per_window=self.slices_per_window,
            tenants=tenant_ids,
            served_windows=served_windows,
            rejected_windows=rejected_windows,
            served_slices=served_slices,
            elapsed_s=elapsed,
            read_digests={tid: digest.hexdigest()
                          for tid, digest in digests.items()},
            budget_digest=budget_digest,
            budgets=budgets,
            rejections=rejections)


def default_specs(num_tenants: int,
                  workload: str = "website",
                  epsilon_cap: float = float("inf")) -> list[TenantSpec]:
    """``num_tenants`` standard tenant specs (``t00`` .. ``tNN``)."""
    if num_tenants < 1:
        raise ValueError(f"num_tenants must be >= 1, got {num_tenants}")
    return [TenantSpec(tenant_id=f"t{i:02d}", workload=workload,
                       epsilon_cap=epsilon_cap)
            for i in range(num_tenants)]
