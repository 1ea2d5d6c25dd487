"""The multi-tenant fleet control plane.

Scales the Event Obfuscator from one protected VM to N SEV guests on a
host: a versioned artifact registry hands the offline stage's output to
every tenant, a provisioning service batch-precomputes each tenant's
value-independent injection plan from one seeded RNG tree, an admission
controller polices per-tenant ε-quotas and noise backpressure (fail
closed on both), and a scheduler multiplexes daemon heartbeats,
watchdog restarts, and host HPC reads across the fleet. A trace-replay
load generator drives it deterministically enough to assert
bit-identity across runs.

Beyond one process, a consistent-hash router shards the tenant set
across sacrificial worker processes (crash-and-replay recovery) while
keeping every per-tenant stream derived from the fleet root seed — so
replay digests are bit-identical at any shard count. A tenant's noise
plan lives only in the heap of the process that serves it.

The adaptive defense plane (:mod:`repro.fleet.policy`) closes the
detection loop: detector alerts drive a deterministic per-tenant
escalation ladder — ε reallocation, Laplace→d* plan escalation,
fail-closed quarantine — that replays bit-identically at any shard
count.
"""

from repro.fleet.admission import AdmissionController, AdmissionDecision
from repro.fleet.controlplane import (
    FleetControlPlane,
    TenantRuntime,
    TenantSpec,
)
from repro.fleet.ledger import (
    FleetLedger,
    ReallocatableAccountant,
    UnknownTenant,
)
from repro.fleet.loadgen import (
    ATTACKER_KINDS,
    WORKLOAD_FACTORIES,
    AttackerProfile,
    LoadGenerator,
    ReplayReport,
    default_specs,
    make_workload,
    record_trace,
)
from repro.fleet.policy import (
    DEFENSE_STATES,
    ESCALATION_PROFILES,
    DefensePolicyEngine,
    EscalationProfile,
    resolve_profile,
)
from repro.fleet.provisioner import (
    DEFAULT_CAPACITY,
    DEFAULT_WATERMARK,
    PLAN_MODES,
    NoiseProvisioner,
    TenantNoiseBuffer,
)
from repro.fleet.router import DEFAULT_REPLICAS, FleetRouter
from repro.fleet.shard import (
    FleetShard,
    ShardCrashed,
    ShardedFleet,
    ShardedReplayReport,
    ShardReport,
)
from repro.fleet.statefile import read_json, sweep_stale_tmp, write_json_atomic
from repro.fleet.registry import (
    ArtifactCompatibilityError,
    ArtifactRegistry,
    RegistryEntry,
    RegistryIntegrityError,
    check_compatible,
    default_artifact,
    event_weight_matrix,
)

__all__ = [
    "ATTACKER_KINDS",
    "AdmissionController",
    "AdmissionDecision",
    "ArtifactCompatibilityError",
    "ArtifactRegistry",
    "AttackerProfile",
    "DEFAULT_CAPACITY",
    "DEFAULT_REPLICAS",
    "DEFAULT_WATERMARK",
    "DEFENSE_STATES",
    "DefensePolicyEngine",
    "ESCALATION_PROFILES",
    "EscalationProfile",
    "FleetControlPlane",
    "FleetLedger",
    "FleetRouter",
    "FleetShard",
    "LoadGenerator",
    "NoiseProvisioner",
    "PLAN_MODES",
    "ReallocatableAccountant",
    "RegistryEntry",
    "RegistryIntegrityError",
    "ReplayReport",
    "ShardCrashed",
    "ShardReport",
    "ShardedFleet",
    "ShardedReplayReport",
    "TenantNoiseBuffer",
    "TenantRuntime",
    "TenantSpec",
    "UnknownTenant",
    "WORKLOAD_FACTORIES",
    "check_compatible",
    "default_artifact",
    "default_specs",
    "event_weight_matrix",
    "make_workload",
    "read_json",
    "record_trace",
    "resolve_profile",
    "sweep_stale_tmp",
    "write_json_atomic",
]
