"""Horizontally sharded fleet: shard workers + the sharding supervisor.

One :class:`~repro.fleet.controlplane.FleetControlPlane` tops out at a
process; six figures of tenants need many. The sharded fleet splits the
tenant set across worker processes with two invariants the tests pin
bit-for-bit:

1. **Reshard invariance.** Every shard's provisioner tree is seeded
   from the *fleet root* (tenant streams derive as ``(root, "noise" |
   "mix", tenant_id)`` — no shard label), and recorded workload traces
   derive from ``(root, "workload", tenant_id)``. A tenant's noised
   read stream is therefore byte-identical whether the fleet runs 1, 2
   or 4 shards — the property that makes SEV-Step/VIA-style per-tenant
   isolation auditable under horizontal scaling.
2. **Reassign-and-replay recovery.** The ``fleet.shard`` fault point
   is checked after every window inside each worker (``kill`` mode
   really ``os._exit``'s the sacrificial worker). The supervisor
   detects the crash, removes the shard from the consistent-hash ring
   (moving *only* its tenants), and replays them on the survivors —
   because tenant streams are shard-independent, the recovered digests
   equal an uncrashed run's exactly.

Worker results return as small pickled :class:`ShardReport`\\ s
(digests, budgets, SLO latency histograms); the heavy noised arrays
never cross the process boundary, and neither do the tenants' noise
plans: they live in the worker's heap and die with it.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from repro.fleet.controlplane import FleetControlPlane, TenantSpec
from repro.fleet.loadgen import LoadGenerator, ReplayReport
from repro.fleet.provisioner import DEFAULT_CAPACITY, DEFAULT_WATERMARK
from repro.fleet.router import DEFAULT_REPLICAS, FleetRouter
from repro.observability import runtime as observability
from repro.resilience import runtime as resilience
from repro.resilience.faults import InjectedFault
from repro.resilience.supervisor import (ShardFailure, ShardSpec,
                                         ShardSupervisor, SupervisorPolicy)
from repro.telemetry.metrics import histogram_readout, merge_snapshots

#: How a shard over its tenant cap handles the overflow.
OVERFLOW_POLICIES = ("queue", "drop")


class ShardCrashed(RuntimeError):
    """A shard worker failed for real (not an injected, recoverable
    crash): infrastructure error, or recovery generations exhausted."""


@dataclass
class ShardReport:
    """What one shard worker hands back to the supervisor."""

    shard_id: int
    generation: int
    pid: int
    replay: ReplayReport
    status: dict
    slo_histograms: "dict[str, dict]" = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def tenant_ids(self) -> list[str]:
        return list(self.replay.tenants)


@dataclass
class FleetShard:
    """One shard's replay assignment: a mini control plane over its
    tenants, run inline or inside a sacrificial worker process."""

    shard_id: int
    artifact: object
    seed: int
    specs: list
    windows: int
    slices_per_window: int
    capacity: int = DEFAULT_CAPACITY
    watermark: int = DEFAULT_WATERMARK
    concurrency: "int | None" = None
    slice_s: float = 1e-3
    fault_plan: object = None
    generation: int = 0
    sacrificial: bool = False
    observe: bool = False
    defense_policy: object = None
    attackers: "dict | None" = None

    def _crash_check(self, window: int) -> None:
        """The ``fleet.shard`` fault point, hit once per window.

        ``attempt`` carries the shard's recovery generation, so a
        ``times: 1`` kill fault takes down the first run and lets the
        reassign-and-replay pass survive — deterministically, in any
        process.
        """
        resilience.check("fleet.shard", key=self.shard_id,
                         attempt=self.generation)

    def run(self) -> ShardReport:
        start = time.perf_counter()
        # The recovery generation biases implicitly-counted fault
        # points (admission, policy decisions): a replacement worker
        # replays the identical schedule, so without the bias a
        # ``times``-bounded fault an earlier generation absorbed would
        # re-fire forever and crash-loop the supervisor.
        with resilience.session(self.fault_plan,
                                sacrificial=self.sacrificial,
                                attempt_bias=self.generation):
            plane = FleetControlPlane(
                self.artifact, seed=self.seed,
                capacity=self.capacity, watermark=self.watermark,
                defense_policy=self.defense_policy,
                fault_generation=self.generation)
            try:
                # The defense plane decides on detector alerts, so a
                # policy-armed shard always runs under an observability
                # session (its alert stream is per-tenant deterministic
                # regardless of shard count).
                observe = self.observe or self.defense_policy is not None
                obs_scope = observability.session() if observe \
                    else nullcontext(None)
                with obs_scope as obs_runtime:
                    generator = LoadGenerator(
                        plane, list(self.specs), windows=self.windows,
                        slices_per_window=self.slices_per_window,
                        concurrency=self.concurrency,
                        slice_s=self.slice_s,
                        attackers=self.attackers,
                        window_hook=self._crash_check)
                    replay = generator.run()
                    slo_histograms = (obs_runtime.slo.histograms()
                                      if obs_runtime is not None else {})
                status = plane.status()
            finally:
                plane.close()
        return ShardReport(
            shard_id=self.shard_id, generation=self.generation,
            pid=os.getpid(), replay=replay, status=status,
            slo_histograms=slo_histograms,
            elapsed_s=time.perf_counter() - start)


def _run_shard(shard: FleetShard) -> "tuple[int, ShardReport | None]":
    """Run one shard, on a worker or in-process; ``None`` marks an
    injected crash (a ``raise``, or a ``kill`` demoted in-process), which
    costs the shard's tenants a replay, never the run."""
    try:
        return shard.shard_id, shard.run()
    except InjectedFault:
        return shard.shard_id, None


def merge_slo(exports: "list[dict[str, dict]]") -> dict:
    """Fleet-wide SLO readouts from per-shard
    :meth:`~repro.observability.slo.SloTracker.histograms` exports.

    Buckets sum across shards by :func:`merge_snapshots`' rule, which
    raises on mismatched bounds, and each operation reads out once, so
    p50/p95/p99 are quantiles of the union — not a mean of per-shard
    quantiles.
    """
    merged = merge_snapshots({"histograms": export} for export in exports)
    return {name: histogram_readout(payload)
            for name, payload in merged["histograms"].items()}


@dataclass
class ShardedReplayReport:
    """The merged, digest-bearing result of one sharded fleet run."""

    shards: int
    mode: str
    windows: int
    slices_per_window: int
    tenants: list
    served_windows: int
    rejected_windows: int
    served_slices: int
    elapsed_s: float
    read_digests: dict
    budget_digest: str
    budgets: dict = field(default_factory=dict)
    rejections: dict = field(default_factory=dict)
    dropped_tenants: list = field(default_factory=list)
    queued_tenants: list = field(default_factory=list)
    crashes: list = field(default_factory=list)
    slo: dict = field(default_factory=dict)
    shard_reports: list = field(default_factory=list)

    @property
    def slices_per_second(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.served_slices / self.elapsed_s

    def fingerprint(self) -> dict:
        """Same shape as :meth:`ReplayReport.fingerprint`, so sharded
        and single-plane replays compare directly."""
        return {"read_digests": dict(self.read_digests),
                "budget_digest": self.budget_digest}

    def to_dict(self) -> dict:
        return {
            "shards": self.shards,
            "mode": self.mode,
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
            "dropped_tenants": list(self.dropped_tenants),
            "queued_tenants": list(self.queued_tenants),
            "crashes": list(self.crashes),
            "slo": self.slo,
        }


class ShardedFleet:
    """Supervises N shard workers behind one consistent-hash router.

    Parameters
    ----------
    artifact / seed:
        The fleet calibration and root entropy — shared verbatim by
        every shard, which is what makes per-tenant streams
        shard-independent.
    shards:
        Worker count; the router places tenants over shard ids
        ``0..shards-1``.
    max_tenants_per_shard:
        Optional per-shard admission cap. Overflow tenants are either
        ``queue``\\ d (served in a follow-up wave on their own shard —
        delayed, never lost) or ``drop``\\ ped (not served, loudly
        counted) per ``overflow_policy``. Either way the counts land in
        the report so capacity truncation is never silent.
    fault_plan:
        Armed inside every shard (workers are *sacrificial*, so
        ``kill`` faults really kill). The supervisor's own process
        never arms it — a chaos plan cannot take down the supervisor.
    shard_timeout_s:
        Seconds a process-mode shard may run before its worker is
        stopped and the shard counts as crashed.
    max_generations:
        Recovery budget: how many reassign-and-replay waves may follow
        injected crashes before the run fails for real.
    """

    def __init__(self, artifact, shards: int = 1, seed: int = 0,
                 replicas: int = DEFAULT_REPLICAS,
                 capacity: int = DEFAULT_CAPACITY,
                 watermark: int = DEFAULT_WATERMARK,
                 fault_plan=None,
                 max_tenants_per_shard: "int | None" = None,
                 overflow_policy: str = "queue",
                 shard_timeout_s: float = 600.0,
                 max_generations: int = 3,
                 defense_policy=None) -> None:
        if max_tenants_per_shard is not None and max_tenants_per_shard < 1:
            raise ValueError(f"max_tenants_per_shard must be >= 1, got "
                             f"{max_tenants_per_shard}")
        if overflow_policy not in OVERFLOW_POLICIES:
            raise ValueError(f"overflow_policy must be one of "
                             f"{OVERFLOW_POLICIES}, got {overflow_policy!r}")
        if shard_timeout_s <= 0:
            raise ValueError(f"shard_timeout_s must be positive, got "
                             f"{shard_timeout_s}")
        if max_generations < 0:
            raise ValueError(f"max_generations must be >= 0, got "
                             f"{max_generations}")
        self.artifact = artifact
        self.seed = int(seed)
        self.router = FleetRouter.for_shard_count(shards, replicas=replicas)
        self.capacity = capacity
        self.watermark = watermark
        self.fault_plan = fault_plan
        self.max_tenants_per_shard = max_tenants_per_shard
        self.overflow_policy = overflow_policy
        self.shard_timeout_s = shard_timeout_s
        self.max_generations = max_generations
        self.defense_policy = defense_policy

    @property
    def shard_count(self) -> int:
        return self.router.shard_count

    # -- one run -------------------------------------------------------

    def _build_shard(self, shard_id: int, specs: list, windows: int,
                     slices_per_window: int, generation: int,
                     observe: bool, concurrency, slice_s: float,
                     attackers: "dict | None" = None) -> FleetShard:
        shard_attackers = None
        if attackers:
            shard_attackers = {
                spec.tenant_id: attackers[spec.tenant_id]
                for spec in specs if spec.tenant_id in attackers}
        return FleetShard(
            shard_id=shard_id, artifact=self.artifact, seed=self.seed,
            specs=specs, windows=windows,
            slices_per_window=slices_per_window,
            capacity=self.capacity, watermark=self.watermark,
            concurrency=concurrency, slice_s=slice_s,
            fault_plan=self.fault_plan,
            generation=generation, observe=observe,
            defense_policy=self.defense_policy,
            attackers=shard_attackers)

    def _run_batch(self, shards: "list[FleetShard]", mode: str
                   ) -> "dict[int, ShardReport | None]":
        """Run one wave of shards; ``None`` marks a crashed shard.

        Process mode gives each shard its own worker, a one-shard wave
        included, so k hung shards cost one ``shard_timeout_s``.
        """
        results: "dict[int, ShardReport | None]" = {}

        def crashed(failure: ShardFailure) -> tuple:
            # A lost or hung worker is a crash, whose tenants replay; a
            # real error fails the run once the wave has been stopped.
            if failure.kind == "error":
                raise ShardCrashed(f"shard {failure.shard_start} failed: "
                                   f"{failure.detail}")
            return failure.shard_start, None

        with ShardSupervisor(
                fn=_run_shard,
                args=lambda spec, attempt, sacrificial: (
                    replace(shards[spec.index], sacrificial=sacrificial),),
                on_result=lambda result: results.update([result]),
                empty_result=crashed,
                policy=SupervisorPolicy(shard_timeout=self.shard_timeout_s,
                                        max_retries=0),
                workers=len(shards)) as supervisor:
            supervisor.run([ShardSpec(index=index, start=shard.shard_id,
                                      count=1)
                            for index, shard in enumerate(shards)],
                           processes=mode == "process")
        return results

    def run(self, specs: "list[TenantSpec]", windows: int = 4,
            slices_per_window: int = 3000, mode: str = "process",
            concurrency: "int | None" = None, slice_s: float = 1e-3,
            observe: bool = False,
            attackers: "dict | None" = None) -> ShardedReplayReport:
        """Route, replay, recover, merge.

        ``mode="process"`` runs every shard in a forked sacrificial
        worker (the production shape); ``mode="inline"`` runs them
        sequentially in this process (kill faults demote to raises) —
        same digests, handy for tests and 1-shard baselines.
        """
        if mode not in ("process", "inline"):
            raise ValueError(f"mode must be 'process' or 'inline', "
                             f"got {mode!r}")
        spec_by_id: dict[str, TenantSpec] = {}
        for spec in specs:
            if spec.tenant_id in spec_by_id:
                raise ValueError(f"duplicate tenant {spec.tenant_id!r}")
            spec_by_id[spec.tenant_id] = spec
        if attackers:
            unknown = sorted(set(attackers) - set(spec_by_id))
            if unknown:
                raise ValueError(f"attacker profiles target unknown "
                                 f"tenant(s): {unknown}")

        start = time.perf_counter()
        assignments = self.router.assignments(spec_by_id)
        dropped: list[str] = []
        queued: "dict[int, list[str]]" = {}
        cap = self.max_tenants_per_shard
        if cap is not None:
            for shard_id, tenant_ids in assignments.items():
                overflow = tenant_ids[cap:]
                if not overflow:
                    continue
                assignments[shard_id] = tenant_ids[:cap]
                if self.overflow_policy == "drop":
                    dropped.extend(overflow)
                else:
                    queued[shard_id] = overflow

        waves: "list[dict[int, list[str]]]" = [
            {sid: tids for sid, tids in assignments.items() if tids}]
        if queued:
            waves.append(dict(queued))

        router = self.router
        generation = 0
        crash_log: list[dict] = []
        reports: list[ShardReport] = []
        for wave in waves:
            pending = wave
            while pending:
                if generation > self.max_generations:
                    raise ShardCrashed(
                        f"shards kept crashing past {self.max_generations} "
                        f"recovery generation(s); giving up on tenants "
                        f"{sorted(t for ts in pending.values() for t in ts)}")
                batch = [
                    self._build_shard(
                        shard_id, [spec_by_id[t] for t in tenant_ids],
                        windows, slices_per_window, generation,
                        observe, concurrency, slice_s,
                        attackers=attackers)
                    for shard_id, tenant_ids in sorted(pending.items())]
                results = self._run_batch(batch, mode)
                crashed = sorted(sid for sid, rep in results.items()
                                 if rep is None)
                reports.extend(rep for _, rep in sorted(results.items())
                               if rep is not None)
                if not crashed:
                    break
                lost = sorted(t for sid in crashed for t in pending[sid])
                survivors = [s for s in router.shard_ids
                             if s not in crashed]
                if survivors:
                    for sid in crashed:
                        router = router.without_shard(sid)
                reassigned = {
                    sid: tids for sid, tids
                    in router.assignments(lost).items() if tids}
                crash_log.append({
                    "generation": generation,
                    "crashed_shards": crashed,
                    "lost_tenants": lost,
                    "reassigned_to": sorted(reassigned),
                })
                pending = reassigned
                generation += 1
        elapsed = time.perf_counter() - start
        return self._merge(reports, mode=mode, windows=windows,
                           slices_per_window=slices_per_window,
                           elapsed_s=elapsed, dropped=sorted(dropped),
                           queued=sorted(t for ts in queued.values()
                                         for t in ts),
                           crashes=crash_log)

    # -- merging -------------------------------------------------------

    def _merge(self, reports: "list[ShardReport]", mode: str,
               windows: int, slices_per_window: int, elapsed_s: float,
               dropped: list, queued: list,
               crashes: list) -> ShardedReplayReport:
        read_digests: dict[str, str] = {}
        budgets: dict = {}
        rejections: dict = {}
        served_windows = rejected_windows = served_slices = 0
        for report in sorted(reports, key=lambda r: (r.shard_id,
                                                     r.generation)):
            replay = report.replay
            read_digests.update(replay.read_digests)
            budgets.update(replay.budgets)
            rejections.update(replay.rejections)
            served_windows += replay.served_windows
            rejected_windows += replay.rejected_windows
            served_slices += replay.served_slices
        read_digests = dict(sorted(read_digests.items()))
        budgets = dict(sorted(budgets.items()))
        budget_digest = hashlib.sha256(
            json.dumps(budgets, sort_keys=True).encode("utf-8")).hexdigest()
        slo = merge_slo([r.slo_histograms for r in reports])
        return ShardedReplayReport(
            shards=self.shard_count, mode=mode, windows=windows,
            slices_per_window=slices_per_window,
            tenants=sorted(read_digests),
            served_windows=served_windows,
            rejected_windows=rejected_windows,
            served_slices=served_slices, elapsed_s=elapsed_s,
            read_digests=read_digests, budget_digest=budget_digest,
            budgets=budgets, rejections=rejections,
            dropped_tenants=dropped, queued_tenants=queued,
            crashes=crashes, slo=slo, shard_reports=reports)

    def status(self, report: ShardedReplayReport) -> dict:
        """A ``fleet status``-compatible snapshot of one sharded run.

        Top-level keys mirror :meth:`FleetControlPlane.status` so the
        ``fleet status`` renderer and its health gate work unchanged;
        the extra ``sharding`` block carries the per-shard breakdown.
        """
        shard_reports = report.shard_reports
        if not shard_reports:
            raise ValueError("cannot build a status from zero shards")
        first = shard_reports[0].status
        tenants: dict = {}
        reasons: list[str] = []
        ticks = 0
        for shard_report in shard_reports:
            status = shard_report.status
            tenants.update(status["tenants"])
            ticks += status["ticks"]
            for reason in status["health"]["reasons"]:
                reasons.append(f"shard {shard_report.shard_id}: {reason}")
        # Recovered crashes are *recorded* (sharding.crashes) but not
        # health-failing: every lost tenant was reassigned and replayed
        # to the same digests. Dropped tenants were never served — that
        # fails the gate.
        if report.dropped_tenants:
            reasons.append(f"{len(report.dropped_tenants)} tenant(s) "
                           f"dropped at shard capacity: "
                           f"{report.dropped_tenants}")
        per_shard = [{
            "shard_id": r.shard_id,
            "generation": r.generation,
            "pid": r.pid,
            "tenants": r.tenant_ids,
            "served_windows": r.replay.served_windows,
            "served_slices": r.replay.served_slices,
            "elapsed_s": r.elapsed_s,
        } for r in sorted(shard_reports,
                          key=lambda r: (r.shard_id, r.generation))]
        payload = {
            "processor_model": first["processor_model"],
            "mechanism": first["mechanism"],
            "epsilon": first["epsilon"],
            "monitored_events": first["monitored_events"],
            "seed": self.seed,
            "ticks": ticks,
            "tenants": dict(sorted(tenants.items())),
            "admitted_windows": report.served_windows,
            "rejected_windows": report.rejected_windows,
            "budgets": report.budgets,
            "health": {"healthy": not reasons, "reasons": reasons},
            "sharding": {
                "shards": self.shard_count,
                "mode": report.mode,
                "router": self.router.describe(),
                "per_shard": per_shard,
                "crashes": report.crashes,
                "dropped_tenants": report.dropped_tenants,
                "queued_tenants": report.queued_tenants,
                "slo": report.slo,
            },
        }
        # Merge the per-shard defense snapshots: tenant states union
        # (tenants never span shards), state counts and fault counters
        # sum, the profile is fleet-wide so any shard's copy serves.
        defense_blocks = [s.status["defense"] for s in shard_reports
                          if "defense" in s.status]
        if defense_blocks:
            states = {state: 0 for state in defense_blocks[0]["states"]}
            defense_tenants: dict = {}
            faults = 0
            for block in defense_blocks:
                for state, count in block["states"].items():
                    states[state] = states.get(state, 0) + count
                defense_tenants.update(block["tenants"])
                faults += block["policy_faults"]
            payload["defense"] = {
                "profile": defense_blocks[0]["profile"],
                "states": states,
                "policy_faults": faults,
                "tenants": dict(sorted(defense_tenants.items())),
            }
        return payload
