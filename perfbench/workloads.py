"""The six workloads of the pipeline benchmark.

Each workload builds its inputs from the run's seed in ``setup`` (what
the seed varies is under ``PROGRAM_SEED``), runs
one *operation* per ``op`` call (the thing the end-to-end metrics
time), reduces each operation's result to its work, failure and check
key in ``account`` right after the call, outside the timed region, and
checks the program's outputs in ``check``. The program is driven only
through public functions of ``repro``.

Why these six, and which layer each one stresses, is in README.md.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import shutil
import statistics
import tempfile
import time
from concurrent.futures import Future
from dataclasses import dataclass
from multiprocessing.connection import Connection
from pathlib import Path

import numpy as np

from harness import p99
from repro.core.aegis import Aegis
from repro.core.fuzzer import EventFuzzer, FuzzingCampaign
from repro.core.fuzzer.confirm import GadgetConfirmer
from repro.core.fuzzer.filtering import GadgetFilter
from repro.core.fuzzer.generator import ExecutionHarness
from repro.core.profiler.ranking import VulnerabilityRanker
from repro.core.profiler.warmup import WarmupProfiler
from repro.cpu.events import processor_catalog
from repro.fleet import (
    FleetControlPlane,
    LoadGenerator,
    ShardedFleet,
    default_artifact,
    default_specs,
)
from repro.fleet.loadgen import record_trace
from repro.fleet.provisioner import NoiseProvisioner
from repro.resilience.supervisor import ShardSupervisor
from repro.search import CoverageSearch
from repro.search.scheduler import FrontierScheduler
from repro.workloads.website import WebsiteWorkload

PROCESSOR = "amd-epyc-7252"

#: The program's own seed in ``deploy``, ``screen``, ``rescreen`` and
#: ``search``. What a campaign or search costs depends on which gadgets
#: its RNG stream draws: ±10% from one stream to the next, as much as
#: the end-to-end bounds, and confirmation in ``deploy`` ±15%. So the
#: stream is fixed. ``--seed`` picks only the customer's secrets in
#: ``deploy`` (with every warm-up survivor hardened, ``DEPLOY_MI_BITS =
#: 0``, the fuzz work and the covering set are the same for every
#: seed; the seed varies profiling and obfuscation), and changes nothing
#: in the other three: ten seeds are ten repeats of one campaign.
PROGRAM_SEED = 7
DEPLOY_BUDGET = 200
DEPLOY_SECRETS = 2
DEPLOY_RUNS = 2
DEPLOY_MI_BITS = 0.0
#: The covering set the fixed program seed yields (any secrets).
DEPLOY_COVERING_DIGEST = ("8d83aecc045c8a4dd54f5be74cf1f38f"
                          "82cc1ce39ee184911278f9398a04b806")

#: The eight events ``bench_campaign_scaling`` screens.
SCREEN_EVENTS = ("RETIRED_UOPS", "RETIRED_MMX_FP_INSTRUCTIONS:SSE_INSTR",
                 "DATA_CACHE_REFILLS_FROM_SYSTEM", "LS_DISPATCH",
                 "RETIRED_X87_FP_OPS", "MUL_OPS_RETIRED",
                 "RETIRED_COND_BRANCHES", "CACHE_LINE_FLUSHES")
SCREEN_BUDGET = 4096
SCREEN_SHARD = 256
SCREEN_CONFIRM = 2
#: ``campaign_digest`` of that campaign under the program seed.
SCREEN_DIGEST = ("a73b1e54529b6ee8033eff2434fc3277"
                 "7db2640e8db57f308e154bb0f7f2c277")

SEARCH_EVALS = 1000
#: Share of the guest-sensitive events ``search.evals_to_cover`` targets.
SEARCH_COVER_FRACTION = 0.60
#: The search's ``corpus_replay_digest`` under the program seed.
SEARCH_REPLAY_DIGEST = ("309d0cb248f577b6793140ad0ae2a878"
                        "c1b585edaa47fe509c04e5b786dd0336")

SERVE_TENANTS = 16
SERVE_SLICES = 3000
#: Closed-loop rounds per operation. The default provisioner refills the
#: noise plans every third round (~15 ms against ~1 ms), so a single
#: round's time is trimodal and its median falls between two modes; 12
#: rounds hold four refills and every operation costs about the same.
SERVE_ROUNDS = 12
#: Open-loop offered load: windows per second, round-robin over tenants.
SERVE_RATE = 1000.0
#: Rounds replayed again on a fresh plane to check the served reads.
SERVE_CHECK_ROUNDS = 4

SHARD_TENANTS = 64
SHARD_WINDOWS = 3
SHARD_SLICES = 1000


class CheckFailed(AssertionError):
    """A program output did not match what the workload expects."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def covering_digest(report) -> str:
    return digest(sorted((gadget.name, sorted(int(e) for e in events))
                         for gadget, events in report.covering_set.items()))


def campaign_digest(report) -> str:
    """Everything a grammar campaign reports except timings."""
    confirmed = {str(event): [(r.gadget.name, r.per_iteration_delta,
                               r.cold_median, r.hot_median, r.confirmed)
                              for r in results]
                 for event, results in report.confirmed_per_event.items()}
    return digest({"covering": covering_digest(report),
                   "confirmed": confirmed,
                   "screened": {str(k): v for k, v
                                in report.screened_per_event.items()},
                   "first_responder": {str(k): v for k, v
                                       in report.first_responder.items()},
                   "gadgets_tested": report.gadgets_tested})


# -- layer wrappers ---------------------------------------------------------


def _campaign_attrs(args, result) -> dict:
    stats = args[0].stats
    return {"shard_cpu_s": sum(stats.shard_cpu_seconds),
            "retries": stats.retries, "timeouts": stats.timeouts,
            "pool_restarts": stats.pool_restarts}


def _search_attrs(args, result) -> dict:
    target = max(1, int(SEARCH_COVER_FRACTION
                        * len(args[0].config.event_indices)))
    return {"evals": result.evals, "minimize_evals": result.minimize_evals,
            "rounds": result.rounds, "corpus_size": result.corpus_size,
            "covered": result.covered_count,
            "evals_to_cover": result.evals_to_cover(target) or 0}


def _sharded_attrs(args, result) -> dict:
    elapsed = [report.elapsed_s for report in result.shard_reports]
    mean = statistics.fmean(elapsed) if elapsed else 0.0
    return {"worker_s": sum(elapsed),
            "imbalance": max(elapsed) / mean if mean else 0.0}


#: (owner, attribute, span name, attrs hook) — the public entry point of
#: every layer the per-layer metrics name. ``pool.wait`` and
#: ``fleet.shard.wait`` are the parent waiting on its worker processes
#: (a search chunk's future, a shard's result pipe): the work those
#: processes do shows there, as the time it kept the operation waiting.
LAYERS = (
    (Aegis, "deploy", "aegis.deploy",
     lambda args, r: {"covered": r.covered_events}),
    (WarmupProfiler, "run", "profiler.warmup", None),
    (VulnerabilityRanker, "rank", "profiler.rank", None),
    (FuzzingCampaign, "run", "fuzzer.campaign", _campaign_attrs),
    (EventFuzzer, "run_cleanup", "fuzzer.cleanup", None),
    (ShardSupervisor, "run", "resilience.fanout",
     lambda args, r: {"workers": args[0].workers}),
    (EventFuzzer, "finalize", "fuzzer.finalize", None),
    (GadgetConfirmer, "confirm", "fuzzer.confirm",
     lambda args, r: {"accepted": int(r.confirmed)}),
    (GadgetConfirmer, "reorder_validate", "fuzzer.reorder", None),
    (GadgetFilter, "filter_event", "fuzzer.filter", None),
    (Aegis, "build_obfuscator", "obfuscator.build", None),
    (CoverageSearch, "run", "search.run", _search_attrs),
    (FrontierScheduler, "select", "search.schedule", None),
    (ExecutionHarness, "screen_measure", "fuzzer.measure", None),
    (Future, "result", "pool.wait", None),
    (FleetControlPlane, "serve_window", "fleet.serve_window", None),
    (FleetControlPlane, "tick", "fleet.tick", None),
    (NoiseProvisioner, "refill", "fleet.provision",
     lambda args, r: {"slices": r}),
    (ShardedFleet, "run", "fleet.shard", _sharded_attrs),
    (Connection, "poll", "fleet.shard.wait", None),
)

#: Spans that wrap a whole operation. Their self time is work no layer
#: span covers, so it counts as unattributed (``attributed_seconds``).
UMBRELLAS = frozenset({"aegis.deploy", "fuzzer.campaign", "search.run",
                       "fleet.shard"})


def install_layers(tracer) -> None:
    for owner, attr, name, attrs in LAYERS:
        tracer.wrap(owner, attr, name, attrs)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Per-layer values of the open-loop leg (``Serve.open_loop``).
OPEN_LOOP_METRICS = ("serve.window_p50_ms", "serve.window_p99_ms",
                     "serve.windows", "loadgen.late_p99_ms")


def layer_metrics(layers: dict, ops: int, counters: dict,
                  latency: dict) -> dict:
    """Per-layer values from the traced pass, per traced operation.

    ``layers`` is the span rollup, ``counters`` the program's own
    telemetry counters summed over the traced operations, ``latency``
    the open-loop leg's values. A layer the workload never reaches, or
    a leg it does not run, reads 0.
    """
    def get(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    def per_op(value: float) -> float:
        return value / ops

    fanout_wall = get("resilience.fanout", "wall_s")
    fanout_slots = fanout_wall * _ratio(get("resilience.fanout", "workers"),
                                        get("resilience.fanout", "calls"))
    shard_cpu = get("fuzzer.campaign", "shard_cpu_s")
    hits = counters.get("cache.hits", 0)
    misses = counters.get("cache.misses", 0)
    batch_evals = counters.get("batch.evals", 0)
    fallback = counters.get("batch.fallback_scalar", 0)
    values = {
        "fuzzer.screen.shard_cpu_s": per_op(shard_cpu),
        "resilience.fanout.wall_s": per_op(fanout_wall),
        "resilience.fanout.idle_ratio":
            1.0 - _ratio(shard_cpu, fanout_slots) if fanout_slots else 0.0,
        "resilience.retries": per_op(get("fuzzer.campaign", "retries")),
        "resilience.timeouts": per_op(get("fuzzer.campaign", "timeouts")),
        "resilience.pool_restarts":
            per_op(get("fuzzer.campaign", "pool_restarts")),
        "fuzzer.confirm.calls": per_op(get("fuzzer.confirm", "calls")),
        "fuzzer.confirm.accept_ratio":
            _ratio(get("fuzzer.confirm", "accepted"),
                   get("fuzzer.confirm", "calls")),
        "cpu.batch.evals": per_op(batch_evals),
        "cpu.batch.fallback_scalar": per_op(fallback),
        "cpu.batch.vector_ratio":
            1.0 - _ratio(fallback, batch_evals) if batch_evals else 0.0,
        "cache.hits": per_op(hits),
        "cache.misses": per_op(misses),
        "cache.hit_ratio": _ratio(hits, hits + misses),
        "fuzz.executions": per_op(counters.get("fuzz.executions", 0)),
        "search.evals": per_op(get("search.run", "evals")),
        "search.minimize_evals": per_op(get("search.run", "minimize_evals")),
        "search.rounds": per_op(get("search.run", "rounds")),
        "search.admit_ratio": _ratio(get("search.run", "corpus_size"),
                                     get("search.run", "evals")),
        "search.covered_events": per_op(get("search.run", "covered")),
        "search.evals_to_cover": per_op(get("search.run", "evals_to_cover")),
        "deploy.covered_events": per_op(get("aegis.deploy", "covered")),
        "fleet.serve_window.calls":
            per_op(get("fleet.serve_window", "calls")),
        "fleet.provision.slices": per_op(get("fleet.provision", "slices")),
        "fleet.shard.wall_s": per_op(get("fleet.shard", "wall_s")),
        "fleet.shard.worker_s": per_op(get("fleet.shard", "worker_s")),
        "fleet.shard.imbalance": per_op(get("fleet.shard", "imbalance")),
    }
    for _, _, name, _ in LAYERS:
        values[f"{name}.self_s"] = per_op(get(name, "self_s"))
    for name in OPEN_LOOP_METRICS:
        values[name] = latency.get(name, 0.0)
    return values


# -- the workloads ----------------------------------------------------------


@dataclass
class Outcome:
    """What one operation did, accounted outside the timed region.

    ``key`` is the small value ``check`` compares across operations, so
    no full result has to stay in memory (and in ``peak_rss_mb``).
    """

    work: float
    failed: bool
    key: object = None


class Workload:
    name = ""
    #: ``open_loop(state, seconds) -> dict`` on workloads that serve
    #: requests as they arrive (see :meth:`Serve.open_loop`).
    open_loop = None
    #: Whether the traced pass turns on the program's own telemetry for
    #: its ``batch.*``/``cache.*``/``fuzz.*`` counters. The fleet emits
    #: none of them, and telemetry adds about a fifth to a served round.
    program_counters = True

    def __init__(self, workers: int, workdir: Path) -> None:
        self.workers = workers
        self.workdir = workdir

    def setup(self, seed: int):
        raise NotImplementedError

    def dispose(self, state) -> None:
        """Release a set-up state that will not be measured."""

    def op(self, state):
        raise NotImplementedError

    def account(self, state, result) -> Outcome:
        raise NotImplementedError

    def check(self, state, keys: list) -> None:
        raise NotImplementedError


# deploy -------------------------------------------------------------------


@dataclass
class DeployState:
    application: WebsiteWorkload
    secrets: list


class Deploy(Workload):
    """The whole offline path, ``Aegis.deploy``, once per operation."""

    name = "deploy"

    def setup(self, seed: int) -> DeployState:
        application = WebsiteWorkload()
        picks = np.random.default_rng(seed).choice(
            len(application.secrets), DEPLOY_SECRETS, replace=False)
        return DeployState(application,
                           [application.secrets[i] for i in sorted(picks)])

    def op(self, state: DeployState):
        aegis = Aegis(state.application, processor_model=PROCESSOR,
                      gadget_budget=DEPLOY_BUDGET,
                      runs_per_secret=DEPLOY_RUNS,
                      mi_threshold_bits=DEPLOY_MI_BITS, rng=PROGRAM_SEED)
        return aegis.deploy(state.secrets)

    def account(self, state, result) -> Outcome:
        events = len(result.profiler_report.ranking.vulnerable_indices(
            DEPLOY_MI_BITS))
        return Outcome(work=events, failed=False,
                       key=(covering_digest(result.fuzzing_report),
                            result.obfuscator.mechanism.sensitivity))

    def check(self, state, keys) -> None:
        variants = set(keys)
        require(len(variants) == 1,
                f"deployment differs across repeats: {len(variants)} "
                f"variants")
        (covering, sensitivity), = variants
        require(covering == DEPLOY_COVERING_DIGEST,
                f"covering set {covering[:16]} is not the pinned "
                f"{DEPLOY_COVERING_DIGEST[:16]}")
        require(math.isfinite(sensitivity) and sensitivity > 0,
                f"bad sensitivity {sensitivity}")


# screen / rescreen ---------------------------------------------------------


@dataclass
class ScreenState:
    events: np.ndarray
    cache_dir: "Path | None" = None
    cold_digest: str = ""


@dataclass
class CampaignResult:
    report: object
    stats: object


def _screen_events() -> np.ndarray:
    catalog = processor_catalog(PROCESSOR)
    return np.array([catalog.index_of(name) for name in SCREEN_EVENTS])


class Screen(Workload):
    """One sharded grammar campaign over the eight scaling events."""

    name = "screen"

    def setup(self, seed: int) -> ScreenState:
        return ScreenState(events=_screen_events())

    def campaign(self, state: ScreenState, cache_dir) -> CampaignResult:
        fuzzer = EventFuzzer(processor_model=PROCESSOR,
                             gadget_budget=SCREEN_BUDGET,
                             shard_size=SCREEN_SHARD,
                             confirm_per_event=SCREEN_CONFIRM,
                             rng=PROGRAM_SEED)
        campaign = FuzzingCampaign(fuzzer, workers=self.workers,
                                   cache_dir=cache_dir)
        return CampaignResult(campaign.run(state.events), campaign.stats)

    def op(self, state: ScreenState) -> CampaignResult:
        return self.campaign(state, state.cache_dir)

    def account(self, state, result: CampaignResult) -> Outcome:
        stats = result.stats
        failed = bool(stats.shard_failures or stats.quarantined)
        return Outcome(work=SCREEN_BUDGET * len(state.events), failed=failed,
                       key=(campaign_digest(result.report),
                            len(result.report.covering_set)))

    def check(self, state, keys) -> None:
        variants = set(keys)
        require(len(variants) == 1,
                f"campaign report differs across repeats: {len(variants)}")
        require(keys[0][0] == SCREEN_DIGEST,
                f"campaign report {keys[0][0][:16]} is not the pinned "
                f"{SCREEN_DIGEST[:16]}")
        require(keys[0][1] > 0, "campaign covered nothing")


class Rescreen(Screen):
    """The same campaign against a measurement cache filled in set-up."""

    name = "rescreen"

    def setup(self, seed: int) -> ScreenState:
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.workdir))
        state = ScreenState(events=_screen_events(), cache_dir=cache_dir)
        cold = self.campaign(state, cache_dir)
        state.cold_digest = campaign_digest(cold.report)
        return state

    def dispose(self, state: ScreenState) -> None:
        shutil.rmtree(state.cache_dir, ignore_errors=True)

    def check(self, state, keys) -> None:
        super().check(state, keys)
        warm = keys[0][0]
        require(warm == state.cold_digest,
                "warm-cache report differs from the cold pass that filled it")
        uncached = self.campaign(state, None)
        require(campaign_digest(uncached.report) == warm,
                "warm-cache report differs from an uncached campaign")


# search --------------------------------------------------------------------


class Search(Workload):
    """Coverage-guided search over every guest-sensitive event."""

    name = "search"

    def setup(self, seed: int):
        catalog = processor_catalog(PROCESSOR)
        events = np.flatnonzero(catalog.guest_sensitive)
        return EventFuzzer(processor_model=PROCESSOR,
                           gadget_budget=SEARCH_EVALS,
                           rng=PROGRAM_SEED).search_config(events)

    def op(self, config):
        return CoverageSearch(config, max_evals=SEARCH_EVALS,
                              workers=self.workers).run()

    def account(self, config, result) -> Outcome:
        return Outcome(work=result.evals, failed=result.corpus_misses > 0,
                       key=(result.corpus_replay_digest,
                            result.coverage_digest,
                            tuple(sorted(result.first_cover.items())),
                            result.evals, result.covered_count))

    def check(self, config, keys) -> None:
        variants = set(keys)
        require(len(variants) == 1,
                f"search trajectory differs across repeats: {len(variants)}")
        replay, *_, evals, covered = keys[0]
        require(replay == SEARCH_REPLAY_DIGEST,
                f"corpus replay {replay[:16]} is not the pinned "
                f"{SEARCH_REPLAY_DIGEST[:16]}")
        require(evals >= SEARCH_EVALS,
                f"search stopped after {evals} of {SEARCH_EVALS} evals")
        require(covered > 0, "search covered nothing")


# serve ---------------------------------------------------------------------


@dataclass
class ServeState:
    seed: int
    plane: FleetControlPlane
    specs: list
    traces: dict
    #: Windows each tenant was sent, closed and open loop together.
    rounds: int = 0
    rejected: int = 0


def _fleet(seed: int, specs, slices: int):
    """A control plane with ``specs`` admitted and one trace each."""
    plane = FleetControlPlane(default_artifact(PROCESSOR), seed=seed)
    for spec in specs:
        plane.admit_tenant(spec)
    traces = {spec.tenant_id: record_trace(plane, spec, slices)
              for spec in specs}
    return plane, traces


class Serve(Workload):
    """Closed loop: ``SERVE_ROUNDS`` rounds in which every tenant serves
    one window, then one tick."""

    name = "serve"
    program_counters = False

    def setup(self, seed: int) -> ServeState:
        specs = default_specs(SERVE_TENANTS)
        plane, traces = _fleet(seed, specs, SERVE_SLICES)
        return ServeState(seed=seed, plane=plane, specs=specs, traces=traces)

    def dispose(self, state: ServeState) -> None:
        state.plane.close()
        # The plane and its hypervisor's read tap reference each other,
        # so only the cycle collector frees a plane's noise buffers;
        # collecting here keeps peak_rss_mb from depending on when it
        # last ran.
        gc.collect()

    def op(self, state: ServeState) -> int:
        plane, traces = state.plane, state.traces
        rejected = 0
        for _ in range(SERVE_ROUNDS):
            for spec in state.specs:
                decision, _ = plane.serve_window(spec.tenant_id,
                                                 traces[spec.tenant_id])
                if not decision:
                    rejected += 1
            plane.tick()
        return rejected

    def account(self, state: ServeState, rejected: int) -> Outcome:
        state.rounds += SERVE_ROUNDS
        state.rejected += rejected
        served = SERVE_ROUNDS * len(state.specs) - rejected
        return Outcome(work=served * SERVE_SLICES, failed=rejected > 0)

    def check(self, state: ServeState, keys) -> None:
        require(state.rejected == 0,
                f"{state.rejected} windows rejected under an uncapped budget")
        for spec in state.specs:
            served = state.plane.tenant(spec.tenant_id).windows_served
            require(served == state.rounds,
                    f"tenant {spec.tenant_id} served {served} of "
                    f"{state.rounds} windows")
        # The bench's serving loop must read exactly what the library's
        # own replay of the same schedule reads, value for value.
        plane, traces = _fleet(state.seed, state.specs, SERVE_SLICES)
        hashes = {spec.tenant_id: hashlib.sha256() for spec in state.specs}
        try:
            for _ in range(SERVE_CHECK_ROUNDS):
                for spec in state.specs:
                    _, noised = plane.serve_window(spec.tenant_id,
                                                   traces[spec.tenant_id])
                    hashes[spec.tenant_id].update(noised.tobytes())
                plane.tick()
            mine = {"read_digests": {t: h.hexdigest()
                                     for t, h in hashes.items()},
                    "budget_digest": digest(plane.ledger.snapshot())}
        finally:
            plane.close()
        reference = FleetControlPlane(default_artifact(PROCESSOR),
                                      seed=state.seed)
        try:
            replay = LoadGenerator(reference, state.specs,
                                   windows=SERVE_CHECK_ROUNDS,
                                   slices_per_window=SERVE_SLICES).run()
        finally:
            reference.close()
        require(replay.rejected_windows == 0, "reference replay rejected")
        require(mine == replay.fingerprint(),
                "served reads differ from the library's replay")

    def open_loop(self, state: ServeState, seconds: float) -> dict:
        """Windows due at ``SERVE_RATE``/s, round-robin, one tick per
        round; each window's latency runs from when it was due."""
        plane, traces = state.plane, state.traces
        tenant_ids = [spec.tenant_id for spec in state.specs]
        period = 1.0 / SERVE_RATE
        rounds = max(2, int(seconds * SERVE_RATE / len(tenant_ids)))
        latency, late = [], []
        origin = time.perf_counter() + period
        for i in range(rounds * len(tenant_ids)):
            due = origin + i * period
            now = time.perf_counter()
            while now < due:
                now = time.perf_counter()
            tenant_id = tenant_ids[i % len(tenant_ids)]
            decision, _ = plane.serve_window(tenant_id, traces[tenant_id])
            latency.append(time.perf_counter() - due)
            late.append(now - due)
            state.rejected += not decision
            if i % len(tenant_ids) == len(tenant_ids) - 1:
                plane.tick()
        state.rounds += rounds
        return {"serve.window_p50_ms": statistics.median(latency) * 1e3,
                "serve.window_p99_ms": p99(latency) * 1e3,
                "serve.windows": float(len(latency)),
                "loadgen.late_p99_ms": p99(late) * 1e3}


# shards --------------------------------------------------------------------


@dataclass
class ShardsState:
    seed: int
    fleet: ShardedFleet
    specs: list


class Shards(Workload):
    """One process-mode sharded replay of a 64-tenant fleet."""

    name = "shards"
    program_counters = False

    def setup(self, seed: int) -> ShardsState:
        fleet = ShardedFleet(default_artifact(PROCESSOR), shards=self.workers,
                             seed=seed)
        return ShardsState(seed=seed, fleet=fleet,
                           specs=default_specs(SHARD_TENANTS))

    def op(self, state: ShardsState):
        return state.fleet.run(state.specs, windows=SHARD_WINDOWS,
                               slices_per_window=SHARD_SLICES,
                               mode="process")

    def account(self, state, report) -> Outcome:
        failed = bool(report.rejected_windows or report.crashes
                      or report.dropped_tenants)
        return Outcome(work=report.served_slices, failed=failed,
                       key=(digest(report.fingerprint()),
                            report.served_slices))

    def check(self, state: ShardsState, keys) -> None:
        variants = set(keys)
        require(len(variants) == 1,
                f"sharded replay differs across repeats: {len(variants)}")
        fingerprint, served = keys[0]
        expected = SHARD_TENANTS * SHARD_WINDOWS * SHARD_SLICES
        require(served == expected,
                f"served {served} of {expected} slices")
        inline = ShardedFleet(default_artifact(PROCESSOR), shards=1,
                              seed=state.seed).run(
            state.specs, windows=SHARD_WINDOWS,
            slices_per_window=SHARD_SLICES, mode="inline")
        require(digest(inline.fingerprint()) == fingerprint,
                "sharded replay differs from a 1-shard inline replay")


WORKLOADS = {cls.name: cls for cls in (Deploy, Screen, Rescreen, Search,
                                       Serve, Shards)}


def default_workers() -> int:
    """Two workers, or fewer on a host with fewer cores."""
    return max(1, min(2, len(os.sched_getaffinity(0))))
