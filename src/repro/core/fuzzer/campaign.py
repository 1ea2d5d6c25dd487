"""Sharded, resumable fuzzing campaigns.

The paper's Event Fuzzer tests ~11.6M gadget pairs over hours; a
sequential :meth:`EventFuzzer.fuzz` cannot pause, resume, or scale out.
This module splits a gadget budget into deterministic shards and runs
the screening stage per shard, with three guarantees:

- **Partition invariance** — gadget *i*'s sampled instructions,
  measurement noise, and microarchitectural start state depend only on
  the campaign's root entropy and *i* (per-gadget RNG streams derived
  via ``SeedSequence`` spawn keys, plus a state reset + deterministic
  warm-up before each measurement). Any shard size, worker count, or
  execution order yields bit-identical screening results.
- **Resumability** — each completed shard is checkpointed as a JSON
  artifact; a campaign killed mid-run resumes from the checkpoint
  directory and produces the same report as an uninterrupted run.
  Corrupt or stale shard files are detected via a config fingerprint
  and transparently re-screened. The same store serves ``cache_dir``:
  one checkpoint directory per configuration fingerprint, always
  resumed, so a re-run of a campaign screens nothing.
- **One code path** — :meth:`EventFuzzer.fuzz` is a 1-worker
  :class:`FuzzingCampaign`; every campaign drives :func:`screen_shard`
  and :func:`merge_screened`, then hands the merged candidate pool to
  the fuzzer's confirmation/filtering stages, so a 1-worker and an
  N-worker campaign with the same seed produce the identical covering
  set.
"""

from __future__ import annotations

import json
import logging
import os
import time
from contextlib import nullcontext, suppress
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from repro.core.fuzzer.cleanup import CleanupReport, InstructionCleaner
from repro.core.fuzzer.generator import ExecutionHarness, MeasuredDelta
from repro.core.fuzzer.grammar import Gadget, GadgetGrammar
from repro.cpu import batch
from repro.cpu.core import Core
from repro.fleet.statefile import write_text_atomic
from repro.isa.catalog import shared_catalog
from repro.isa.legality import MICROARCH_PROFILES
from repro.resilience import runtime as resilience
from repro.resilience.faults import FaultPlan, corrupt_text
from repro.resilience.supervisor import (
    ShardFailure,
    ShardSpec,
    ShardSupervisor,
    SupervisorPolicy,
    run_task,
)
from repro.telemetry import runtime as telemetry
from repro.utils.digest import config_digest
from repro.utils.rng import derive_seeds, derive_stream, seeded_stream

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.core.fuzzer.fuzzer import EventFuzzer, FuzzingReport

logger = logging.getLogger(__name__)

#: Default gadgets per shard. Small enough that a default 2000-gadget
#: budget yields several shards (parallelism, checkpoint granularity),
#: large enough that per-shard setup stays negligible.
DEFAULT_SHARD_SIZE = 256

#: Checkpoint artifact schema version.
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class ShardConfig:
    """Everything a worker needs to screen a shard, in plain types.

    Instances are pickled to worker processes and hashed into the
    checkpoint fingerprint, so every field is a builtin scalar/tuple.
    """

    processor_model: str
    microarch: str
    entropy: int
    unroll: int
    sequence_length: int
    empty_reset_prob: float
    event_indices: tuple[int, ...]
    thresholds: tuple[float, ...]


@dataclass
class ShardResult:
    """Screening output of one shard.

    ``screened`` maps event index to ``(gadget_index, delta)`` pairs in
    ascending gadget order — the merge is a pure concatenation.
    """

    index: int
    start: int
    count: int
    screened: dict[int, list[tuple[int, float]]]
    executions: int = 0
    elapsed_seconds: float = 0.0
    cpu_seconds: float = 0.0


class CampaignError(ValueError):
    """Invalid campaign configuration or unusable checkpoint state."""


def plan_shards(budget: int, shard_size: int) -> list[ShardSpec]:
    """Split ``budget`` gadgets into contiguous shards of ``shard_size``."""
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    shards = []
    for index, start in enumerate(range(0, budget, shard_size)):
        shards.append(ShardSpec(index=index, start=start,
                                count=min(shard_size, budget - start)))
    return shards


def gadget_stream(entropy: int, gadget_index: int) -> np.random.Generator:
    """The RNG stream owned by gadget ``gadget_index``.

    Derived from the campaign entropy with the gadget index as a
    ``SeedSequence`` spawn key (:func:`repro.utils.rng.derive_stream`):
    statistically independent across gadgets, and — unlike drawing
    per-shard seeds from a sequential stream — independent of how the
    budget is partitioned into shards.
    """
    return derive_stream(entropy, gadget_index)


# -- per-process caches ---------------------------------------------------
#
# Worker processes build the (deterministic) catalog cleanup and the
# screening kernel once, or inherit the parent's under the default fork
# start method on Linux, and reuse them for every task they run.

_CLEANUP_CACHE: dict[str, CleanupReport] = {}


def default_cleanup(microarch_name: str) -> CleanupReport:
    """Process-cached cleanup of the shared catalog for a named profile.

    The ``fuzz.cleanup_builds`` counter ticks only on an actual build
    (a cache miss): under the fork start method workers inherit the
    parent's populated cache, so the counter is invariant to worker
    count — asserted by the telemetry worker-equivalence tests.
    """
    report = _CLEANUP_CACHE.get(microarch_name)
    if report is None:
        profile = MICROARCH_PROFILES[microarch_name]
        report = InstructionCleaner(shared_catalog(), profile).run()
        _CLEANUP_CACHE[microarch_name] = report
        registry = telemetry.metrics()
        if registry.enabled:
            registry.counter("fuzz.cleanup_builds").inc()
    return report


class ScreeningKernel:
    """The legal list, core, harness and grammar of one
    :class:`ShardConfig` — the only place screening builds them.

    Campaign shards and search chunks measure through one per process
    (:func:`screening_kernel`); each measurement resets and warms the
    core and reseeds the harness, so history never leaks into a result.
    """

    def __init__(self, config: ShardConfig) -> None:
        self.config = config
        self.legal = default_cleanup(config.microarch).legal
        self.core = Core(config.processor_model, rng=0)
        self.harness = ExecutionHarness(self.core, unroll=config.unroll,
                                        rng=0)
        self.grammar = GadgetGrammar(
            self.legal, sequence_length=config.sequence_length,
            empty_reset_prob=config.empty_reset_prob, rng=0)
        self.events = np.asarray(config.event_indices, dtype=int)

    def sample(self, gadget_index: int,
               stream: "np.random.Generator | None" = None
               ) -> "tuple[Gadget, np.random.Generator]":
        """Gadget ``gadget_index`` and its stream, for :meth:`measure`.

        ``stream`` is the gadget's :func:`gadget_stream` when the caller
        already built it: :func:`screen_shard` seeds a whole shard's
        streams in one pass (:func:`repro.utils.rng.derive_seeds`).
        """
        if stream is None:
            stream = gadget_stream(self.config.entropy, gadget_index)
        return self.grammar.sample(rng=stream), stream

    def measure(self, gadget: Gadget,
                stream: np.random.Generator) -> MeasuredDelta:
        """One screening measurement of ``gadget`` under ``stream``.

        Reset + warm-up put the core in the canonical state, so the
        batch memo can serve repeat gadget shapes without executing.
        """
        self.core.reset_microarch_state()
        self.harness.warm_measurement_state()
        self.harness.set_rng(stream)
        return self.harness.screen_measure(gadget, self.events)


#: One-entry process cache, like ``default_cleanup``'s: pool workers
#: forked after the parent built it inherit a ready kernel.
_KERNEL: "ScreeningKernel | None" = None


def screening_kernel(config: ShardConfig) -> ScreeningKernel:
    """This process's screening kernel for ``config`` (built on first use)."""
    global _KERNEL
    if _KERNEL is None or _KERNEL.config != config:
        _KERNEL = ScreeningKernel(config)
    return _KERNEL


def screen_shard(config: ShardConfig, shard: ShardSpec) -> ShardResult:
    """Screen one shard of the budget. Pure in (config, shard).

    Each gadget is sampled, measured, and thresholded under its own RNG
    stream from a reset-then-warmed core, so the result is identical no
    matter which process runs the shard or what ran before it. The
    shard's streams are :func:`gadget_stream`'s, seeded in one array
    pass: 32 bytes of seed per gadget, each stream built just before
    its gadget is sampled.
    """
    wall = time.perf_counter()
    cpu = time.process_time()
    with telemetry.tracer().span("fuzz.screen_shard", shard=shard.index,
                                 start=shard.start, count=shard.count):
        kernel = screening_kernel(config)
        executions = kernel.harness.executions
        # The batch engine's archetype memo is scoped to one shard:
        # clearing here makes every measurement (and the batch.evals /
        # batch.fallback_scalar split) a pure function of the shard,
        # invariant to worker count, scheduling, and process history.
        batch.clear_memo()
        events = kernel.events
        thresholds = np.asarray(config.thresholds, dtype=float)
        screened: dict[int, list[tuple[int, float]]] = {
            int(e): [] for e in events}
        candidates = 0
        indices = range(shard.start, shard.stop)
        seeds = derive_seeds(config.entropy, indices)
        for gadget_index, seed in zip(indices, seeds):
            gadget, stream = kernel.sample(gadget_index, seeded_stream(seed))
            deltas = kernel.measure(gadget, stream).deltas
            for j in np.flatnonzero(deltas > thresholds):
                screened[int(events[j])].append(
                    (gadget_index, float(deltas[j])))
                candidates += 1
        # The kernel outlives the shard: count this shard's executions.
        executions = kernel.harness.executions - executions
    registry = telemetry.metrics()
    if registry.enabled:
        registry.counter("fuzz.gadgets_screened").inc(shard.count)
        registry.counter("fuzz.candidates").inc(candidates)
        registry.counter("fuzz.executions").inc(executions)
    return ShardResult(index=shard.index, start=shard.start,
                       count=shard.count, screened=screened,
                       executions=executions,
                       elapsed_seconds=time.perf_counter() - wall,
                       cpu_seconds=time.process_time() - cpu)


def merge_screened(results: Iterable[ShardResult]
                   ) -> dict[int, list[tuple[int, float]]]:
    """Merge per-shard screening results into one candidate pool.

    A pure reduction: per-event lists are concatenated and ordered by
    gadget index, so the merge is associative, commutative, and
    invariant to how the budget was partitioned. Duplicate shard
    indices (e.g. a checkpoint plus a re-screened copy) collapse to one.
    Pairs are taken as ``screen_shard`` and the checkpoint loader build
    them, ``(int, float)`` tuples.
    """
    merged: dict[int, list[tuple[int, float]]] = {}
    seen: set[int] = set()
    for result in sorted(results, key=lambda r: r.start):
        if result.start in seen:
            continue
        seen.add(result.start)
        for event, pairs in result.screened.items():
            merged.setdefault(int(event), []).extend(pairs)
    # Gadget indices are unique per event, so ordering the tuples
    # orders them by index, as a keyed sort would.
    for pairs in merged.values():
        pairs.sort()
    return merged


def critical_path_seconds(cpu_seconds: Iterable[float], workers: int) -> float:
    """Screening makespan on ``workers`` truly parallel cores.

    Longest-processing-time assignment of per-shard CPU costs — the
    wall-clock a multi-core host would see, and the honest scaling
    metric on CI hosts with fewer cores than workers.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    loads = [0.0] * workers
    for cost in sorted(cpu_seconds, reverse=True):
        loads[loads.index(min(loads))] += cost
    return max(loads)


# -- checkpoint artifacts -------------------------------------------------


def config_fingerprint(config: ShardConfig, shard_size: int) -> str:
    """Stable digest tying checkpoints to one campaign configuration.

    The budget is left out: a shard's result depends only on the
    config, its start and its count (which the loader checks), so a
    larger budget reuses every full shard of a smaller run.
    """
    return config_digest({"config": asdict(config),
                          "shard_size": shard_size,
                          "version": CHECKPOINT_VERSION})


def shard_checkpoint_path(checkpoint_dir: "str | Path",
                          shard_index: int) -> Path:
    return Path(checkpoint_dir) / f"shard-{shard_index:05d}.json"


def _checkpoint_generation(path: Path) -> int:
    """The generation of the checkpoint currently at ``path`` (0 if none)."""
    try:
        return int(json.loads(path.read_text(encoding="utf-8"))
                   .get("generation", 1))
    except (OSError, ValueError, TypeError, AttributeError):
        return 0


def save_shard_checkpoint(checkpoint_dir: "str | Path", result: ShardResult,
                          fingerprint: str) -> Path:
    """Durably persist one shard's screening result as JSON.

    The write goes through the durable writer
    (:func:`~repro.fleet.statefile.write_text_atomic`), so a crash
    mid-write can never leave a torn primary; the previous generation
    is kept as ``.bak``, so even a checkpoint damaged *after* the
    rename (bit rot, a torn write the ``checkpoint.write`` fault point
    simulates) rolls back to the last-known-good generation on resume
    instead of losing the shard.
    """
    path = shard_checkpoint_path(checkpoint_dir, result.index)
    payload = {
        "version": CHECKPOINT_VERSION,
        "fingerprint": fingerprint,
        "generation": _checkpoint_generation(path) + 1,
        "index": result.index,
        "start": result.start,
        "count": result.count,
        "executions": result.executions,
        "elapsed_seconds": result.elapsed_seconds,
        "cpu_seconds": result.cpu_seconds,
        "screened": {str(event): [[i, d] for i, d in pairs]
                     for event, pairs in result.screened.items()},
    }
    body = json.dumps(payload)
    action = resilience.check("checkpoint.write", key=result.index)
    if action is not None and action.mode == "corrupt":
        body = corrupt_text(body, key=result.index)
    # Suppressed: no primary yet, or a campaign sharing the store
    # already moved it.
    with suppress(FileNotFoundError):
        os.replace(path, path.with_suffix(".json.bak"))
    return write_text_atomic(path, body)


def _parse_shard_checkpoint(path: Path, shard: ShardSpec,
                            fingerprint: str) -> ShardResult | None:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        if (payload["version"] != CHECKPOINT_VERSION
                or payload["fingerprint"] != fingerprint
                or payload["index"] != shard.index
                or payload["start"] != shard.start
                or payload["count"] != shard.count):
            return None
        screened = {
            int(event): [(int(i), float(d)) for i, d in pairs]
            for event, pairs in payload["screened"].items()}
        return ShardResult(index=shard.index, start=shard.start,
                           count=shard.count, screened=screened,
                           executions=int(payload["executions"]),
                           elapsed_seconds=float(payload["elapsed_seconds"]),
                           cpu_seconds=float(payload["cpu_seconds"]))
    except (OSError, ValueError, KeyError, TypeError):
        return None


def load_shard_checkpoint(checkpoint_dir: "str | Path", shard: ShardSpec,
                          fingerprint: str) -> ShardResult | None:
    """Load a shard checkpoint, or ``None`` if missing/corrupt/stale.

    An unusable primary — unreadable file, truncated JSON, a
    fingerprint from a different campaign configuration, mismatched
    shard geometry — rolls back to the ``.bak`` previous generation
    (checkpoints of one fingerprint are interchangeable: screening is
    deterministic). Only when both generations are unusable does the
    shard read as "not checkpointed" and get re-screened.
    """
    path = shard_checkpoint_path(checkpoint_dir, shard.index)
    result = _parse_shard_checkpoint(path, shard, fingerprint)
    if result is not None:
        return result
    backup = _parse_shard_checkpoint(path.with_suffix(".json.bak"), shard,
                                     fingerprint)
    if backup is not None:
        logger.warning("shard %05d checkpoint unusable; rolled back to "
                       "previous generation", shard.index)
        registry = telemetry.metrics()
        if registry.enabled:
            registry.counter("checkpoint.rollbacks").inc()
    return backup


def write_campaign_manifest(checkpoint_dir: "str | Path",
                            config: ShardConfig, budget: int,
                            shard_size: int, num_shards: int) -> Path:
    """Human-readable campaign descriptor next to the shard files."""
    payload = {
        "version": CHECKPOINT_VERSION,
        "fingerprint": config_fingerprint(config, shard_size),
        "budget": budget,
        "shard_size": shard_size,
        "num_shards": num_shards,
        "processor_model": config.processor_model,
        "microarch": config.microarch,
        "entropy": config.entropy,
        "events": list(config.event_indices),
    }
    return write_text_atomic(Path(checkpoint_dir) / "campaign.json",
                             json.dumps(payload, indent=2))


# -- the campaign engine --------------------------------------------------


@dataclass
class CampaignStats:
    """Bookkeeping from the most recent :meth:`FuzzingCampaign.run`."""

    num_shards: int = 0
    resumed_shards: int = 0
    screened_shards: int = 0
    workers: int = 1
    shard_cpu_seconds: list[float] = field(default_factory=list)
    screening_wall_seconds: float = 0.0
    # -- resilience accounting (zero on a healthy run) -----------------
    shard_failures: list[ShardFailure] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    bisections: int = 0
    pool_restarts: int = 0
    #: The final failure of each gadget left out of the report.
    quarantined: list[ShardFailure] = field(default_factory=list)

    @property
    def quarantined_gadgets(self) -> list[int]:
        """Gadget indices excluded from the report by quarantine."""
        return [failure.shard_start for failure in self.quarantined]

    def critical_path(self, workers: int | None = None) -> float:
        return critical_path_seconds(self.shard_cpu_seconds,
                                     workers or self.workers)


class FuzzingCampaign:
    """Runs an :class:`EventFuzzer` budget as a sharded campaign.

    Parameters
    ----------
    fuzzer:
        The configured fuzzer whose budget, RNG streams, and
        confirmation/filtering stages the campaign drives.
    workers:
        Worker processes for the screening stage. ``1`` screens shards
        in-process; either way the report is identical for a fixed
        fuzzer seed.
    checkpoint_dir:
        Directory for per-shard JSON checkpoints (created on demand).
        ``None`` disables checkpointing.
    resume:
        Load valid shard checkpoints from ``checkpoint_dir`` instead of
        re-screening them. Requires ``checkpoint_dir``.
    cache_dir:
        Directory of the shard store shared across campaigns: exactly
        ``checkpoint_dir=cache_dir/<fingerprint>, resume=True``, where
        the fingerprint covers the screening configuration and shard
        size but not the budget. A re-run screens nothing and reports
        bit-identically, a larger budget reuses every full shard of a
        smaller run, and any configuration change misses cleanly.
        Conflicts with ``checkpoint_dir``; grammar strategy only.
    shard_hook:
        Optional callback invoked with each freshly screened
        :class:`ShardResult` (after it is checkpointed) — progress
        reporting in the CLI, fault injection in the crash-resume tests.
    fault_plan:
        A :class:`~repro.resilience.faults.FaultPlan` to arm for the
        run (chaos testing): the campaign process arms it non-fatally
        and ships it to every shard worker, where ``kill``-mode faults
        may take the worker down.
    shard_timeout / max_retries:
        Shorthand for the matching
        :class:`~repro.resilience.supervisor.SupervisorPolicy` fields;
        ignored when an explicit ``supervisor_policy`` is given.
    supervisor_policy:
        Full retry/timeout/backoff policy for the shard supervisor.
    strategy:
        ``"grammar"`` (default) screens the budget by blind grammar
        sampling; ``"coverage"`` spends the same budget through the
        coverage-guided search loop (:mod:`repro.search`), feeding the
        responding gadgets into the identical confirmation/filtering
        stages.
    corpus_dir:
        Coverage strategy only: directory mirroring corpus admissions
        on disk (persistent across campaigns).
    """

    STRATEGIES = ("grammar", "coverage")

    def __init__(self, fuzzer: "EventFuzzer", workers: int = 1,
                 checkpoint_dir: "str | Path | None" = None,
                 resume: bool = False,
                 cache_dir: "str | Path | None" = None,
                 shard_hook: "Callable[[ShardResult], None] | None" = None,
                 fault_plan: "FaultPlan | None" = None,
                 shard_timeout: "float | None" = None,
                 max_retries: int = 2,
                 supervisor_policy: "SupervisorPolicy | None" = None,
                 strategy: str = "grammar",
                 corpus_dir: "str | Path | None" = None) -> None:
        if workers < 1:
            raise CampaignError(f"workers must be >= 1, got {workers}")
        if resume and checkpoint_dir is None:
            raise CampaignError("resume requires a checkpoint_dir")
        if strategy not in self.STRATEGIES:
            raise CampaignError(f"unknown strategy {strategy!r}; choose "
                                f"from {self.STRATEGIES}")
        if corpus_dir is not None and strategy != "coverage":
            raise CampaignError("corpus_dir requires strategy='coverage'")
        if cache_dir is not None and checkpoint_dir is not None:
            raise CampaignError("cache_dir conflicts with checkpoint_dir")
        if cache_dir is not None and strategy != "grammar":
            raise CampaignError("cache_dir requires strategy='grammar'")
        self.strategy = strategy
        self.corpus_dir = Path(corpus_dir) if corpus_dir is not None else None
        self.search_result = None
        self.fuzzer = fuzzer
        self.workers = workers
        self.checkpoint_dir = (Path(checkpoint_dir)
                               if checkpoint_dir is not None else None)
        self.resume = resume
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.shard_hook = shard_hook
        self.fault_plan = fault_plan
        if supervisor_policy is None:
            try:
                supervisor_policy = SupervisorPolicy(
                    shard_timeout=shard_timeout, max_retries=max_retries,
                    seed=fault_plan.seed if fault_plan is not None else 0)
            except ValueError as exc:
                raise CampaignError(str(exc)) from exc
        self.policy = supervisor_policy
        self.stats = CampaignStats()

    def run(self, event_indices: "np.ndarray | list[int]") -> "FuzzingReport":
        """Screen all shards (supervised, resumable), then confirm/filter.

        Completed shards are checkpointed as they finish, so an
        interrupted run loses at most the shards in flight; resuming
        re-screens only what is missing and yields the same report as
        an uninterrupted campaign. The screening fan-out runs under the
        shard supervisor: failed shards are retried with backoff,
        repeatedly lethal shards are bisected down to the offending
        gadget (quarantined rather than aborting the campaign), and a
        lost or hung worker costs only its own shard a retry.
        """
        events = np.asarray(event_indices, dtype=int)
        if len(events) == 0:
            raise ValueError("event_indices must be non-empty")
        needs_faults = (self.fault_plan is not None
                        and not resilience.armed())
        with (resilience.session(self.fault_plan) if needs_faults
              else nullcontext()):
            if self.strategy == "coverage":
                return self._run_coverage(events)
            return self._run(events)

    def _run_coverage(self, events: np.ndarray) -> "FuzzingReport":
        """Spend the budget through the coverage-guided search loop.

        The search's responding gadgets become the screened candidate
        pool the fuzzer's confirmation/filtering stages consume — the
        report has the same shape as a grammar campaign, with the
        search result kept on ``self.search_result``.
        """
        from repro.search.engine import CoverageSearch

        fuzzer = self.fuzzer
        step_seconds: dict[str, float] = {}
        tracer = telemetry.tracer()

        start = time.perf_counter()
        with tracer.span("fuzz.cleanup"):
            cleanup = fuzzer.run_cleanup()
        step_seconds["cleanup"] = time.perf_counter() - start

        search_checkpoint = (self.checkpoint_dir / "search"
                             if self.checkpoint_dir is not None else None)
        search = CoverageSearch(
            fuzzer.search_config(events),
            max_evals=fuzzer.gadget_budget,
            workers=self.workers,
            corpus_dir=self.corpus_dir,
            checkpoint_dir=search_checkpoint,
            resume=self.resume,
            fault_plan=self.fault_plan)

        start = time.perf_counter()
        with tracer.span("fuzz.screening", strategy="coverage"):
            result = search.run()
        step_seconds["generation_execution"] = time.perf_counter() - start
        self.search_result = result
        self.stats = CampaignStats(num_shards=result.rounds,
                                   screened_shards=result.rounds,
                                   workers=self.workers)

        registry = telemetry.metrics()
        if registry.enabled:
            registry.gauge("campaign.workers").set(self.workers)

        fuzzer.register_gadgets(result.gadgets)
        screened = {event: list(pairs)
                    for event, pairs in sorted(result.responders.items())}
        return fuzzer.finalize(cleanup, screened, events, step_seconds)

    def _run(self, events: np.ndarray) -> "FuzzingReport":
        fuzzer = self.fuzzer
        step_seconds: dict[str, float] = {}
        tracer = telemetry.tracer()
        trace_dir = telemetry.trace_dir()
        shard_trace_dir = str(trace_dir) if trace_dir is not None else None

        start = time.perf_counter()
        with tracer.span("fuzz.cleanup"):
            cleanup = fuzzer.run_cleanup()
        step_seconds["cleanup"] = time.perf_counter() - start

        config = fuzzer.shard_config(events)
        plan = plan_shards(fuzzer.gadget_budget, fuzzer.shard_size)
        fingerprint = config_fingerprint(config, fuzzer.shard_size)
        checkpoint_dir, resume = self.checkpoint_dir, self.resume
        if self.cache_dir is not None:
            checkpoint_dir, resume = self.cache_dir / fingerprint, True

        start = time.perf_counter()
        # Results are keyed by shard *start* (unique even for bisected
        # sub-shards, whose synthetic index is -1).
        results: dict[int, ShardResult] = {}
        if resume:
            for shard in plan:
                loaded = load_shard_checkpoint(checkpoint_dir, shard,
                                               fingerprint)
                if loaded is not None:
                    results[shard.start] = loaded
        resumed_starts = set(results)
        resumed = len(resumed_starts)
        pending = [shard for shard in plan if shard.start not in results]
        logger.debug("campaign: %d shards planned, %d resumed, "
                     "%d pending on %d worker(s)", len(plan), resumed,
                     len(pending), self.workers)
        if checkpoint_dir is not None:
            write_campaign_manifest(checkpoint_dir, config,
                                    fuzzer.gadget_budget, fuzzer.shard_size,
                                    len(plan))

        def shard_args(shard: ShardSpec, attempt: int,
                       sacrificial: bool) -> tuple:
            # Bisected sub-shards (index < 0) get their own telemetry.
            label = (f"shard-{shard.index:05d}" if shard.index >= 0
                     else f"shard-sub-{shard.start:06d}")
            return (screen_shard, (config, shard), "campaign.shard",
                    shard.start, label, attempt, sacrificial,
                    self.fault_plan, shard_trace_dir,
                    (shard.start, shard.stop))

        quarantined: list[ShardFailure] = []

        def quarantine(failure: ShardFailure) -> ShardResult:
            quarantined.append(failure)
            registry = telemetry.metrics()
            if registry.enabled:
                registry.counter("fault.quarantined").inc()
            logger.error(
                "gadget %d quarantined after %d failed attempts (%s); "
                "continuing without it", failure.shard_start,
                failure.attempt + 1, failure.detail)
            return ShardResult(
                index=-1, start=failure.shard_start,
                count=failure.shard_count,
                screened={int(e): [] for e in config.event_indices})

        workers = min(self.workers, max(1, len(pending)))
        supervisor = ShardSupervisor(
            fn=run_task, args=shard_args,
            on_result=lambda result: self._complete(
                result, checkpoint_dir, fingerprint, results),
            empty_result=quarantine, policy=self.policy, workers=workers)
        with tracer.span("fuzz.screening", shards=len(plan),
                         resumed=resumed), supervisor:
            supervised = supervisor.run(pending, processes=workers > 1)
        step_seconds["generation_execution"] = time.perf_counter() - start

        registry = telemetry.metrics()
        if registry.enabled:
            registry.counter("campaign.shards_total").inc(len(plan))
            registry.counter("campaign.shards_resumed").inc(resumed)
            registry.counter("campaign.shards_screened").inc(len(pending))
            registry.gauge("campaign.workers").set(self.workers)
            if self.cache_dir is not None:
                # Counted in gadgets: a reused shard's are all hits.
                misses = sum(shard.count for shard in pending)
                registry.counter("cache.hits").inc(
                    fuzzer.gadget_budget - misses)
                registry.counter("cache.misses").inc(misses)

        self.stats = CampaignStats(
            num_shards=len(plan), resumed_shards=resumed,
            screened_shards=len(plan) - resumed, workers=self.workers,
            # Only shards screened here: a reused shard carries the CPU
            # time of the run that filled it.
            shard_cpu_seconds=[results[key].cpu_seconds
                               for key in sorted(results)
                               if key not in resumed_starts],
            screening_wall_seconds=step_seconds["generation_execution"],
            shard_failures=list(supervised.failures),
            retries=supervised.retries,
            timeouts=supervised.timeouts,
            bisections=supervised.bisections,
            pool_restarts=supervised.pool_restarts,
            quarantined=quarantined)
        merged = merge_screened(results.values())
        return fuzzer.finalize(cleanup, merged, events, step_seconds)

    def _complete(self, result: ShardResult,
                  checkpoint_dir: "Path | None", fingerprint: str,
                  results: dict[int, ShardResult]) -> None:
        results[result.start] = result
        logger.debug("shard @%d screened: %d gadgets in %.3fs "
                     "(%.3fs cpu)", result.start, result.count,
                     result.elapsed_seconds, result.cpu_seconds)
        # Bisected sub-shards (index < 0) stay in memory only: their
        # geometry does not match the plan, so a checkpoint would never
        # load — the parent shard simply re-screens on resume.
        if checkpoint_dir is not None and result.index >= 0:
            save_shard_checkpoint(checkpoint_dir, result, fingerprint)
        if self.shard_hook is not None:
            self.shard_hook(result)
