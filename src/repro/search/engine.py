"""The coverage-guided search loop: plan, evaluate, reduce, repeat.

Structure mirrors the sharded screening campaign: each round plans a
batch of *evaluation tasks* (grammar samples for exploration, mutants
of scheduled corpus seeds for exploitation), evaluates them in
equal-size chunks through the campaign's shard supervisor — in-process
or on one worker pool per search, with identical chunk boundaries
either way — and reduces the outcomes sequentially in plan order.
Measurements go through the campaign's screening kernel; the search
adds its name index, mutator and coverage extractor
(:func:`search_evaluator`), built before the pool forks, so workers
inherit the extractor's feature-id tables.  A chunk measures all of its
tasks, then reduces the measurements to coverage in one
:meth:`~repro.search.coverage.CoverageExtractor.extract_many` call;
minimization trials make the same call with one row.  Every random
draw comes from a ``derive_stream`` leaf keyed on stable labels, and
the reduction is a pure fold over outcomes sorted by evaluation index,
so the corpus, coverage map, and responder pool are bit-identical for
any worker count.  Grammar-sample tasks reuse the exact per-gadget
streams of screening (``gadget_stream``).  One batch-engine memo serves
the whole search: every chunk of a round starts from the snapshot the
parent held when the round began, and the parent merges what the
chunks and its own minimizations learn before it plans the next round,
so each gadget shape runs the scalar interpreter about once per search
and the ``batch.*`` counters stay a function of the plan.  A lost
worker fails only the chunk it was running (``worker-lost``): that
chunk is retried on a freshly forked replacement worker while the
other chunks keep running, and a chunk that fails every retry raises
:class:`SearchError` before its round is reduced or checkpointed.

Checkpoints (one JSON statefile per round, written atomically) carry
the whole search state — coverage map, scheduler energies, corpus
entries, responder pool — so a killed search resumes into the same
trajectory it would have taken uninterrupted.
"""

from __future__ import annotations

import logging
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.core.fuzzer.campaign import ShardConfig, screening_kernel
from repro.core.fuzzer.grammar import Gadget
from repro.cpu import batch
from repro.fleet.statefile import read_json, write_json_atomic
from repro.resilience import runtime as resilience
from repro.resilience.supervisor import (ShardFailure, ShardSpec,
                                         ShardSupervisor, SupervisorPolicy,
                                         run_task)
from repro.search.corpus import (Corpus, CorpusEntry, build_name_index,
                                 gadget_digest)
from repro.search.coverage import CoverageExtractor, CoverageMap
from repro.search.mutators import GadgetMutator
from repro.search.scheduler import FrontierScheduler
from repro.telemetry import runtime as telemetry
from repro.utils.digest import config_digest
from repro.utils.rng import derive_stream

logger = logging.getLogger(__name__)

#: Search checkpoint schema version.
SEARCH_CHECKPOINT_VERSION = 1

#: Upper bound on evaluations per worker chunk.  Purely an execution
#: granularity — chunk boundaries are a function of the round plan,
#: never of the worker count, so results are chunk-partition-invariant
#: by the same argument as shard partitioning.
DEFAULT_CHUNK_SIZE = 64

#: Statefile name inside the checkpoint directory.
SEARCH_STATE_FILE = "search-state.json"


class SearchError(ValueError):
    """Invalid search configuration or unusable checkpoint state."""


@dataclass(frozen=True)
class SearchConfig(ShardConfig):
    """A :class:`ShardConfig` plus the search's own fields, so sample
    tasks reproduce screening bit for bit."""

    max_sequence_length: int = 3
    bootstrap: int = 64
    parents_per_round: int = 8
    children_per_parent: int = 8
    explore_fraction: float = 0.25
    probes_per_round: int = 16
    chunk_size: int = DEFAULT_CHUNK_SIZE


@dataclass(frozen=True)
class SearchTask:
    """One planned evaluation.

    ``sample`` draws from the grammar under blind screening's exact
    per-gadget stream; ``mutate`` applies one seeded mutation to the
    parent carried in ``parent_reset``/``parent_trigger``; ``probe``
    evaluates the literal gadget in those fields — the directed sweep
    of instructions the search has not tried yet.
    """

    eval_index: int
    kind: str  # "sample" | "mutate" | "probe"
    round_index: int
    sample_index: int = 0
    parent_digest: str = ""
    parent_reset: tuple[str, ...] = ()
    parent_trigger: tuple[str, ...] = ()
    child: int = 0


@dataclass(frozen=True)
class SearchOutcome:
    """One evaluated task: the gadget (by names) and its coverage."""

    eval_index: int
    kind: str
    parent_digest: str
    reset: tuple[str, ...]
    trigger: tuple[str, ...]
    digest: str
    features: tuple[int, ...]
    responses: tuple[tuple[int, float], ...]
    near: tuple[int, ...]


def mutation_stream(entropy: int, round_index: int, parent_digest: str,
                    child: int) -> np.random.Generator:
    """The RNG leaf owned by one (round, parent, child) mutation."""
    return derive_stream(entropy, "mutate", round_index, parent_digest,
                         child)


def chunk_bounds(count: int, chunk_size: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of ⌈count / chunk_size⌉ near-equal chunks.

    Sizes differ by at most one, larger chunks first (100 tasks at
    ``chunk_size`` 64 split 50+50, not 64+36), so a round's chunks
    finish together on a pool.  A function of the plan alone.
    """
    if count <= 0:
        return []
    chunks = -(-count // chunk_size)
    base, extra = divmod(count, chunks)
    bounds = []
    start = 0
    for index in range(chunks):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


class SearchEvaluator:
    """What the search adds to the process's screening kernel: the name
    index, the mutator and the coverage extractor."""

    def __init__(self, config: SearchConfig) -> None:
        self.config = config
        self.kernel = kernel = screening_kernel(config)
        self.by_name = build_name_index(kernel.legal)
        #: The legal instruction names in order: a cold-pool mask holds
        #: one bit per name.
        self.sorted_names = tuple(sorted(self.by_name))
        self.mutator = GadgetMutator(
            kernel.legal, max_sequence_length=config.max_sequence_length)
        self.extractor = CoverageExtractor(kernel.core.catalog,
                                           config.event_indices,
                                           config.thresholds)

    def gadget(self, reset, trigger) -> Gadget:
        """The gadget named by variant-name sequences."""
        by_name = self.by_name
        return Gadget(reset=tuple(by_name[n] for n in reset),
                      trigger=tuple(by_name[n] for n in trigger))

    def cold_mask(self, tried) -> np.ndarray:
        """The cold pool, every legal instruction not in ``tried``, as
        one bit per :attr:`sorted_names` entry (``np.packbits``)."""
        return np.packbits(np.array(
            [name not in tried for name in self.sorted_names], dtype=bool))

    def cold_specs(self, mask) -> tuple:
        """The specs a :meth:`cold_mask` names, in name order."""
        names, by_name = self.sorted_names, self.by_name
        bits = np.unpackbits(np.asarray(mask, dtype=np.uint8),
                             count=len(names))
        return tuple(by_name[names[i]] for i in np.flatnonzero(bits).tolist())

    def measure(self, gadget: Gadget, stream):
        """Coverage of one screening measurement from the reset state:
        a one-row :meth:`CoverageExtractor.extract_many` call."""
        measured = self.kernel.measure(gadget, stream)
        return self.extractor.extract_many([measured.signals],
                                           [measured.deltas])[0]

    def evaluate(self, tasks, cold=(), memo=None) -> "tuple[list, dict]":
        """Evaluate one chunk of search tasks under a round's memo.

        Mirrors ``screen_shard``'s per-gadget discipline: each task gets
        its own RNG stream, a reset-then-warmed core, and a batched
        screening measurement, so the outcomes are a pure function of
        (tasks, cold), whichever process evaluates the chunk; ``cold``
        is the round's :meth:`cold_mask`, which only ``mutate`` tasks
        read.  The batch engine's archetype memo starts as ``memo``, the
        round-start snapshot the search ships with every chunk of a
        round, so the ``batch.*`` counters and the entries learned are a
        pure function of (tasks, cold, memo).  The chunk's tasks are
        measured in plan order first; one
        :meth:`CoverageExtractor.extract_many` call then turns all of
        their measurements into coverage.  Returns the outcomes and the
        memo entries the chunk learned.
        """
        config = self.config
        memo = memo or {}
        batch.seed_memo(memo)
        cold_specs = self.cold_specs(cold)
        gadgets, measured = [], []
        for task in tasks:
            if task.kind == "sample":
                gadget, stream = self.kernel.sample(task.sample_index)
            elif task.kind == "probe":
                gadget = self.gadget(task.parent_reset, task.parent_trigger)
                stream = derive_stream(config.entropy, "probe",
                                       task.parent_trigger[0])
            else:
                parent = self.gadget(task.parent_reset, task.parent_trigger)
                stream = mutation_stream(config.entropy, task.round_index,
                                         task.parent_digest, task.child)
                gadget = self.mutator.mutate(parent, stream,
                                             cold=cold_specs)
            gadgets.append(gadget)
            measured.append(self.kernel.measure(gadget, stream))
        samples = self.extractor.extract_many(
            [m.signals for m in measured], [m.deltas for m in measured])
        outcomes = []
        for task, gadget, sample in zip(tasks, gadgets, samples):
            reset = tuple(s.name for s in gadget.reset)
            trigger = tuple(s.name for s in gadget.trigger)
            outcomes.append(SearchOutcome(
                eval_index=task.eval_index, kind=task.kind,
                parent_digest=task.parent_digest, reset=reset,
                trigger=trigger, digest=gadget_digest(reset, trigger),
                features=sample.features, responses=sample.responses,
                near=sample.near))
        learned = {key: value for key, value in batch.memo_entries().items()
                   if key not in memo}
        return outcomes, learned


#: One-entry process cache, like the screening kernel's: pool workers
#: forked after the parent built it inherit a ready evaluator.
_EVALUATOR: "SearchEvaluator | None" = None


def search_evaluator(config: SearchConfig) -> SearchEvaluator:
    """This process's evaluator for ``config`` (built on first use)."""
    global _EVALUATOR
    if _EVALUATOR is None or _EVALUATOR.config != config:
        _EVALUATOR = SearchEvaluator(config)
    return _EVALUATOR


def evaluate_search_chunk(config: SearchConfig, tasks, cold=(),
                          memo=None) -> "tuple[list, dict]":
    """Evaluate one chunk of search tasks: its outcomes and learned memo
    entries.  Pure in (config, tasks, cold, memo)."""
    return search_evaluator(config).evaluate(tasks, cold, memo)


def evals_to_cover(first_cover: dict, count: int) -> "int | None":
    """Evaluations spent when the ``count``-th event was first covered.

    ``first_cover`` maps event index to the cumulative evaluation count
    at its first threshold crossing.  Returns ``None`` if fewer than
    ``count`` events were ever covered.
    """
    if count <= 0:
        return 0
    marks = sorted(first_cover.values())
    if len(marks) < count:
        return None
    return int(marks[count - 1])


@dataclass
class SearchResult:
    """Everything one coverage-guided search produced."""

    evals: int
    rounds: int
    covered_events: tuple[int, ...]
    first_cover: dict[int, int]
    responders: dict[int, list[tuple[int, float]]]
    gadgets: dict[int, Gadget]
    corpus_size: int
    corpus_replay_digest: str
    coverage_digest: str
    coverage_features: int
    minimize_evals: int = 0
    corpus_misses: int = 0
    elapsed_seconds: float = 0.0

    @property
    def covered_count(self) -> int:
        return len(self.covered_events)

    def evals_to_cover(self, count: int) -> "int | None":
        return evals_to_cover(self.first_cover, count)


class CoverageSearch:
    """Drives the coverage-guided search loop.

    Parameters
    ----------
    config:
        The plain-type search configuration workers receive.
    max_evals:
        Evaluation budget (counts bootstrap samples, mutants, explore
        samples, and minimization measurements alike — the same unit
        blind sampling spends).
    workers:
        Worker processes for chunk evaluation (1 = in-process).
    corpus_dir:
        Optional directory mirroring corpus admissions on disk.
    checkpoint_dir / resume:
        Round-granular checkpointing; a resumed search continues the
        exact trajectory of the interrupted one.
    target_events:
        Optional early stop once this many catalog events are covered.
    minimize:
        Greedy one-pass seed minimization at admission time (drops
        instructions that don't contribute the admitted coverage).
    fault_plan:
        Optional chaos plan armed for the search and shipped to chunks.
    """

    def __init__(self, config: SearchConfig, max_evals: int,
                 workers: int = 1,
                 corpus_dir: "str | Path | None" = None,
                 checkpoint_dir: "str | Path | None" = None,
                 resume: bool = False,
                 target_events: "int | None" = None,
                 minimize: bool = True,
                 fault_plan=None) -> None:
        if max_evals < 1:
            raise SearchError(f"max_evals must be >= 1, got {max_evals}")
        if workers < 1:
            raise SearchError(f"workers must be >= 1, got {workers}")
        if config.chunk_size < 1:
            raise SearchError(
                f"chunk_size must be >= 1, got {config.chunk_size}")
        self.config = config
        self.max_evals = max_evals
        self.workers = workers
        self.corpus_dir = Path(corpus_dir) if corpus_dir else None
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.resume = resume
        self.target_events = target_events
        self.minimize = minimize
        self.fault_plan = fault_plan

        self.corpus = Corpus(self.corpus_dir)
        self.coverage = CoverageMap()
        self.scheduler = FrontierScheduler()
        self.responders: dict[int, list[tuple[int, float]]] = {}
        self.first_cover: dict[int, int] = {}
        self.gadgets: dict[int, Gadget] = {}
        self._gadget_names: dict[int, tuple[tuple, tuple]] = {}
        self._tried: set[str] = set()
        self._round_parents: tuple[str, ...] = ()
        self._eval_cursor = 0
        self._sample_cursor = 0
        self._round = 0
        self.minimize_evals = 0

        self._evaluator: "SearchEvaluator | None" = None
        self._probe_queue: "tuple[str, ...] | None" = None
        self._probe_cursor = 0
        # The search's screening memo (not checkpointed: a resumed
        # search re-learns shapes, with the same results).
        self._memo: dict = {}
        self._round_plan: "tuple[list, tuple, dict]" = ([], (), {})
        self._outcomes: list = []

    # -- deterministic identity ----------------------------------------

    def fingerprint(self) -> str:
        """Digest tying checkpoints to one search configuration."""
        return config_digest({"config": asdict(self.config),
                              "max_evals": self.max_evals,
                              "version": SEARCH_CHECKPOINT_VERSION})

    # -- lazy parent-side evaluation machinery -------------------------

    def _ensure_local(self) -> SearchEvaluator:
        if self._evaluator is not None:
            return self._evaluator
        self._evaluator = evaluator = search_evaluator(self.config)
        # Probe order: rarest instruction class first.  Blind sampling
        # is a coupon collector over ~3.4k variants — events gated on a
        # 10-instruction class (prefetch, clflush) take thousands of
        # draws to reach by chance; the directed sweep reaches every
        # member of the small classes within the first few rounds.
        legal = evaluator.kernel.legal
        class_sizes: dict = {}
        for spec in legal:
            class_sizes[spec.iclass] = class_sizes.get(spec.iclass, 0) + 1
        self._probe_queue = tuple(spec.name for spec in sorted(
            legal,
            key=lambda s: (class_sizes[s.iclass], s.iclass.value, s.name)))
        return evaluator

    # -- planning ------------------------------------------------------

    def _plan_round(self, remaining: int) -> "tuple[list, np.ndarray]":
        """Plan one round of tasks plus the round's cold-instruction pool
        (as a :meth:`SearchEvaluator.cold_mask`)."""
        cold = self._ensure_local().cold_mask(self._tried)
        tasks: list[SearchTask] = []

        def sample_task() -> SearchTask:
            task = SearchTask(eval_index=self._eval_cursor + len(tasks),
                              kind="sample", round_index=self._round,
                              sample_index=self._sample_cursor)
            self._sample_cursor += 1
            return task

        def probe_tasks() -> None:
            count = 0
            while (self._probe_cursor < len(self._probe_queue)
                   and count < self.config.probes_per_round):
                name = self._probe_queue[self._probe_cursor]
                self._probe_cursor += 1
                if name in self._tried:
                    continue
                # Probes amplify: max_sequence_length copies of the
                # instruction roughly multiply its per-iteration delta,
                # so any event the instruction perturbs at all tends to
                # cross its screening threshold in the probe itself.
                repeat = (name,) * self.config.max_sequence_length
                tasks.append(SearchTask(
                    eval_index=self._eval_cursor + len(tasks),
                    kind="probe", round_index=self._round,
                    parent_reset=(), parent_trigger=repeat))
                count += 1

        if not self.scheduler.seeds:
            for _ in range(min(remaining, self.config.bootstrap)):
                tasks.append(sample_task())
            probe_tasks()
            return tasks[:remaining], cold

        uncovered = tuple(e for e in self.config.event_indices
                          if e not in self.first_cover)
        parents = self.scheduler.select(self.config.parents_per_round,
                                        self.coverage, uncovered)
        self._round_parents = tuple(p.digest for p in parents)
        for parent in parents:
            entry = self.corpus.entries[parent.digest]
            for child in range(self.config.children_per_parent):
                tasks.append(SearchTask(
                    eval_index=self._eval_cursor + len(tasks),
                    kind="mutate", round_index=self._round,
                    parent_digest=parent.digest,
                    parent_reset=entry.reset,
                    parent_trigger=entry.trigger,
                    child=child))
        probe_tasks()
        explore = max(1, int(self.config.explore_fraction
                             * max(1, len(tasks))))
        for _ in range(explore):
            tasks.append(sample_task())
        if len(tasks) > remaining:
            dropped = tasks[remaining:]
            self._sample_cursor -= sum(1 for t in dropped
                                       if t.kind == "sample")
            tasks = tasks[:remaining]
        return tasks, cold

    # -- evaluation ----------------------------------------------------

    def _chunk_args(self, chunk: ShardSpec, attempt: int,
                    sacrificial: bool) -> tuple:
        """The supervised task for a chunk (a slice of the round's plan,
        by evaluation index) of the current round, with the round-start
        memo snapshot whichever attempt or process runs it."""
        tasks, cold, memo = self._round_plan
        offset = chunk.start - tasks[0].eval_index
        label = (f"search-{self._round:04d}-{chunk.index:03d}"
                 if chunk.index >= 0
                 else f"search-{self._round:04d}-sub-{chunk.start:06d}")
        trace_dir = telemetry.trace_dir()
        return (evaluate_search_chunk,
                (self.config, tasks[offset:offset + chunk.count], cold,
                 memo),
                "search.chunk", chunk.start, label, attempt, sacrificial,
                self.fault_plan,
                str(trace_dir) if trace_dir is not None else None)

    def _chunk_lost(self, failure: ShardFailure):
        # Never quarantine: a dropped evaluation changes the trajectory.
        raise SearchError(f"round {self._round}: evaluation "
                          f"{failure.shard_start} failed every retry; "
                          f"not checkpointed")

    def _chunk_done(self, result) -> None:
        """Collect a chunk's outcomes and merge the memo entries it
        learned (a memo value is a pure function of its key, so the
        order chunks finish in changes nothing)."""
        outcomes, learned = result
        self._outcomes.extend(outcomes)
        self._memo.update(learned)

    def _evaluate(self, tasks, cold, supervisor: ShardSupervisor) -> list:
        """Evaluate one round's plan in supervised chunks, in plan order."""
        # A copy: ``_chunk_done`` merges into ``_memo`` while chunks of
        # this round are still to be submitted or retried.
        self._round_plan = (tasks, cold, dict(self._memo))
        first = tasks[0].eval_index
        chunks = [
            ShardSpec(index=index, start=first + start, count=stop - start)
            for index, (start, stop) in enumerate(
                chunk_bounds(len(tasks), self.config.chunk_size))]
        supervisor.run(chunks, processes=self.workers > 1 and len(chunks) > 1)
        evaluated = sorted(self._outcomes, key=lambda o: o.eval_index)
        self._outcomes.clear()
        return evaluated

    # -- reduction -----------------------------------------------------

    def _minimize_entry(self, gadget: Gadget, required: set
                        ) -> "tuple[Gadget, object] | None":
        """Greedy one-pass minimization preserving the admitted features.

        Tries dropping each instruction once (front to back, reset
        first); a drop survives if the trimmed gadget still produces
        every feature in ``required``.  Returns the trimmed gadget and
        its coverage sample, or ``None`` if nothing could be dropped.
        """
        measure = self._ensure_local().measure
        trimmed = gadget
        best_sample = None
        trial = 0
        changed = True
        while changed and trimmed.instruction_count > 2:
            changed = False
            sequences = (list(trimmed.reset), list(trimmed.trigger))
            for side in (0, 1):
                seq = sequences[side]
                limit = len(seq) if side == 0 else len(seq) - 1
                for position in range(limit):
                    candidate_sides = (sequences[0][:], sequences[1][:])
                    del candidate_sides[side][position]
                    candidate = Gadget(reset=tuple(candidate_sides[0]),
                                       trigger=tuple(candidate_sides[1]))
                    names = (tuple(s.name for s in candidate.reset),
                             tuple(s.name for s in candidate.trigger))
                    stream = derive_stream(
                        self.config.entropy, "minimize",
                        gadget_digest(names[0], names[1]), trial)
                    trial += 1
                    sample = measure(candidate, stream)
                    self._eval_cursor += 1
                    self.minimize_evals += 1
                    if required <= set(sample.features):
                        trimmed = candidate
                        best_sample = sample
                        sequences = (list(trimmed.reset),
                                     list(trimmed.trigger))
                        changed = True
                        break
                if changed:
                    break
        if best_sample is None:
            return None
        return trimmed, best_sample

    def _reduce(self, outcomes) -> None:
        # The round's minimizations measure against the round-start memo
        # plus every entry its chunks learned, a set fixed by the plan,
        # and what they learn is carried into the next round.
        batch.seed_memo(self._memo)
        admitted_by_parent: dict[str, int] = {}
        for outcome in outcomes:
            self._tried.update(outcome.reset)
            self._tried.update(outcome.trigger)
            for event, delta in outcome.responses:
                self.responders.setdefault(event, []).append(
                    (outcome.eval_index, delta))
                if event not in self.first_cover:
                    self.first_cover[event] = outcome.eval_index + 1
            if outcome.responses:
                self._register_gadget(outcome)
            new = self.coverage.new_features(outcome.features)
            if not new or outcome.digest in self.corpus:
                continue
            reset, trigger = outcome.reset, outcome.trigger
            features = outcome.features
            responses = outcome.responses
            near = outcome.near
            if (self.minimize and outcome.kind == "mutate"
                    and len(reset) + len(trigger) > 2):
                gadget = self._ensure_local().gadget(reset, trigger)
                shrunk = self._minimize_entry(gadget, set(new))
                if shrunk is not None:
                    gadget, sample = shrunk
                    reset = tuple(s.name for s in gadget.reset)
                    trigger = tuple(s.name for s in gadget.trigger)
                    features = sample.features
                    responses = sample.responses
                    near = sample.near
            digest = gadget_digest(reset, trigger)
            if digest in self.corpus:
                continue
            entry = CorpusEntry(digest=digest, reset=reset, trigger=trigger,
                                features=features, responses=responses,
                                near=near, parent=outcome.parent_digest,
                                round_index=self._round,
                                eval_index=outcome.eval_index)
            self.coverage.observe(features)
            self.corpus.add(entry)
            self.scheduler.admit(digest, features, near,
                                 new_features=len(new))
            if outcome.parent_digest:
                admitted_by_parent[outcome.parent_digest] = (
                    admitted_by_parent.get(outcome.parent_digest, 0) + 1)
        for parent_digest in self._round_parents:
            self.scheduler.credit(parent_digest,
                                  admitted_by_parent.get(parent_digest, 0))
        self._round_parents = ()
        self._memo = batch.memo_entries()

    def _register_gadget(self, outcome) -> None:
        """Record a responding gadget for confirmation-stage replay."""
        if outcome.eval_index in self.gadgets:
            return
        self._gadget_names[outcome.eval_index] = (outcome.reset,
                                                  outcome.trigger)
        self.gadgets[outcome.eval_index] = self._ensure_local().gadget(
            outcome.reset, outcome.trigger)

    # -- checkpointing -------------------------------------------------

    def _state_path(self) -> "Path | None":
        if self.checkpoint_dir is None:
            return None
        return self.checkpoint_dir / SEARCH_STATE_FILE

    def _save_checkpoint(self) -> None:
        path = self._state_path()
        if path is None:
            return
        payload = {
            "version": SEARCH_CHECKPOINT_VERSION,
            "fingerprint": self.fingerprint(),
            "round": self._round,
            "eval_cursor": self._eval_cursor,
            "sample_cursor": self._sample_cursor,
            "probe_cursor": self._probe_cursor,
            "minimize_evals": self.minimize_evals,
            "tried": sorted(self._tried),
            "first_cover": {str(e): n
                            for e, n in sorted(self.first_cover.items())},
            "responders": {str(e): [[i, d] for i, d in pairs]
                           for e, pairs in sorted(self.responders.items())},
            "gadget_names": {str(i): [list(r), list(t)]
                             for i, (r, t)
                             in sorted(self._gadget_names.items())},
            "coverage": self.coverage.to_payload(),
            "scheduler": self.scheduler.to_payload(),
            "corpus": self.corpus.to_payload(),
        }
        write_json_atomic(path, payload)

    def _load_checkpoint(self) -> bool:
        path = self._state_path()
        if path is None or not path.exists():
            return False
        try:
            payload = read_json(path)
        except (OSError, ValueError):
            logger.warning("unreadable search checkpoint at %s; "
                           "starting fresh", path)
            return False
        if payload.get("fingerprint") != self.fingerprint():
            raise SearchError(
                f"checkpoint at {path} belongs to a different search "
                f"configuration; use a fresh --checkpoint-dir or delete it")
        self._round = int(payload["round"])
        self._eval_cursor = int(payload["eval_cursor"])
        self._sample_cursor = int(payload["sample_cursor"])
        self._probe_cursor = int(payload.get("probe_cursor", 0))
        self.minimize_evals = int(payload.get("minimize_evals", 0))
        self._tried = set(payload.get("tried", ()))
        self.first_cover = {int(e): int(n)
                            for e, n in payload["first_cover"].items()}
        self.responders = {int(e): [(int(i), float(d)) for i, d in pairs]
                           for e, pairs in payload["responders"].items()}
        self.coverage = CoverageMap.from_payload(payload["coverage"])
        self.scheduler = FrontierScheduler()
        self.scheduler.restore(payload["scheduler"])
        restored = Corpus.from_payload(payload["corpus"])
        self.corpus.entries = restored.entries
        evaluator = self._ensure_local()
        for raw_index, (reset, trigger) in payload["gadget_names"].items():
            index = int(raw_index)
            names = (tuple(reset), tuple(trigger))
            self._gadget_names[index] = names
            self.gadgets[index] = evaluator.gadget(*names)
        # Count (and skip) damaged on-disk corpus entries: a torn entry
        # is a miss, never a crash.
        self.corpus.load()
        return True

    # -- the loop ------------------------------------------------------

    def _target_reached(self) -> bool:
        return (self.target_events is not None
                and len(self.first_cover) >= self.target_events)

    def run(self) -> SearchResult:
        """Run (or resume) the search to budget/target exhaustion."""
        needs_faults = (self.fault_plan is not None
                        and not resilience.armed())
        with (resilience.session(self.fault_plan)
              if needs_faults else nullcontext()):
            return self._run()

    def _run(self) -> SearchResult:
        started = time.perf_counter()
        if self.resume:
            self._load_checkpoint()
        registry = telemetry.metrics()
        # Built before the pool forks, so workers inherit it.
        self._ensure_local()
        supervisor = ShardSupervisor(
            fn=run_task, args=self._chunk_args, on_result=self._chunk_done,
            empty_result=self._chunk_lost,
            policy=SupervisorPolicy(seed=self.fault_plan.seed
                                    if self.fault_plan is not None else 0),
            workers=self.workers)
        with supervisor, telemetry.tracer().span("search.run",
                                                 max_evals=self.max_evals,
                                                 workers=self.workers):
            while (self._eval_cursor < self.max_evals
                   and not self._target_reached()):
                remaining = self.max_evals - self._eval_cursor
                tasks, cold = self._plan_round(remaining)
                if not tasks:
                    break
                self._eval_cursor += len(tasks)
                self._reduce(self._evaluate(tasks, cold, supervisor))
                self._round += 1
                if registry.enabled:
                    registry.counter("search.evals").inc(len(tasks))
                    registry.counter("search.rounds").inc()
                    registry.gauge("search.covered_events").set(
                        len(self.first_cover))
                    registry.gauge("search.corpus.size").set(
                        len(self.corpus))
                self._save_checkpoint()
        return SearchResult(
            evals=self._eval_cursor,
            rounds=self._round,
            covered_events=tuple(sorted(self.first_cover)),
            first_cover=dict(self.first_cover),
            responders={e: list(pairs)
                        for e, pairs in self.responders.items()},
            gadgets=dict(self.gadgets),
            corpus_size=len(self.corpus),
            corpus_replay_digest=self.corpus.replay_digest(),
            coverage_digest=self.coverage.digest(),
            coverage_features=len(self.coverage),
            minimize_evals=self.minimize_evals,
            corpus_misses=self.corpus.misses,
            elapsed_seconds=time.perf_counter() - started,
        )

