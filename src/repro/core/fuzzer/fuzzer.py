"""The Event Fuzzer orchestrator (paper Fig. 5).

Pipeline: (1) instruction cleanup, (2) gadget generation + execution
with screening over every profiled event, (3) confirmation of the
strongest candidates (multiple executions, repeated triggers,
reordering), (4) filtering (clustering, best gadget, covering set).
Per-step wall-clock times are recorded — the paper's Table III shows
generation + execution dominating, which holds here too.

Screening is built from the shard-sized pure stages of
:mod:`repro.core.fuzzer.campaign`: :meth:`EventFuzzer.fuzz` is a
1-worker :class:`FuzzingCampaign`, which screens the same shards across
worker processes with checkpoint/resume — reports are identical for the
same seed at any worker count.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.fuzzer.campaign import (
    DEFAULT_SHARD_SIZE,
    FuzzingCampaign,
    ShardConfig,
    default_cleanup,
    gadget_stream,
)
from repro.core.fuzzer.cleanup import CleanupReport
from repro.core.fuzzer.confirm import ConfirmationResult, GadgetConfirmer
from repro.core.fuzzer.filtering import GadgetFilter, minimal_covering_set
from repro.core.fuzzer.generator import ExecutionHarness
from repro.core.fuzzer.grammar import (
    DEFAULT_EMPTY_RESET_PROB,
    DEFAULT_SEQUENCE_LENGTH,
    Gadget,
    GadgetGrammar,
)
from repro.cpu.core import Core
from repro.isa.legality import MICROARCH_PROFILES
from repro.telemetry import runtime as telemetry
from repro.utils.rng import ensure_rng, spawn_rng


@dataclass
class FuzzingReport:
    """Everything a fuzzing campaign produced."""

    microarch: str
    cleanup: CleanupReport
    search_space_size: int
    gadgets_tested: int
    events_fuzzed: int
    step_seconds: dict[str, float]
    screened_per_event: dict[int, int]
    confirmed_per_event: dict[int, list[ConfirmationResult]]
    covering_set: dict[Gadget, list[int]] = field(default_factory=dict)
    #: Per covered event, the gadget index of its first responder —
    #: screening order doubles as evaluation order, so this is the
    #: evals-to-cover trajectory bench_setcover gates.
    first_responder: dict[int, int] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(self.step_seconds.values())

    @property
    def evals_to_cover(self) -> int:
        """Evaluations spent when the last covered event first responded.

        Zero when nothing responded.  Comparable across strategies:
        both grammar screening and coverage search index gadgets in
        evaluation order.
        """
        if not self.first_responder:
            return 0
        return max(self.first_responder.values()) + 1

    @property
    def throughput_gadgets_per_second(self) -> float:
        """(gadget, event) evaluations per second of generation+execution."""
        gen_time = self.step_seconds.get("generation_execution", 0.0)
        if gen_time <= 0:
            return 0.0
        return self.gadgets_tested * self.events_fuzzed / gen_time

    def gadget_count_stats(self) -> dict[str, float]:
        """Usable-gadget-per-event statistics (paper Section VIII-B)."""
        counts = np.array(list(self.screened_per_event.values()), dtype=float)
        if counts.size == 0:
            return {"mean": 0.0, "median": 0.0, "max": 0.0}
        return {"mean": float(counts.mean()),
                "median": float(np.median(counts)),
                "max": float(counts.max())}

    def most_fuzzed_event(self) -> int:
        """Event index with the most usable gadgets."""
        if not self.screened_per_event:
            raise ValueError("no events were fuzzed")
        return max(self.screened_per_event,
                   key=lambda e: self.screened_per_event[e])


class EventFuzzer:
    """Runs a fuzzing campaign for a set of vulnerable HPC events.

    Parameters
    ----------
    processor_model:
        Event-catalog / core model to fuzz on; it also names the ISA
        microarchitecture profile whose legal instructions the shared
        catalog's cleanup yields.
    gadget_budget:
        How many (reset, trigger) pairs to sample — real campaigns test
        all ~11.6M pairs over hours; the budget makes laptop-scale runs
        possible while exercising the identical pipeline.
    confirm_per_event:
        How many top-screened candidates get full confirmation.
    shard_size:
        Gadgets per screening shard. Purely an execution granularity:
        results are identical for every shard size (per-gadget RNG
        streams + per-gadget state reset), so it only tunes campaign
        parallelism and checkpoint frequency.
    """

    _MODEL_TO_MICROARCH = {
        "amd-epyc-7252": "amd-epyc-7252",
        "amd-epyc-7313p": "amd-epyc-7313p",
        "intel-xeon-e5-1650": "intel-xeon-e5-1650",
        "intel-xeon-e5-4617": "intel-xeon-e5-4617",
    }

    def __init__(self, processor_model: str = "amd-epyc-7252",
                 gadget_budget: int = 2000, confirm_per_event: int = 8,
                 unroll: int = 16, shard_size: int = DEFAULT_SHARD_SIZE,
                 rng: "int | np.random.Generator | None" = None) -> None:
        if gadget_budget < 1:
            raise ValueError(f"gadget_budget must be >= 1, got {gadget_budget}")
        if shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        root = ensure_rng(rng)
        core_rng, grammar_rng, harness_rng, confirm_rng = spawn_rng(root, 4)
        self.processor_model = processor_model
        self.microarch = MICROARCH_PROFILES[self._MODEL_TO_MICROARCH.get(
            processor_model, "amd-epyc-7252")]
        self.gadget_budget = gadget_budget
        self.confirm_per_event = confirm_per_event
        self.shard_size = shard_size
        self.core = Core(processor_model, rng=core_rng)
        self.harness = ExecutionHarness(self.core, unroll=unroll,
                                        rng=harness_rng)
        self._grammar_rng = grammar_rng
        self.confirmer = GadgetConfirmer(self.harness, rng=confirm_rng)
        self.filter = GadgetFilter()
        # Root entropy of the per-gadget screening streams: gadget i's
        # sampling and measurement noise derive from (entropy, i) only,
        # so any shard partition screens identically.
        self._screen_entropy = int(self._grammar_rng.integers(2**63))
        self._cleanup_report: CleanupReport | None = None
        self._gadget_memo: dict[int, Gadget] = {}
        self._replay_grammar: GadgetGrammar | None = None

    def _screen_threshold(self, event_indices: np.ndarray) -> np.ndarray:
        """Minimum hot-path delta that flags a candidate per event."""
        catalog = self.core.catalog
        return (4.0 * catalog.noise_abs[event_indices]
                + 0.5 * self.harness.unroll
                * catalog.noise_rel[event_indices])

    # -- shard-sized stages ---------------------------------------------

    def run_cleanup(self) -> CleanupReport:
        """Stage 1 — instruction cleanup of the shared catalog.

        The same process-cached report every screening shard samples
        from, so confirmation replays exactly the screened gadgets.
        """
        if self._cleanup_report is None:
            self._cleanup_report = default_cleanup(self.microarch.name)
        return self._cleanup_report

    def shard_config(self, event_indices: np.ndarray) -> ShardConfig:
        """The plain-type screening configuration workers receive."""
        events = tuple(int(e) for e in np.asarray(event_indices, dtype=int))
        thresholds = self._screen_threshold(np.asarray(events, dtype=int))
        return ShardConfig(
            processor_model=self.processor_model,
            microarch=self.microarch.name,
            entropy=self._screen_entropy,
            unroll=self.harness.unroll,
            sequence_length=DEFAULT_SEQUENCE_LENGTH,
            empty_reset_prob=DEFAULT_EMPTY_RESET_PROB,
            event_indices=events,
            thresholds=tuple(float(t) for t in thresholds),
        )

    def search_config(self, event_indices: np.ndarray,
                      **overrides) -> "SearchConfig":
        """The coverage-search configuration for this fuzzer's events.

        :meth:`shard_config` plus the search's own fields, so the
        search's grammar-sample tasks are bit-identical to blind
        screening of the same indices.
        """
        from repro.search.engine import SearchConfig

        return SearchConfig(**asdict(self.shard_config(event_indices)),
                            **overrides)

    def register_gadgets(self, gadgets: "dict[int, Gadget]") -> None:
        """Pre-populate the gadget replay memo (coverage campaigns).

        Coverage-search evaluation indices are not grammar stream
        indices, so the campaign registers the actual gadgets before
        :meth:`finalize` replays them by index.
        """
        self._gadget_memo.update(gadgets)

    def gadget_at(self, gadget_index: int) -> Gadget:
        """Replay gadget ``gadget_index`` of this fuzzer's budget.

        Checkpoints and shard results carry gadget indices only; the
        gadget itself is re-derived from its per-gadget RNG stream,
        exactly as the screening stage sampled it.
        """
        gadget = self._gadget_memo.get(gadget_index)
        if gadget is None:
            if self._replay_grammar is None:
                self._replay_grammar = GadgetGrammar(
                    self.run_cleanup().legal, rng=0)
            gadget = self._replay_grammar.sample(
                rng=gadget_stream(self._screen_entropy, gadget_index))
            self._gadget_memo[gadget_index] = gadget
        return gadget

    def finalize(self, cleanup: CleanupReport,
                 screened: dict[int, list[tuple[int, float]]],
                 event_indices: np.ndarray,
                 step_seconds: dict[str, float]) -> FuzzingReport:
        """Stages 3+4 — confirmation and filtering on the merged pool.

        ``screened`` maps event index to ``(gadget_index, delta)`` pairs
        (ascending gadget order), as produced by ``merge_screened``.
        Runs once per campaign, after all shards are in.
        """
        event_indices = np.asarray(event_indices, dtype=int)
        tracer = telemetry.tracer()

        # Step 3: confirmation per event. Candidates mix the strongest
        # screened deltas with a random sample of the remainder — pure
        # top-by-delta favors heavyweight resets (CPUID-sized), which
        # the lambda2 test then rejects for any-instruction events.
        start = time.perf_counter()
        with tracer.span("fuzz.confirm", events=len(event_indices)):
            pick_rng = ensure_rng(int(self._grammar_rng.integers(2**63)))
            confirmed: dict[int, list[ConfirmationResult]] = {}
            for event in (int(e) for e in event_indices):
                candidates = [(delta, self.gadget_at(index))
                              for index, delta in screened.get(event, [])]
                candidates.sort(key=lambda pair: -pair[0])
                head = candidates[:self.confirm_per_event // 2]
                tail = candidates[self.confirm_per_event // 2:]
                extra_count = min(len(tail),
                                  self.confirm_per_event - len(head))
                if extra_count:
                    picks = pick_rng.choice(len(tail), size=extra_count,
                                            replace=False)
                    head = head + [tail[int(i)] for i in picks]
                results = [self.confirmer.confirm(gadget, event)
                           for _, gadget in head]
                confirmed[event] = self.confirmer.reorder_validate(results)
        step_seconds["confirmation"] = time.perf_counter() - start

        # Step 4: filtering (clustering + covering set).
        start = time.perf_counter()
        with tracer.span("fuzz.filter"):
            filtered = {event: self.filter.filter_event(results)
                        for event, results in confirmed.items()}
            covering = minimal_covering_set(filtered)
        step_seconds["filtering"] = time.perf_counter() - start

        registry = telemetry.metrics()
        if registry.enabled:
            registry.counter("fuzz.events_fuzzed").inc(len(event_indices))
            registry.counter("fuzz.confirmed").inc(
                sum(len(r) for r in confirmed.values()))
            registry.gauge("fuzz.covering_gadgets").set(len(covering))

        grammar = GadgetGrammar(cleanup.legal, rng=0)
        return FuzzingReport(
            microarch=self.microarch.name,
            cleanup=cleanup,
            search_space_size=grammar.search_space_size,
            gadgets_tested=self.gadget_budget,
            events_fuzzed=len(event_indices),
            step_seconds=step_seconds,
            screened_per_event={int(e): len(screened.get(int(e), []))
                                for e in event_indices},
            confirmed_per_event=filtered,
            covering_set=covering,
            first_responder={int(e): min(i for i, _ in screened[int(e)])
                             for e in event_indices
                             if screened.get(int(e))},
        )

    # -- the sequential campaign ----------------------------------------

    def fuzz(self, event_indices: "np.ndarray | list[int]") -> FuzzingReport:
        """Run the four-step campaign for ``event_indices``.

        A 1-worker :class:`FuzzingCampaign`, so the report is identical
        to an N-worker campaign with the same seed.
        """
        return FuzzingCampaign(self).run(event_indices)
