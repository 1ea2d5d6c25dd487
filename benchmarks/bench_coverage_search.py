"""Coverage-guided search vs blind grammar sampling.

The gate for replacing blind screening: the coverage-guided search
must reach a fixed covering fraction of the guest-sensitive catalog in
at least 3x fewer evaluations than blind grammar sampling spends (both
measured in the same currency — one screening measurement, with
minimization trials counted against the search), and its corpus replay
must be bit-identical across worker counts.  The blind baseline *is*
campaign screening (``screen_shard`` over the planned shards, merged),
so the comparison is against the real production path, not a strawman.

The wall-clock search throughput at 1 and ``VERIFY_WORKERS`` workers
is reported with the host's core count but not gated: it is timed from
the two searches the gate already runs, once each.  The process's
screening kernel and search evaluator are built before either
stopwatch starts, and their build time is reported on its own
(ungated) line, so the 1-worker rate, the first search in the
process, does not pay for them.
"""

import os
import time

import numpy as np
import pytest

from benchmarks.conftest import SMOKE, emit, emit_metrics, once
from repro.core.fuzzer import (DEFAULT_SHARD_SIZE, EventFuzzer,
                               merge_screened, plan_shards, screen_shard)
from repro.cpu.events import processor_catalog

#: Budgets in screening evaluations.  The smoke scale trims the search
#: budget (it covers the target fraction in a few hundred evaluations)
#: and keeps the blind budget large enough to reach the same target.
SEARCH_BUDGET = 800 if SMOKE else 4000
BLIND_BUDGET = 2000 if SMOKE else 4000
#: Fraction of the guest-sensitive catalog both strategies must cover.
COVER_FRACTION = 0.60
#: The replacement gate: blind evals-to-cover / search evals-to-cover.
MIN_SPEEDUP = 3.0
VERIFY_WORKERS = 4


@pytest.mark.benchmark(group="coverage_search")
def test_coverage_search_vs_blind(benchmark):
    from repro.search import CoverageSearch, evals_to_cover
    from repro.search.engine import search_evaluator

    catalog = processor_catalog("amd-epyc-7252")
    events = np.flatnonzero(catalog.guest_sensitive)
    config = EventFuzzer(gadget_budget=SEARCH_BUDGET,
                         rng=11).search_config(events)

    started = time.perf_counter()
    search_evaluator(config)
    build_s = time.perf_counter() - started
    started = time.perf_counter()
    result = once(benchmark, lambda: CoverageSearch(
        config, max_evals=SEARCH_BUDGET).run())
    search_s = time.perf_counter() - started
    screened = merge_screened(
        screen_shard(config, shard)
        for shard in plan_shards(BLIND_BUDGET, DEFAULT_SHARD_SIZE))
    # Screening walks gadgets in index order: an event's first screened
    # pair is the evaluation that first covered it.
    blind_cover = {event: pairs[0][0] + 1
                   for event, pairs in screened.items() if pairs}
    started = time.perf_counter()
    replay = CoverageSearch(config, max_evals=SEARCH_BUDGET,
                            workers=VERIFY_WORKERS).run()
    replay_s = time.perf_counter() - started
    evals_per_s = result.evals / search_s
    replay_evals_per_s = replay.evals / replay_s

    target = max(1, int(COVER_FRACTION * len(events)))
    search_cost = result.evals_to_cover(target)
    assert search_cost is not None, (
        f"search covered {result.covered_count} events within "
        f"{SEARCH_BUDGET} evaluations, short of the {target} target")
    blind_cost = evals_to_cover(blind_cover, target)
    blind_floor = blind_cost if blind_cost is not None else BLIND_BUDGET
    speedup = blind_floor / search_cost
    identical = (replay.corpus_replay_digest == result.corpus_replay_digest
                 and replay.coverage_digest == result.coverage_digest
                 and replay.first_cover == result.first_cover)

    blind_shown = (str(blind_cost) if blind_cost is not None
                   else f">{BLIND_BUDGET} (never reached)")
    lines = [
        f"guest-sensitive events: {len(events)}, covering target: "
        f"{target} ({COVER_FRACTION:.0%})",
        f"blind grammar sampling:   {blind_shown} evaluations "
        f"({len(blind_cover)} events covered in {BLIND_BUDGET})",
        f"coverage-guided search:   {search_cost} evaluations "
        f"({result.covered_count} events covered in {result.evals}, "
        f"{result.minimize_evals} spent minimizing)",
        f"speedup vs blind:         {speedup:.2f}x (gate: "
        f">= {MIN_SPEEDUP:.0f}x)",
        f"corpus: {result.corpus_size} seeds, "
        f"{result.coverage_features} coverage features over "
        f"{result.rounds} rounds",
        f"replay digest @1 worker:  {result.corpus_replay_digest[:16]}",
        f"replay digest @{VERIFY_WORKERS} workers: "
        f"{replay.corpus_replay_digest[:16]} "
        f"({'bit-identical' if identical else 'DIVERGED'})",
        f"wall clock (ungated):     {evals_per_s:.0f} evals/s @1 worker, "
        f"{replay_evals_per_s:.0f} evals/s @{VERIFY_WORKERS} workers "
        f"(host cores: {os.cpu_count()})",
        f"evaluator build (ungated): {build_s * 1e3:.0f} ms, before "
        f"the wall clock starts",
    ]
    emit("coverage_search", "\n".join(lines))
    emit_metrics("coverage_search", {
        "speedup_vs_blind": float(speedup),
        "bit_identical_replay": float(identical),
        "search_evals_to_cover": float(search_cost),
        "covered_events": float(result.covered_count),
        "search_evals_per_s": float(evals_per_s),
        f"search_evals_per_s_{VERIFY_WORKERS}workers":
            float(replay_evals_per_s),
        "host_cores": float(os.cpu_count() or 0),
        "evaluator_build_s": float(build_s),
    })

    assert speedup >= MIN_SPEEDUP
    assert identical
