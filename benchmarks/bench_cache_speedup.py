"""``cache_dir``: warm re-run speedup over cold and uncached screening.

``FuzzingCampaign(cache_dir=...)`` keeps every screened shard in a
store keyed by the screening configuration and shard size, so a re-run
of the same campaign loads whole shards instead of screening them.
Floats round-trip exactly through the store's JSON, so the warm report
must match the cold one — and an uncached campaign's — bit for bit.

Three legs per repeat: ``uncached`` (no store), ``cold`` (fills a fresh
store) and ``warm`` (reads it back). The bench asserts the properties
the store is sold on: the warm leg executes no gadget, all three
reports are identical, and warm screening beats uncached screening —
reading stored results must cost less than the batch engine's memoized
re-measurement, or the store does not pay for itself.
"""

import statistics
from typing import NamedTuple

import numpy as np
import pytest

from benchmarks.conftest import SMOKE, emit, emit_metrics, once
from repro import telemetry
from repro.core.fuzzer import EventFuzzer, FuzzingCampaign
from repro.cpu.events import processor_catalog

BUDGET = 256 if SMOKE else 1024
SHARD_SIZE = 32 if SMOKE else 64
REPEATS = 5
MIN_WARM_VS_UNCACHED = 1.5


def _report_key(report):
    covering = sorted((g.name, tuple(sorted(e)))
                      for g, e in report.covering_set.items())
    confirmed = {
        event: [(r.gadget.name, r.per_iteration_delta, r.cold_median,
                 r.hot_median, r.confirmed) for r in results]
        for event, results in report.confirmed_per_event.items()}
    return (covering, confirmed, dict(report.screened_per_event),
            report.gadgets_tested)


class Leg(NamedTuple):
    key: tuple
    screening_s: float
    shards_screened: int
    counters: dict


def _run(events, cache_dir) -> Leg:
    """One sequential campaign, with or without a store."""
    fuzzer = EventFuzzer(gadget_budget=BUDGET, shard_size=SHARD_SIZE,
                         confirm_per_event=4, rng=11)
    campaign = FuzzingCampaign(fuzzer, cache_dir=cache_dir)
    with telemetry.session(process="main") as runtime:
        report = campaign.run(events)
        counters = runtime.metrics.snapshot()["counters"]
    return Leg(_report_key(report),
               report.step_seconds["generation_execution"],
               campaign.stats.screened_shards, counters)


def _legs(events, store):
    """One repeat of the three legs against a fresh ``store``."""
    return {"uncached": _run(events, None), "cold": _run(events, store),
            "warm": _run(events, store)}


@pytest.mark.benchmark(group="cache")
def test_cache_speedup(benchmark, tmp_path):
    catalog = processor_catalog("amd-epyc-7252")
    events = np.array([catalog.index_of(n) for n in
                       ("RETIRED_UOPS", "RETIRED_COND_BRANCHES",
                        "DATA_CACHE_REFILLS_FROM_SYSTEM",
                        "CACHE_LINE_FLUSHES")])

    # Warm shared caches (ISA catalog, numpy) before timing anything.
    _run(events, None)

    repeats = [once(benchmark, lambda: _legs(events, tmp_path / "store-0"))]
    repeats += [_legs(events, tmp_path / f"store-{i}")
                for i in range(1, REPEATS)]

    for legs in repeats:
        assert legs["warm"].shards_screened == 0, \
            "warm leg must screen no shard"
        assert legs["warm"].counters.get("fuzz.executions", 0) == 0, \
            "warm screening must not execute any gadget"
        assert legs["uncached"].key == legs["cold"].key \
            == legs["warm"].key, \
            "warm, cold and uncached reports must be bit-identical"
    warm_counters = repeats[0]["warm"].counters
    hits = warm_counters.get("cache.hits", 0)
    hit_rate = hits / (hits + warm_counters.get("cache.misses", 0))

    seconds = {leg: statistics.median(legs[leg].screening_s
                                      for legs in repeats)
               for leg in ("uncached", "cold", "warm")}
    warm_speedup = seconds["cold"] / seconds["warm"]
    warm_vs_uncached = seconds["uncached"] / seconds["warm"]
    lines = [
        f"budget {BUDGET} gadgets x {len(events)} events, "
        f"shard size {SHARD_SIZE}, median screening seconds of "
        f"{REPEATS} repeats",
        f"{'leg':<9s} {'screening s':>12s} {'shards screened':>16s} "
        f"{'executions':>11s}",
    ]
    for leg in ("uncached", "cold", "warm"):
        first = repeats[0][leg]
        lines.append(
            f"{leg:<9s} {seconds[leg]:>12.4f} {first.shards_screened:>16d} "
            f"{first.counters.get('fuzz.executions', 0):>11,.0f}")
    lines += [
        f"warm speedup over cold: {warm_speedup:.1f}x; over uncached: "
        f"{warm_vs_uncached:.1f}x",
        "warm, cold and uncached reports bit-identical: yes",
    ]
    emit("cache_speedup", "\n".join(lines))
    emit_metrics("cache_speedup", {
        "warm_speedup": warm_speedup,
        "warm_vs_uncached": warm_vs_uncached,
        "warm_hit_rate": hit_rate,
        "warm_executions": float(warm_counters.get("fuzz.executions", 0)),
    })
    assert warm_vs_uncached >= MIN_WARM_VS_UNCACHED, \
        f"warm screening {warm_vs_uncached:.2f}x uncached < " \
        f"{MIN_WARM_VS_UNCACHED}x"
