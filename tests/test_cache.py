"""Tests for ``cache_dir``: the shard store that reuses whole shards.

``FuzzingCampaign(cache_dir=D)`` behaves as ``checkpoint_dir=
D/<fingerprint>, resume=True``; the fingerprint covers the screening
configuration and shard size but not the budget. Covers the store's
keys and file format first, then the campaign-level guarantees: a warm
re-run screens nothing and reports bit-identically at 1 and 2 workers,
a configuration change misses, a doubled budget reuses every full
shard, and ``cache.hits``/``cache.misses`` count gadgets.
"""

import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core.fuzzer import CampaignError, EventFuzzer, FuzzingCampaign
from repro.core.fuzzer.campaign import (
    CHECKPOINT_VERSION,
    ShardResult,
    ShardSpec,
    config_fingerprint,
    load_shard_checkpoint,
    plan_shards,
    save_shard_checkpoint,
    screen_shard,
    shard_checkpoint_path,
)
from repro.telemetry import runtime as telemetry
from tests.test_campaign import report_key

BUDGET = 80
SHARD = 20
#: The geometry of the hand-built shard results in the store tests.
SPEC = ShardSpec(index=0, start=0, count=4)


@pytest.fixture(scope="module")
def shard_setup(make_fuzzer, fuzz_events):
    """A small fuzzer's plain-type screening config and its shards."""
    fuzzer = make_fuzzer(gadget_budget=40, shard_size=SHARD)
    events = np.array(fuzz_events)
    config = fuzzer.shard_config(events)
    return config, plan_shards(40, SHARD)


@pytest.fixture(scope="module")
def events(fuzz_events):
    return np.array(fuzz_events)


@pytest.fixture(scope="module")
def uncached(make_fuzzer, events):
    return make_fuzzer(gadget_budget=BUDGET, shard_size=SHARD).fuzz(events)


def run(make_fuzzer, events, cache_dir, workers=1, budget=BUDGET):
    """One campaign against ``cache_dir``; returns (campaign, report,
    counters)."""
    campaign = FuzzingCampaign(
        make_fuzzer(gadget_budget=budget, shard_size=SHARD),
        workers=workers, cache_dir=cache_dir)
    with telemetry.session() as runtime:
        report = campaign.run(events)
        counters = runtime.metrics.snapshot()["counters"]
    return campaign, report, counters


def fill(cache_dir, events):
    """One campaign in a worker process (``make_fuzzer``'s defaults)."""
    fuzzer = EventFuzzer(gadget_budget=BUDGET, shard_size=SHARD,
                         confirm_per_event=4, rng=11)
    return report_key(
        FuzzingCampaign(fuzzer, cache_dir=cache_dir).run(events))


class TestFingerprint:
    def test_config_digest_tracks_measurement_config(self, shard_setup):
        config, _ = shard_setup
        fingerprint = config_fingerprint(config, SHARD)
        assert config_fingerprint(dataclasses.replace(config), SHARD) \
            == fingerprint
        assert config_fingerprint(config, SHARD + 1) != fingerprint
        for change in ({"unroll": config.unroll + 1},
                       {"processor_model": "intel-xeon-e5-1650"},
                       {"event_indices": config.event_indices[:-1]},
                       {"entropy": config.entropy + 1}):
            changed = dataclasses.replace(config, **change)
            assert config_fingerprint(changed, SHARD) != fingerprint

    def test_measurement_key_components(self, shard_setup, tmp_path):
        """A stored shard serves only its (fingerprint, start, count)."""
        config, shards = shard_setup
        shard = shards[0]
        fingerprint = config_fingerprint(config, SHARD)
        save_shard_checkpoint(tmp_path, screen_shard(config, shard),
                              fingerprint)
        assert load_shard_checkpoint(tmp_path, shard, fingerprint)
        assert load_shard_checkpoint(tmp_path, shard, "f" * 16) is None
        for other in (dataclasses.replace(shard, start=shard.start + 1),
                      dataclasses.replace(shard, count=shard.count - 1)):
            assert load_shard_checkpoint(tmp_path, other,
                                         fingerprint) is None


class TestDiskStore:
    def result(self):
        return ShardResult(index=0, start=0, count=4,
                           screened={7: [(0, 1.5), (3, 2.0)]},
                           executions=4, elapsed_seconds=0.1,
                           cpu_seconds=0.1)

    def test_roundtrip(self, tmp_path):
        path = save_shard_checkpoint(tmp_path, self.result(), "fp")
        assert path == shard_checkpoint_path(tmp_path, 0)
        loaded = load_shard_checkpoint(tmp_path, SPEC, "fp")
        assert loaded == self.result()
        assert json.loads(path.read_text())["version"] \
            == CHECKPOINT_VERSION
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == ["shard-00000.json"]

    def test_missing_key(self, tmp_path):
        assert load_shard_checkpoint(tmp_path, SPEC, "fp") is None

    def test_corrupt_file(self, tmp_path):
        path = save_shard_checkpoint(tmp_path, self.result(), "fp")
        path.write_text("{not json", encoding="utf-8")
        assert load_shard_checkpoint(tmp_path, SPEC, "fp") is None

    def test_version_and_key_mismatch(self, tmp_path):
        path = save_shard_checkpoint(tmp_path, self.result(), "fp")
        stale = json.loads(path.read_text(encoding="utf-8"))
        stale["version"] = CHECKPOINT_VERSION - 1
        path.write_text(json.dumps(stale), encoding="utf-8")
        assert load_shard_checkpoint(tmp_path, SPEC, "fp") is None
        stale["version"] = CHECKPOINT_VERSION
        path.write_text(json.dumps(stale), encoding="utf-8")
        assert load_shard_checkpoint(tmp_path, SPEC, "fp")
        assert load_shard_checkpoint(tmp_path, SPEC, "other") is None

    def test_round_trip_is_bit_exact(self, tmp_path):
        awkward = {5: [(1, 1.0 / 3.0), (2, 1e-17), (3, np.pi * 1e12)]}
        result = ShardResult(index=0, start=0, count=4, screened=awkward)
        save_shard_checkpoint(tmp_path, result, "fp")
        loaded = load_shard_checkpoint(tmp_path, SPEC, "fp")
        assert loaded.screened == awkward


class TestCampaignCaching:
    def test_warm_rerun_is_bit_identical_with_zero_executions(
            self, make_fuzzer, events, uncached, tmp_path):
        for workers in (1, 2):
            store = tmp_path / f"workers-{workers}"
            cold, cold_report, _ = run(make_fuzzer, events, store, workers)
            assert cold.stats.screened_shards == BUDGET // SHARD
            warm, warm_report, counters = run(make_fuzzer, events, store,
                                              workers)
            assert warm.stats.screened_shards == 0
            assert warm.stats.resumed_shards == BUDGET // SHARD
            assert counters.get("fuzz.executions", 0) == 0
            assert report_key(warm_report) == report_key(cold_report) \
                == report_key(uncached)

    def test_cached_report_matches_uncached(self, make_fuzzer, events,
                                            uncached, tmp_path):
        _, report, _ = run(make_fuzzer, events, tmp_path)
        assert report_key(report) == report_key(uncached)

    def test_config_change_invalidates(self, make_fuzzer, events,
                                       tmp_path):
        run(make_fuzzer, events, tmp_path)
        retuned = FuzzingCampaign(
            make_fuzzer(gadget_budget=BUDGET, shard_size=SHARD, unroll=8),
            cache_dir=tmp_path)
        retuned.run(events)
        assert retuned.stats.resumed_shards == 0
        assert len(list(tmp_path.iterdir())) == 2  # one store per config

    def test_disk_tier_shared_across_sessions(self, make_fuzzer, events,
                                              tmp_path):
        """A store filled by pool workers serves an in-process run."""
        _, pooled, _ = run(make_fuzzer, events, tmp_path, workers=2)
        inline, report, counters = run(make_fuzzer, events, tmp_path)
        assert inline.stats.screened_shards == 0
        assert counters.get("fuzz.executions", 0) == 0
        assert report_key(report) == report_key(pooled)

    def test_concurrent_campaigns_share_one_store(self, make_fuzzer,
                                                  events, uncached,
                                                  tmp_path):
        """Four processes race to fill one store on every shard file."""
        with ProcessPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(fill, tmp_path, events)
                       for _ in range(4)]
            keys = [future.result(timeout=120) for future in futures]
        assert all(key == report_key(uncached) for key in keys)
        warm, report, _ = run(make_fuzzer, events, tmp_path)
        assert warm.stats.screened_shards == 0
        assert report_key(report) == report_key(uncached)

    def test_doubled_budget_reuses_every_full_shard(self, make_fuzzer,
                                                    events, tmp_path):
        run(make_fuzzer, events, tmp_path, budget=70)  # 3.5 shards
        larger, report, counters = run(make_fuzzer, events, tmp_path,
                                       budget=140)
        # The three full shards are reused; the half shard at 60 is not.
        assert larger.stats.resumed_shards == 3
        assert larger.stats.screened_shards == 4
        assert (counters["cache.hits"], counters["cache.misses"]) \
            == (60, 80)
        uncached = make_fuzzer(gadget_budget=140,
                               shard_size=SHARD).fuzz(events)
        assert report_key(report) == report_key(uncached)

    def test_shard_size_change_misses(self, make_fuzzer, events, tmp_path):
        run(make_fuzzer, events, tmp_path)
        resized = FuzzingCampaign(
            make_fuzzer(gadget_budget=BUDGET, shard_size=SHARD // 2),
            cache_dir=tmp_path)
        resized.run(events)
        assert resized.stats.resumed_shards == 0

    def test_conflicting_options_rejected(self, make_fuzzer, tmp_path):
        with pytest.raises(CampaignError, match="checkpoint_dir"):
            FuzzingCampaign(make_fuzzer(), cache_dir=tmp_path,
                            checkpoint_dir=tmp_path)
        with pytest.raises(CampaignError, match="grammar"):
            FuzzingCampaign(make_fuzzer(), cache_dir=tmp_path,
                            strategy="coverage")

    def test_hits_and_misses_count_gadgets(self, make_fuzzer, events,
                                           tmp_path):
        _, _, cold = run(make_fuzzer, events, tmp_path)
        _, _, warm = run(make_fuzzer, events, tmp_path)
        assert (cold["cache.hits"], cold["cache.misses"]) == (0, BUDGET)
        assert (warm["cache.hits"], warm["cache.misses"]) == (BUDGET, 0)

    def test_uncached_campaign_counts_nothing(self, make_fuzzer, events):
        """Without ``cache_dir`` no ``cache.*`` counter is recorded."""
        with telemetry.session() as runtime:
            make_fuzzer(gadget_budget=BUDGET, shard_size=SHARD).fuzz(events)
            counters = runtime.metrics.snapshot()["counters"]
        assert not any(name.startswith("cache.") for name in counters)
