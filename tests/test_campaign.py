"""Sharded campaign engine: equivalence, checkpoints, crash-resume.

The acceptance bar for the campaign engine is behavioural equivalence:
for a fixed fuzzer seed, any worker count, shard size, or
interrupt/resume schedule must yield the identical report a plain
sequential :meth:`EventFuzzer.fuzz` produces.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.fuzzer import (
    CampaignError,
    EventFuzzer,
    FuzzingCampaign,
    FuzzingReport,
    GadgetGrammar,
    load_shard_checkpoint,
    merge_screened,
    minimal_covering_set,
    plan_shards,
    save_shard_checkpoint,
    screen_shard,
)
from repro.core.fuzzer import campaign as campaign_mod
from repro.core.fuzzer.campaign import (
    ShardSpec,
    config_fingerprint,
    screening_kernel,
    shard_checkpoint_path,
)

#: ``report_digest`` of the ``make_fuzzer`` campaign: every worker
#: count, and any change to how screening is built or fanned out, must
#: reproduce it.
PINNED_REPORT_DIGEST = ("e4a5aad132a61bf54a8242032b6b60dc"
                        "69153de1fd1ac7e798379b4c1077bfa8")


def report_key(report):
    """Everything that must be equal across equivalent campaigns."""
    covering = {gadget.name: sorted(events)
                for gadget, events in report.covering_set.items()}
    confirmed = {
        event: [(r.gadget.name, round(r.per_iteration_delta, 9))
                for r in results]
        for event, results in report.confirmed_per_event.items()}
    return (covering, confirmed, dict(report.screened_per_event),
            report.gadgets_tested, report.search_space_size)


def report_digest(report) -> str:
    return hashlib.sha256(json.dumps(report_key(report), sort_keys=True)
                          .encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def events(fuzz_events):
    return np.array(fuzz_events)


@pytest.fixture(scope="module")
def baseline(make_fuzzer, events):
    """The sequential reference report every campaign must reproduce."""
    return make_fuzzer().fuzz(events)


class TestEquivalence:
    def test_one_worker_campaign_matches_sequential(self, make_fuzzer,
                                                    events, baseline):
        report = FuzzingCampaign(make_fuzzer(), workers=1).run(events)
        assert report_key(report) == report_key(baseline)

    def test_four_worker_campaign_matches_sequential(self, make_fuzzer,
                                                     events, baseline):
        report = FuzzingCampaign(make_fuzzer(), workers=4).run(events)
        assert report_key(report) == report_key(baseline)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_report_digest_pinned(self, make_fuzzer, events, workers):
        report = FuzzingCampaign(make_fuzzer(), workers=workers).run(events)
        assert report_digest(report) == PINNED_REPORT_DIGEST

    def test_shard_size_invariance(self, make_fuzzer, events, baseline):
        report = make_fuzzer(shard_size=23).fuzz(events)
        assert report_key(report) == report_key(baseline)

    def test_screening_is_order_independent(self, make_fuzzer, events):
        """Screening a late shard first changes nothing."""
        fuzzer = make_fuzzer()
        fuzzer.run_cleanup()
        config = fuzzer.shard_config(events)
        plan = plan_shards(fuzzer.gadget_budget, fuzzer.shard_size)
        forward = [screen_shard(config, s) for s in plan]
        backward = [screen_shard(config, s) for s in reversed(plan)]
        assert merge_screened(forward) == merge_screened(backward)

    def test_reused_kernel_screens_like_a_fresh_one(self, make_fuzzer,
                                                    events, monkeypatch):
        """A shard screened after others on one process's kernel equals
        the same shard on a freshly built kernel, executions included."""
        fuzzer = make_fuzzer()
        fuzzer.run_cleanup()
        config = fuzzer.shard_config(events)
        first, *others = plan_shards(fuzzer.gadget_budget,
                                     fuzzer.shard_size)
        for shard in reversed(others):
            screen_shard(config, shard)
        kernel = screening_kernel(config)
        reused = screen_shard(config, first)
        assert screening_kernel(config) is kernel
        monkeypatch.setattr(campaign_mod, "_KERNEL", None)
        fresh = screen_shard(config, first)
        assert screening_kernel(config) is not kernel
        assert reused.screened == fresh.screened
        assert reused.executions == fresh.executions > 0


class TestCheckpoints:
    def test_resume_round_trip(self, make_fuzzer, events, baseline, tmp_path):
        first = FuzzingCampaign(make_fuzzer(), checkpoint_dir=tmp_path)
        assert report_key(first.run(events)) == report_key(baseline)
        assert first.stats.screened_shards == 4
        assert (tmp_path / "campaign.json").exists()

        second = FuzzingCampaign(make_fuzzer(), checkpoint_dir=tmp_path,
                                 resume=True)
        assert report_key(second.run(events)) == report_key(baseline)
        assert second.stats.resumed_shards == 4
        assert second.stats.screened_shards == 0

    def test_corrupt_checkpoint_is_rescreened(self, make_fuzzer, events,
                                              baseline, tmp_path):
        FuzzingCampaign(make_fuzzer(), checkpoint_dir=tmp_path).run(events)
        shard_checkpoint_path(tmp_path, 2).write_text("{not json",
                                                      encoding="utf-8")
        resumed = FuzzingCampaign(make_fuzzer(), checkpoint_dir=tmp_path,
                                  resume=True)
        assert report_key(resumed.run(events)) == report_key(baseline)
        assert resumed.stats.resumed_shards == 3
        assert resumed.stats.screened_shards == 1

    def test_truncated_checkpoint_is_rescreened(self, make_fuzzer, events,
                                                baseline, tmp_path):
        FuzzingCampaign(make_fuzzer(), checkpoint_dir=tmp_path).run(events)
        path = shard_checkpoint_path(tmp_path, 1)
        path.write_text(path.read_text(encoding="utf-8")[:40],
                        encoding="utf-8")
        resumed = FuzzingCampaign(make_fuzzer(), checkpoint_dir=tmp_path,
                                  resume=True)
        assert report_key(resumed.run(events)) == report_key(baseline)
        assert resumed.stats.resumed_shards == 3

    def test_stale_fingerprint_rejected(self, make_fuzzer, events, tmp_path):
        """A checkpoint from a different campaign config never loads."""
        fuzzer = make_fuzzer()
        fuzzer.run_cleanup()
        config = fuzzer.shard_config(events)
        plan = plan_shards(fuzzer.gadget_budget, fuzzer.shard_size)
        result = screen_shard(config, plan[0])
        good = config_fingerprint(config, fuzzer.shard_size)
        save_shard_checkpoint(tmp_path, result, good)
        assert load_shard_checkpoint(tmp_path, plan[0], good) is not None
        assert load_shard_checkpoint(tmp_path, plan[0], "deadbeef") is None

    def test_geometry_mismatch_rejected(self, make_fuzzer, events, tmp_path):
        fuzzer = make_fuzzer()
        fuzzer.run_cleanup()
        config = fuzzer.shard_config(events)
        plan = plan_shards(fuzzer.gadget_budget, fuzzer.shard_size)
        fingerprint = config_fingerprint(config, fuzzer.shard_size)
        save_shard_checkpoint(tmp_path, screen_shard(config, plan[0]),
                              fingerprint)
        other = ShardSpec(index=0, start=0, count=plan[0].count + 1)
        assert load_shard_checkpoint(tmp_path, other, fingerprint) is None

    def test_crash_then_resume_matches_baseline(self, make_fuzzer, events,
                                                baseline, tmp_path):
        """Kill the campaign after two shards; resume finishes it."""
        class Crash(RuntimeError):
            pass

        completed = []

        def crash_after_two(result):
            completed.append(result.index)
            if len(completed) == 2:
                raise Crash

        interrupted = FuzzingCampaign(make_fuzzer(), checkpoint_dir=tmp_path,
                                      shard_hook=crash_after_two)
        with pytest.raises(Crash):
            interrupted.run(events)
        on_disk = sorted(p.name for p in tmp_path.glob("shard-*.json"))
        assert len(on_disk) == 2  # the hook fires after the checkpoint write

        resumed = FuzzingCampaign(make_fuzzer(), checkpoint_dir=tmp_path,
                                  resume=True)
        assert report_key(resumed.run(events)) == report_key(baseline)
        assert resumed.stats.resumed_shards == 2
        assert resumed.stats.screened_shards == 2

    def test_resumed_run_reports_only_screened_cpu(self, make_fuzzer,
                                                   events, tmp_path):
        """Shards loaded from checkpoints carry the CPU time of the run
        that filled them; the resumed run reports only its own."""
        FuzzingCampaign(make_fuzzer(), checkpoint_dir=tmp_path).run(events)
        for index in (1, 3):
            shard_checkpoint_path(tmp_path, index).unlink()
        screened = []
        resumed = FuzzingCampaign(make_fuzzer(), checkpoint_dir=tmp_path,
                                  resume=True, shard_hook=screened.append)
        resumed.run(events)
        assert resumed.stats.resumed_shards == 2
        assert resumed.stats.shard_cpu_seconds == [
            r.cpu_seconds for r in sorted(screened, key=lambda r: r.start)]
        assert len(resumed.stats.shard_cpu_seconds) == 2

    def test_manifest_describes_campaign(self, make_fuzzer, events, tmp_path):
        campaign = FuzzingCampaign(make_fuzzer(), checkpoint_dir=tmp_path)
        campaign.run(events)
        manifest = json.loads((tmp_path / "campaign.json").read_text())
        assert manifest["budget"] == 160
        assert manifest["shard_size"] == 40
        assert manifest["num_shards"] == 4
        assert manifest["events"] == [int(e) for e in events]


def eager_finalize(fuzzer, cleanup, screened, events):
    """Reference confirmation: replay every screened candidate's gadget,
    rank the gadgets by delta, then pick — then filter as
    :meth:`EventFuzzer.finalize` does. It replays the whole pool."""
    pick_rng = np.random.default_rng(int(fuzzer._grammar_rng.integers(2**63)))
    k = fuzzer.confirm_per_event
    confirmed = {}
    for event in (int(e) for e in events):
        candidates = [(delta, fuzzer.gadget_at(index))
                      for index, delta in screened.get(event, [])]
        candidates.sort(key=lambda pair: -pair[0])
        head, tail = candidates[:k // 2], candidates[k // 2:]
        extra_count = min(len(tail), k - len(head))
        if extra_count:
            picks = pick_rng.choice(len(tail), size=extra_count,
                                    replace=False)
            head = head + [tail[int(i)] for i in picks]
        confirmed[event] = fuzzer.confirmer.reorder_validate(
            [fuzzer.confirmer.confirm(gadget, event) for _, gadget in head])
    filtered = {event: fuzzer.filter.filter_event(results)
                for event, results in confirmed.items()}
    return FuzzingReport(
        microarch=fuzzer.microarch.name, cleanup=cleanup,
        search_space_size=GadgetGrammar(cleanup.legal,
                                        rng=0).search_space_size,
        gadgets_tested=fuzzer.gadget_budget, events_fuzzed=len(events),
        step_seconds={},
        screened_per_event={int(e): len(screened.get(int(e), []))
                            for e in events},
        confirmed_per_event=filtered,
        covering_set=minimal_covering_set(filtered))


class TestReplayBound:
    """``finalize`` replays only the gadgets confirmation picks."""

    def test_cold_and_warm_replay_only_picked_gadgets(
            self, make_fuzzer, events, tmp_path, monkeypatch):
        replayed: list[int] = []
        pools: list[dict] = []
        gadget_at, finalize = EventFuzzer.gadget_at, EventFuzzer.finalize

        def counting_gadget_at(self, gadget_index):
            replayed.append(gadget_index)
            return gadget_at(self, gadget_index)

        def spying_finalize(self, cleanup, screened, *args):
            pools.append(screened)
            return finalize(self, cleanup, screened, *args)

        monkeypatch.setattr(EventFuzzer, "gadget_at", counting_gadget_at)
        monkeypatch.setattr(EventFuzzer, "finalize", spying_finalize)
        for leg in ("cold", "warm"):
            replayed.clear()
            campaign = FuzzingCampaign(make_fuzzer(), workers=2,
                                       cache_dir=tmp_path)
            report = campaign.run(events)
            assert campaign.stats.screened_shards == (4 if leg == "cold"
                                                      else 0)
            assert report_digest(report) == PINNED_REPORT_DIGEST
            pool = pools[-1]
            bound = sum(min(campaign.fuzzer.confirm_per_event, len(pairs))
                        for pairs in pool.values())
            candidates = {index for pairs in pool.values()
                          for index, _ in pairs}
            assert len(set(replayed)) <= bound < len(candidates), leg

        monkeypatch.undo()
        twin = make_fuzzer()
        reference = eager_finalize(twin, twin.run_cleanup(), pools[-1],
                                   events)
        assert report_key(reference) == report_key(report)


class TestValidation:
    def test_zero_workers_rejected(self, make_fuzzer):
        with pytest.raises(CampaignError):
            FuzzingCampaign(make_fuzzer(), workers=0)

    def test_resume_requires_checkpoint_dir(self, make_fuzzer):
        with pytest.raises(CampaignError):
            FuzzingCampaign(make_fuzzer(), resume=True)

    def test_empty_events_rejected(self, make_fuzzer):
        with pytest.raises(ValueError):
            FuzzingCampaign(make_fuzzer()).run(np.array([], dtype=int))
