"""Chaos campaigns: injected faults must never change the report.

Each test arms a seeded :class:`FaultPlan` against a real campaign and
asserts the supervised run produces a report bit-identical to the
fault-free baseline (minus explicitly quarantined gadgets). The plan
seed comes from ``REPRO_CHAOS_SEED`` so CI can sweep several chaos
schedules over the same assertions; every firing decision is a pure
function of the plan, so each seeded run is exactly reproducible.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.core.fuzzer import FuzzingCampaign, plan_shards
from repro.core.fuzzer.campaign import shard_checkpoint_path
from repro.resilience import runtime as resilience
from repro.resilience.faults import FaultPlan, FaultSpec, corrupt_text
from repro.resilience.supervisor import SupervisorPolicy

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "7"))

#: Keep chaos runs fast: real exponential backoff, tiny base.
FAST_POLICY = SupervisorPolicy(backoff_base=0.005, backoff_cap=0.02,
                               seed=CHAOS_SEED)

SHARD_STARTS = (0, 40, 80, 120)  # the 160/40 plan of make_fuzzer


def chaos_plan(*faults):
    return FaultPlan(seed=CHAOS_SEED, faults=tuple(faults))


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


@pytest.fixture(autouse=True)
def _disarmed():
    resilience.disarm()
    yield
    resilience.disarm()


@pytest.fixture(scope="module")
def events(fuzz_events):
    return np.array(fuzz_events)


@pytest.fixture(scope="module")
def baseline(make_fuzzer, events):
    """The fault-free sequential report every chaos run must match."""
    return make_fuzzer().fuzz(events)


class TestChaosEquivalence:
    @staticmethod
    def check_transient_raises(make_fuzzer, events, baseline, workers):
        plan = chaos_plan(FaultSpec(point="campaign.shard", mode="raise",
                                    probability=0.5, times=1))
        campaign = FuzzingCampaign(make_fuzzer(), workers=workers,
                                   fault_plan=plan,
                                   supervisor_policy=FAST_POLICY)
        report = campaign.run(events)
        assert report_key(report) == report_key(baseline)
        # The failure schedule is a pure function of the plan: assert
        # exactly the predicted shards failed (and all recovered).
        expected = sorted(
            start for start in SHARD_STARTS
            if plan.decide("campaign.shard", key=start) is not None)
        stats = campaign.stats
        assert sorted(f.shard_start for f in stats.shard_failures) \
            == expected
        assert {f.kind for f in stats.shard_failures} <= {"error"}
        assert stats.retries == len(expected)
        assert stats.pool_restarts == 0
        assert stats.quarantined == []

    def test_transient_raises_match_baseline(self, make_fuzzer, events,
                                             baseline):
        self.check_transient_raises(make_fuzzer, events, baseline,
                                    workers=1)

    def test_transient_raises_on_pool_workers_match_baseline(
            self, make_fuzzer, events, baseline):
        """A raise on a pool worker comes back as its own shard's error:
        the fault pickles across the pool boundary, so it neither breaks
        the pool nor fails the shards beside it."""
        self.check_transient_raises(make_fuzzer, events, baseline,
                                    workers=2)

    def test_corrupt_cache_objects_read_as_misses(self, make_fuzzer, events,
                                                  baseline, tmp_path):
        """Shards the filling pass stored torn read as misses: the next
        pass re-screens exactly those and matches the baseline."""
        plan = chaos_plan(FaultSpec(point="checkpoint.write",
                                    mode="corrupt", probability=0.6,
                                    times=1))
        fill = FuzzingCampaign(make_fuzzer(), cache_dir=tmp_path,
                               fault_plan=plan,
                               supervisor_policy=FAST_POLICY)
        assert report_key(fill.run(events)) == report_key(baseline)
        rescreened = []
        warm = FuzzingCampaign(
            make_fuzzer(), cache_dir=tmp_path,
            shard_hook=lambda result: rescreened.append(result.index))
        assert report_key(warm.run(events)) == report_key(baseline)
        assert sorted(rescreened) == [
            index for index in range(len(SHARD_STARTS))
            if plan.decide("checkpoint.write", key=index) is not None]

    def test_layered_chaos_with_crash_and_resume(self, make_fuzzer, events,
                                                 baseline, tmp_path):
        """Transient shard faults + a corrupted checkpoint + a mid-run
        crash, resumed to a report bit-identical to the fault-free
        baseline."""
        plan = chaos_plan(
            FaultSpec(point="campaign.shard", mode="raise",
                      probability=0.5, times=1),
            FaultSpec(point="checkpoint.write", mode="corrupt", times=1,
                      match=(1,)))

        class Crash(RuntimeError):
            pass

        completed = []

        def crash_after_two(result):
            completed.append(result.start)
            if len(completed) == 2:
                raise Crash

        interrupted = FuzzingCampaign(make_fuzzer(),
                                      checkpoint_dir=tmp_path,
                                      fault_plan=plan,
                                      supervisor_policy=FAST_POLICY,
                                      shard_hook=crash_after_two)
        with pytest.raises(Crash):
            interrupted.run(events)

        resumed = FuzzingCampaign(make_fuzzer(), checkpoint_dir=tmp_path,
                                  fault_plan=plan,
                                  supervisor_policy=FAST_POLICY,
                                  resume=True)
        report = resumed.run(events)
        assert report_key(report) == report_key(baseline)
        # Shard 1's checkpoint was written corrupt (gen 1, no backup):
        # it reads as missing and is re-screened alongside the shards
        # the crash pre-empted.
        assert resumed.stats.resumed_shards < len(SHARD_STARTS)
        assert resumed.stats.resumed_shards \
            + resumed.stats.screened_shards == len(SHARD_STARTS)


class TestVectorizedEngineChaos:
    """The batched execution engine under the same seeded chaos sweep.

    Screening now routes through ``repro.cpu.batch`` (archetype memo +
    convergence replication); these tests prove the engine choice is
    invisible to chaos equivalence: scalar and vectorized campaigns
    share one baseline, and injected faults on the batched engine still
    reproduce it bit for bit under every ``REPRO_CHAOS_SEED``.
    """

    def test_scalar_engine_shares_the_baseline(self, make_fuzzer, events,
                                               baseline, monkeypatch):
        from repro.cpu import batch
        monkeypatch.setattr(batch, "FORCE_SCALAR", True)
        scalar_report = make_fuzzer().fuzz(events)
        assert report_key(scalar_report) == report_key(baseline)

    def test_faults_on_batched_engine_match_baseline(self, make_fuzzer,
                                                     events, baseline,
                                                     tmp_path):
        """Transient shard raises + torn shard-store writes on the
        vectorized path: retries re-enter the batch engine (memo warm
        or cold), and the pass that re-screens the torn shards must
        converge to the fault-free report too."""
        plan = chaos_plan(
            FaultSpec(point="campaign.shard", mode="raise",
                      probability=0.5, times=1),
            FaultSpec(point="checkpoint.write", mode="corrupt",
                      probability=0.6, times=1))
        chaos = FuzzingCampaign(make_fuzzer(), cache_dir=tmp_path,
                                fault_plan=plan,
                                supervisor_policy=FAST_POLICY)
        assert report_key(chaos.run(events)) == report_key(baseline)
        assert chaos.stats.quarantined == []
        warm = FuzzingCampaign(make_fuzzer(), cache_dir=tmp_path)
        assert report_key(warm.run(events)) == report_key(baseline)


class TestWorkerKills:
    def test_killed_workers_recovered_by_pool_rebuild(self, make_fuzzer,
                                                      events, baseline):
        """Half the shards os._exit their worker mid-campaign (the
        acceptance bar's >= 20%); the pool is rebuilt and the report is
        unchanged."""
        plan = chaos_plan(FaultSpec(point="campaign.shard", mode="kill",
                                    times=1, match=(0, 80)))
        campaign = FuzzingCampaign(make_fuzzer(), workers=2,
                                   fault_plan=plan,
                                   supervisor_policy=FAST_POLICY)
        report = campaign.run(events)
        assert report_key(report) == report_key(baseline)
        stats = campaign.stats
        assert stats.pool_restarts >= 1
        assert any(f.kind == "worker-lost" for f in stats.shard_failures)
        assert stats.quarantined == []


class TestTimeouts:
    def test_hung_shard_abandoned_and_retried(self, make_fuzzer, events,
                                              baseline):
        plan = chaos_plan(FaultSpec(point="campaign.shard", mode="hang",
                                    hang_seconds=2.0, times=1, match=(0,)))
        policy = SupervisorPolicy(shard_timeout=0.25, backoff_base=0.005,
                                  backoff_cap=0.02, seed=CHAOS_SEED)
        campaign = FuzzingCampaign(make_fuzzer(), workers=2,
                                   fault_plan=plan,
                                   supervisor_policy=policy)
        report = campaign.run(events)
        assert report_key(report) == report_key(baseline)
        stats = campaign.stats
        assert stats.timeouts >= 1
        assert stats.pool_restarts >= 1
        assert stats.quarantined == []
        # The hung worker was stopped, not left behind.
        assert multiprocessing.active_children() == []


class TestQuarantine:
    def test_poison_gadget_is_bisected_out(self, make_fuzzer, events,
                                           baseline):
        """A gadget that persistently kills its shard is quarantined;
        the campaign completes and loses at most that one gadget."""
        plan = chaos_plan(FaultSpec(point="campaign.shard", mode="raise",
                                    gadgets=(13,)))
        campaign = FuzzingCampaign(make_fuzzer(), fault_plan=plan,
                                   supervisor_policy=FAST_POLICY)
        report = campaign.run(events)
        stats = campaign.stats
        assert stats.quarantined_gadgets == [13]
        assert stats.bisections >= 3  # 40 -> 20 -> ... -> 1
        # Equivalence minus the quarantined gadget: per-event candidate
        # counts drop by at most one (gadget 13's own contribution).
        for event, count in baseline.screened_per_event.items():
            assert count - report.screened_per_event[event] in (0, 1)
        assert report.gadgets_tested == baseline.gadgets_tested


class TestBackupRollback:
    def test_corrupt_primary_resumes_from_backup(self, make_fuzzer, events,
                                                 baseline, tmp_path):
        """Damage a checkpoint after two healthy generations: resume
        rolls back to the .bak instead of re-screening."""
        for _ in range(2):  # generation 1, then generation 2 + .bak
            FuzzingCampaign(make_fuzzer(),
                            checkpoint_dir=tmp_path).run(events)
        path = shard_checkpoint_path(tmp_path, 2)
        path.write_text(corrupt_text(path.read_text(encoding="utf-8")),
                        encoding="utf-8")
        resumed = FuzzingCampaign(make_fuzzer(), checkpoint_dir=tmp_path,
                                  resume=True)
        report = resumed.run(events)
        assert report_key(report) == report_key(baseline)
        assert resumed.stats.resumed_shards == len(SHARD_STARTS)
        assert resumed.stats.screened_shards == 0


class TestPlanGeometry:
    def test_fixture_matches_assumed_shards(self, make_fuzzer):
        fuzzer = make_fuzzer()
        starts = tuple(s.start for s in plan_shards(fuzzer.gadget_budget,
                                                    fuzzer.shard_size))
        assert starts == SHARD_STARTS


class TestFleetChaos:
    """The fleet control plane under the same seeded chaos sweep."""

    @staticmethod
    def _replay(plan):
        from repro.fleet import (
            FleetControlPlane,
            LoadGenerator,
            default_artifact,
            default_specs,
        )
        plane = FleetControlPlane(default_artifact(), seed=CHAOS_SEED,
                                  capacity=256, watermark=64)
        generator = LoadGenerator(plane, default_specs(3), windows=2,
                                  slices_per_window=60)
        with resilience.session(plan):
            return generator.run()

    def test_absorbed_provision_faults_keep_replay_bit_identical(self):
        """Transient ``fleet.provision`` faults under every chaos seed
        must be retry-absorbed without perturbing a single tenant's
        noise sequence or ε-ledger."""
        baseline_report = self._replay(None)
        chaos_report = self._replay(chaos_plan(
            FaultSpec(point="fleet.provision", mode="raise",
                      probability=0.5, times=1)))
        assert chaos_report.rejected_windows == 0
        assert chaos_report.fingerprint() == baseline_report.fingerprint()

    def test_wedged_provisioner_fails_closed_fleet_wide(self):
        """Persistent provisioning faults must starve every window into
        backpressure — never an un-noised read, never spent budget."""
        report = self._replay(chaos_plan(
            FaultSpec(point="fleet.provision", mode="raise", times=0)))
        assert report.served_windows == 0
        assert all(set(reasons) == {"backpressure"}
                   for reasons in report.rejections.values())
        assert all(row["releases"] == 0 and row["stalled_slices"] > 0
                   for row in report.budgets.values())
