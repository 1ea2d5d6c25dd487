"""Tests for the horizontally sharded fleet control plane.

Three properties carry the sharded design and are pinned here:

- **routing** — consistent-hash placement is deterministic and moves
  only the tenants a reshard must move (exact, not just ~1/N);
- **reshard bit-identity** — per-tenant replay digests equal the
  single-plane fleet's at any shard count, under injected provision
  faults, and through kill-a-shard crash recovery;
- **state plumbing** — status files survive torn writes, a real shard
  error stops every worker of its wave, and the event-driven tick only
  visits due tenants without changing a digest.
"""

import hashlib
import json
import multiprocessing
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.fleet import (
    FleetControlPlane,
    FleetRouter,
    LoadGenerator,
    ShardCrashed,
    ShardedFleet,
    TenantSpec,
    default_artifact,
    default_specs,
    read_json,
    sweep_stale_tmp,
    write_json_atomic,
)
from repro.fleet.shard import FleetShard, merge_slo
from repro.fleet.statefile import TMP_PREFIX, TMP_SUFFIX
from repro.observability.slo import SloTracker
from repro.resilience.faults import FaultPlan

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "7"))

SEED = 11
WINDOWS = 2
SLICES = 60

#: SHA-256 of the sorted-key JSON fingerprint of an 8-tenant, 2-shard
#: inline run at seed 7 (``test_fingerprint_pinned``).
PINNED_FINGERPRINT_DIGEST = ("40c3423ba10d68987db49bd56fe5a5a1"
                             "46f49f62c121829e75bf0f3f44470bff")

tenant_ids = st.lists(
    st.text(alphabet="abcdefghij0123456789", min_size=1, max_size=8),
    min_size=1, max_size=40, unique=True)


def kill_plan(*match, times=1):
    return FaultPlan.parse(json.dumps({
        "seed": 3,
        "faults": [{"point": "fleet.shard", "mode": "kill",
                    "times": times, "match": list(match)}]}))


def run_sharded(artifact, specs, shards=2, mode="inline", **kwargs):
    run_kwargs = {k: kwargs.pop(k) for k in ("observe",) if k in kwargs}
    fleet = ShardedFleet(artifact, shards=shards, seed=SEED, **kwargs)
    return fleet.run(specs, windows=WINDOWS, slices_per_window=SLICES,
                     mode=mode, **run_kwargs)


@pytest.fixture(scope="module")
def artifact():
    return default_artifact()


@pytest.fixture(scope="module")
def specs():
    return default_specs(6)


@pytest.fixture(scope="module")
def reference(artifact, specs):
    """The unsharded fleet's fingerprint — what every shard count,
    fault leg, and recovery path must reproduce byte for byte."""
    plane = FleetControlPlane(artifact, seed=SEED)
    return LoadGenerator(plane, list(specs), windows=WINDOWS,
                         slices_per_window=SLICES).run().fingerprint()


class TestRouter:
    @given(tenants=tenant_ids, shards=st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_assignment_deterministic_and_total(self, tenants, shards):
        router = FleetRouter.for_shard_count(shards)
        rebuilt = FleetRouter.for_shard_count(shards)
        grouped = router.assignments(tenants)
        assert sorted(t for ts in grouped.values() for t in ts) \
            == sorted(tenants)
        assert set(grouped) == set(range(shards))
        for tenant in tenants:
            assert router.assign(tenant) == rebuilt.assign(tenant)

    @given(tenants=tenant_ids, shards=st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_growth_moves_tenants_only_to_the_new_shard(self, tenants,
                                                        shards):
        router = FleetRouter.for_shard_count(shards)
        grown = router.with_shard(shards)
        for tenant in tenants:
            before, after = router.assign(tenant), grown.assign(tenant)
            assert after == before or after == shards

    @given(tenants=tenant_ids, shards=st.integers(2, 6))
    @settings(max_examples=50, deadline=None)
    def test_crash_moves_only_the_crashed_shards_tenants(self, tenants,
                                                         shards):
        router = FleetRouter.for_shard_count(shards)
        crashed = CHAOS_SEED % shards
        shrunk = router.without_shard(crashed)
        for tenant in tenants:
            before, after = router.assign(tenant), shrunk.assign(tenant)
            if before == crashed:
                assert after != crashed
            else:
                assert after == before

    def test_every_shard_gets_tenants_at_scale(self):
        router = FleetRouter.for_shard_count(4)
        grouped = router.assignments(f"t{i:03d}" for i in range(256))
        sizes = {shard: len(ts) for shard, ts in grouped.items()}
        assert all(sizes[s] > 0 for s in range(4)), sizes
        assert max(sizes.values()) / min(sizes.values()) < 4.0, sizes

    def test_rejects_empty_duplicate_and_exhausted(self):
        with pytest.raises(ValueError, match="at least one shard"):
            FleetRouter(())
        with pytest.raises(ValueError, match="duplicate"):
            FleetRouter((1, 1))
        with pytest.raises(ValueError, match="empty fleet"):
            FleetRouter((0,)).without_shard(0)
        with pytest.raises(ValueError, match="already routed"):
            FleetRouter((0,)).with_shard(0)


class TestStatefile:
    def test_atomic_write_round_trips(self, tmp_path):
        path = write_json_atomic(tmp_path / "state.json", {"a": [1, 2]})
        assert read_json(path) == {"a": [1, 2]}

    def test_write_replaces_without_torn_state(self, tmp_path):
        path = tmp_path / "state.json"
        write_json_atomic(path, {"generation": 1})
        write_json_atomic(path, {"generation": 2})
        assert read_json(path) == {"generation": 2}
        assert list(tmp_path.iterdir()) == [path]

    def test_stale_tmp_from_a_crashed_writer_is_swept(self, tmp_path):
        stale = tmp_path / f"{TMP_PREFIX}orphan{TMP_SUFFIX}"
        stale.write_text("{\"trunca")
        assert sweep_stale_tmp(tmp_path) == 1
        assert not stale.exists()
        stale.write_text("{\"trunca")
        write_json_atomic(tmp_path / "state.json", {"ok": True})
        assert not stale.exists()


class TestEventDrivenTick:
    """Each tick sweeps every tenant, in sorted order."""

    def test_interval_one_sweeps_every_tenant(self, artifact, specs):
        plane = FleetControlPlane(artifact, seed=SEED)
        for spec in specs:
            plane.admit_tenant(spec)
        plane.tick()
        reads = len(plane.monitored_events)
        assert {tenant_id: runtime.hpc_reads
                for tenant_id, runtime in plane.tenants.items()} \
            == {spec.tenant_id: reads for spec in specs}


class TestShardedFleet:
    def test_fingerprint_pinned(self):
        fleet = ShardedFleet(default_artifact("amd-epyc-7252"), shards=2,
                             seed=7)
        report = fleet.run(default_specs(8), windows=3,
                           slices_per_window=200, mode="inline")
        fingerprint = json.dumps(report.fingerprint(), sort_keys=True)
        assert (hashlib.sha256(fingerprint.encode()).hexdigest()
                == PINNED_FINGERPRINT_DIGEST)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_inline_digests_match_the_unsharded_fleet(
            self, artifact, specs, reference, shards):
        report = run_sharded(artifact, specs, shards=shards)
        assert report.fingerprint() == reference
        assert report.served_slices == len(specs) * WINDOWS * SLICES

    def test_process_mode_matches_inline(self, artifact, specs,
                                         reference):
        report = run_sharded(artifact, specs, shards=2, mode="process")
        assert report.fingerprint() == reference
        pids = {r.pid for r in report.shard_reports}
        assert os.getpid() not in pids and len(pids) == 2

    def test_provision_fault_stays_shard_invariant(self, artifact,
                                                   specs, reference):
        plan = FaultPlan.parse(
            '{"seed": 9, "faults": '
            '[{"point": "fleet.provision", "mode": "raise",'
            ' "times": 1}]}')
        for shards in (1, 3):
            report = run_sharded(artifact, specs, shards=shards,
                                 fault_plan=plan)
            assert report.fingerprint() == reference

    def test_killed_shard_recovers_digest_identical(self, artifact,
                                                    specs, reference):
        victim = CHAOS_SEED % 2
        fleet = ShardedFleet(artifact, shards=2, seed=SEED,
                             fault_plan=kill_plan(victim))
        report = fleet.run(specs, windows=WINDOWS,
                           slices_per_window=SLICES, mode="process")
        assert report.fingerprint() == reference
        assert [c["crashed_shards"] for c in report.crashes] \
            == [[victim]]
        lost = set(report.crashes[0]["lost_tenants"])
        assert lost == {t for t, s in
                        ((t, fleet.router.assign(t))
                         for t in (s.tenant_id for s in specs))
                        if s == victim}
        status = fleet.status(report)
        assert status["health"]["healthy"]
        assert status["sharding"]["crashes"] == report.crashes
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("point", ["fleet.admit",
                                       "fleet.provision"])
    def test_kill_inside_serve_path_recovers_digest_identical(
            self, artifact, specs, reference, point):
        # A kill mid-admission/provision dies inside a window, not at
        # the shard boundary; the replacement generation's attempt
        # bias keeps the consumed fault from re-firing, so recovery
        # must still land on the reference digest.
        plan = FaultPlan.parse(json.dumps({
            "seed": 3,
            "faults": [{"point": point, "mode": "kill",
                        "times": 1}]}))
        fleet = ShardedFleet(artifact, shards=2, seed=SEED,
                             fault_plan=plan)
        report = fleet.run(specs, windows=WINDOWS,
                           slices_per_window=SLICES, mode="process")
        assert report.fingerprint() == reference
        assert report.crashes and report.crashes[0]["crashed_shards"]

    def test_every_shard_killed_recovers_inline(self, artifact, specs,
                                                reference):
        # Inline mode demotes kill to raise; a match-less times:1 plan
        # crashes every shard at generation 0, then generation 1 reruns
        # the same assignment clean.
        report = run_sharded(artifact, specs, shards=2,
                             fault_plan=kill_plan())
        assert report.fingerprint() == reference
        assert report.crashes[0]["crashed_shards"] == [0, 1]

    def test_hung_shards_detected_within_one_timeout(self, artifact, specs,
                                                     reference):
        # Every shard of the wave hangs far past the timeout; the wave
        # shares one deadline, so all three are abandoned after one
        # shard_timeout_s (not one each) and the next generation
        # replays them clean.
        plan = FaultPlan.parse(json.dumps({
            "seed": 3,
            "faults": [{"point": "fleet.shard", "mode": "hang",
                        "times": 1, "hang_seconds": 30.0}]}))
        fleet = ShardedFleet(artifact, shards=3, seed=SEED,
                             fault_plan=plan, shard_timeout_s=1.0)
        started = time.perf_counter()
        report = fleet.run(specs, windows=WINDOWS,
                           slices_per_window=SLICES, mode="process")
        elapsed = time.perf_counter() - started
        assert report.fingerprint() == reference
        assert [c["crashed_shards"] for c in report.crashes] == [[0, 1, 2]]
        assert elapsed < 2.5

    def test_hung_single_shard_stopped_within_one_timeout(
            self, artifact, specs, reference):
        # A one-shard wave runs on a worker too: in-process, a hung
        # shard could not be stopped at all.
        plan = FaultPlan.parse(json.dumps({
            "seed": 3,
            "faults": [{"point": "fleet.shard", "mode": "hang",
                        "times": 1, "hang_seconds": 30.0}]}))
        fleet = ShardedFleet(artifact, shards=1, seed=SEED,
                             fault_plan=plan, shard_timeout_s=1.0)
        started = time.perf_counter()
        report = fleet.run(specs, windows=WINDOWS,
                           slices_per_window=SLICES, mode="process")
        elapsed = time.perf_counter() - started
        assert report.fingerprint() == reference
        assert [c["crashed_shards"] for c in report.crashes] == [[0]]
        assert [r.generation for r in report.shard_reports] == [1]
        assert elapsed < 2.5

    def test_shard_error_stops_the_rest_of_its_wave(self, artifact,
                                                    specs):
        # Shard 0 fails for real (an unknown workload), while shard 1
        # hangs far past the error. The error must surface at once and
        # take shard 1 down with it, not leave it running to its hang.
        router = FleetRouter.for_shard_count(2)
        broken = next(s.tenant_id for s in specs
                      if router.assign(s.tenant_id) == 0)
        wave = [TenantSpec(tenant_id=s.tenant_id,
                           workload="no-such-workload")
                if s.tenant_id == broken else s for s in specs]
        plan = FaultPlan.parse(json.dumps({
            "seed": 3,
            "faults": [{"point": "fleet.shard", "mode": "hang",
                        "times": 1, "hang_seconds": 30.0,
                        "match": [1]}]}))
        fleet = ShardedFleet(artifact, shards=2, seed=SEED,
                             fault_plan=plan, shard_timeout_s=60.0)
        started = time.perf_counter()
        with pytest.raises(ShardCrashed,
                           match="shard 0 failed: ValueError: unknown "
                                 "workload 'no-such-workload'"):
            fleet.run(wave, windows=WINDOWS, slices_per_window=SLICES,
                      mode="process")
        assert multiprocessing.active_children() == []
        assert time.perf_counter() - started < 10.0

    def test_persistent_crashes_exhaust_generations(self, artifact,
                                                    specs):
        fleet = ShardedFleet(artifact, shards=2, seed=SEED,
                             fault_plan=kill_plan(times=0),
                             max_generations=2)
        with pytest.raises(ShardCrashed, match="recovery generation"):
            fleet.run(specs, windows=WINDOWS, slices_per_window=SLICES,
                      mode="inline")

    def test_overflow_queue_serves_everyone(self, artifact, specs,
                                            reference):
        report = run_sharded(artifact, specs, shards=2,
                             max_tenants_per_shard=2,
                             overflow_policy="queue")
        assert report.fingerprint() == reference
        assert report.queued_tenants and not report.dropped_tenants

    def test_overflow_drop_is_loud_and_unhealthy(self, artifact,
                                                 specs):
        fleet = ShardedFleet(artifact, shards=2, seed=SEED,
                             max_tenants_per_shard=2,
                             overflow_policy="drop")
        report = fleet.run(specs, windows=WINDOWS,
                           slices_per_window=SLICES, mode="inline")
        assert report.dropped_tenants
        assert len(report.tenants) + len(report.dropped_tenants) \
            == len(specs)
        status = fleet.status(report)
        assert not status["health"]["healthy"]
        assert any("dropped" in r for r in status["health"]["reasons"])

    def test_observe_merges_shard_slo_windows(self, artifact, specs,
                                              reference):
        report = run_sharded(artifact, specs, shards=2, observe=True)
        assert report.fingerprint() == reference
        serve = report.slo["fleet.serve_window"]
        assert serve["count"] == len(specs) * WINDOWS

    def test_observed_kill_counts_only_the_replayed_windows(
            self, artifact, specs, reference):
        fleet = ShardedFleet(artifact, shards=2, seed=SEED,
                             fault_plan=kill_plan(0))
        report = fleet.run(specs, windows=WINDOWS,
                           slices_per_window=SLICES, mode="process",
                           observe=True)
        assert report.fingerprint() == reference
        assert [c["crashed_shards"] for c in report.crashes] == [[0]]
        # The killed generation's windows die with its worker; the
        # replayed ones are counted once, like every other window.
        assert report.slo["fleet.serve_window"]["count"] \
            == report.served_windows == len(specs) * WINDOWS
        assert fleet.status(report)["sharding"]["slo"] == report.slo

    def test_rejects_bad_config(self, artifact, specs):
        with pytest.raises(ValueError, match="overflow_policy"):
            ShardedFleet(artifact, overflow_policy="explode")
        with pytest.raises(ValueError, match="max_tenants_per_shard"):
            ShardedFleet(artifact, max_tenants_per_shard=0)
        # A zero timeout would read every healthy shard as crashed.
        for timeout in (0.0, -1.0):
            with pytest.raises(ValueError, match="shard_timeout_s"):
                ShardedFleet(artifact, shard_timeout_s=timeout)
        with pytest.raises(ValueError, match="max_generations"):
            ShardedFleet(artifact, max_generations=-1)
        with pytest.raises(ValueError, match="mode"):
            ShardedFleet(artifact).run(specs, mode="thread")
        with pytest.raises(ValueError, match="duplicate"):
            ShardedFleet(artifact).run(list(specs) + [specs[0]])

    def test_shard_report_is_picklable(self, artifact, specs):
        import pickle
        shard = FleetShard(shard_id=0, artifact=artifact, seed=SEED,
                           specs=list(specs)[:2], windows=1,
                           slices_per_window=16)
        report = shard.run()
        clone = pickle.loads(pickle.dumps(report))
        assert clone.replay.read_digests == report.replay.read_digests


class TestMergeSlo:
    def test_buckets_sum_over_the_union(self):
        shard_a, shard_b, whole = SloTracker(), SloTracker(), SloTracker()
        for tracker, values in ((shard_a, (3e-5, 2e-4, 2e-4)),
                                (shard_b, (7e-4, 4e-3))):
            for value in values:
                tracker.observe("op", value)
                whole.observe("op", value)
        shard_b.observe("other", 9e-3)
        exports = [shard_a.histograms(), shard_b.histograms()]
        merged = merge_slo(exports)
        assert sorted(merged) == ["op", "other"]
        # One pass over the union: every bucket is the sum of the two
        # shards' and the readout is the single tracker's.
        assert merged["op"] == whole.readout("op")
        assert whole.histograms()["op"]["counts"] == [
            a + b for a, b in zip(exports[0]["op"]["counts"],
                                  exports[1]["op"]["counts"])]
        assert merged["other"]["count"] == 1

    def test_mismatched_bounds_raise(self):
        other = {"op": {"bounds": [1.0], "counts": [1, 0],
                        "total": 0.5, "count": 1}}
        tracker = SloTracker()
        tracker.observe("op", 1e-4)
        with pytest.raises(ValueError, match="mismatched bucket bounds"):
            merge_slo([tracker.histograms(), other])


class TestShardedCli:
    def test_serve_with_shards_writes_mergeable_status(self, tmp_path,
                                                       capsys):
        code = main(["fleet", "serve", "--seed", str(SEED),
                     "--tenants", "4", "--windows", "2",
                     "--slices", "50", "--shards", "2",
                     "--shard-mode", "inline",
                     "--state-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "sharding: 2 shard(s), inline mode" in out
        status = read_json(tmp_path / "fleet-status.json")
        assert status["sharding"]["shards"] == 2
        assert len(status["replay"]["read_digests"]) == 4
        assert main(["fleet", "status", "--state-dir",
                     str(tmp_path)]) == 0

    def test_shards_accept_attackers_and_defense(self, tmp_path,
                                                 capsys):
        # Attacker traces used to be single-plane only; the defense
        # plane made them shard-aware, so the old rejection is gone.
        code = main(["fleet", "serve", "--seed", str(SEED),
                     "--tenants", "4", "--windows", "2",
                     "--slices", "50", "--shards", "2",
                     "--shard-mode", "inline",
                     "--attackers", "t00=burst-poll",
                     "--defense-policy", "aggressive",
                     "--state-dir", str(tmp_path)])
        assert code == 0
        status = read_json(tmp_path / "fleet-status.json")
        assert status["defense"]["profile"]["name"] == "aggressive"
        assert "t00" in status["defense"]["tenants"]
        assert main(["fleet", "status", "--state-dir",
                     str(tmp_path)]) == 0
        assert "defense: profile aggressive" in capsys.readouterr().out

    def test_shards_reject_unknown_attacker_tenant(self):
        with pytest.raises(SystemExit, match="unknown tenant"):
            main(["fleet", "serve", "--tenants", "2", "--windows", "1",
                  "--slices", "20", "--shards", "2",
                  "--attackers", "nope=burst-poll"])

    def test_replay_with_shards_is_bit_identical(self, tmp_path,
                                                 capsys):
        code = main(["fleet", "replay", "--seed", str(SEED),
                     "--tenants", "4", "--windows", "2",
                     "--slices", "50", "--shards", "2",
                     "--shard-mode", "inline",
                     "--state-dir", str(tmp_path)])
        assert code == 0
        assert "bit-identical" in capsys.readouterr().out
