"""Resilience unit tests: fault plans, supervisor, fail-closed daemon.

The acceptance bar: faults are deterministic (same plan, same firings),
the supervisor degrades instead of aborting, and the obfuscator never
emits an un-noised value no matter what the fault plan does to it.
"""

import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.core.fuzzer.campaign import (
    ShardResult,
    ShardSpec,
    load_shard_checkpoint,
    save_shard_checkpoint,
    shard_checkpoint_path,
)
from repro.core.obfuscator import (
    EventObfuscator,
    KernelModule,
    KernelModuleCrashed,
    NoiseCalculator,
    NoiseExhausted,
    UserspaceDaemon,
)
from repro.core.obfuscator.dp import DstarMechanism
from repro.cpu.signals import NUM_SIGNALS, Signal
from repro.resilience import runtime as resilience
from repro.resilience.faults import (
    KILL_EXIT_STATUS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    corrupt_text,
    stable_key,
)
from repro.resilience.supervisor import (
    ShardFailure,
    ShardSupervisor,
    SupervisorPolicy,
)
from repro.resilience.watchdog import DaemonWatchdog
from repro.telemetry import runtime as telemetry


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with no ambient injector."""
    resilience.disarm()
    yield
    resilience.disarm()


@pytest.fixture()
def injector(amd_catalog):
    from repro.core.obfuscator import NoiseInjector
    from repro.core.obfuscator.injector import default_noise_segment
    reference = amd_catalog.weights[amd_catalog.index_of("RETIRED_UOPS")]
    return NoiseInjector(default_noise_segment(), reference,
                         clip_bound=1e7)


def plan(*faults, seed=7):
    return FaultPlan(seed=seed, faults=tuple(faults))


class TestFaultSpec:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="fault point"):
            FaultSpec(point="campaign.nope", mode="raise")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="fault mode"):
            FaultSpec(point="campaign.shard", mode="explode")

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(point="campaign.shard", mode="raise", probability=1.5)

    def test_gadgets_only_for_shards(self):
        with pytest.raises(ValueError, match="gadgets"):
            FaultSpec(point="checkpoint.write", mode="raise", gadgets=(3,))


class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        p = plan(FaultSpec(point="campaign.shard", mode="raise",
                           probability=0.5))
        first = [p.decide("campaign.shard", key=k) is not None
                 for k in range(64)]
        second = [p.decide("campaign.shard", key=k) is not None
                  for k in range(64)]
        assert first == second
        assert 5 < sum(first) < 60  # probabilistic, not all-or-nothing

    def test_seed_changes_decisions(self):
        spec = FaultSpec(point="campaign.shard", mode="raise",
                         probability=0.5)
        a = [plan(spec, seed=1).decide("campaign.shard", key=k) is not None
             for k in range(64)]
        b = [plan(spec, seed=2).decide("campaign.shard", key=k) is not None
             for k in range(64)]
        assert a != b

    def test_times_burn_out(self):
        p = plan(FaultSpec(point="campaign.shard", mode="raise", times=2))
        assert p.decide("campaign.shard", key=0, attempt=0) is not None
        assert p.decide("campaign.shard", key=0, attempt=1) is not None
        assert p.decide("campaign.shard", key=0, attempt=2) is None

    def test_times_zero_is_persistent(self):
        p = plan(FaultSpec(point="campaign.shard", mode="raise", times=0))
        assert p.decide("campaign.shard", key=0, attempt=99) is not None

    def test_match_restricts_keys(self):
        p = plan(FaultSpec(point="checkpoint.write", mode="corrupt",
                           match=(2,)))
        assert p.decide("checkpoint.write", key=2) is not None
        assert p.decide("checkpoint.write", key=3) is None

    def test_gadget_targeting_follows_span(self):
        p = plan(FaultSpec(point="campaign.shard", mode="raise",
                           gadgets=(13,)))
        assert p.decide("campaign.shard", key=0, span=(0, 40)) is not None
        assert p.decide("campaign.shard", key=40, span=(40, 80)) is None
        # Persistent: bisection retries keep failing while 13 is inside.
        assert p.decide("campaign.shard", key=0, attempt=5,
                        span=(13, 14)) is not None

    def test_json_round_trip(self):
        p = plan(FaultSpec(point="campaign.shard", mode="kill",
                           probability=0.25, times=2, match=(0, 40)),
                 FaultSpec(point="search.corpus.write", mode="corrupt"))
        assert FaultPlan.from_json(p.to_json()) == p

    def test_parse_inline_and_file(self, tmp_path):
        p = plan(FaultSpec(point="checkpoint.write", mode="corrupt"))
        assert FaultPlan.parse(p.to_json()) == p
        path = tmp_path / "plan.json"
        path.write_text(p.to_json(), encoding="utf-8")
        assert FaultPlan.parse(str(path)) == p

    def test_parse_rejects_garbage(self, tmp_path):
        with pytest.raises(ValueError, match="fault plan|JSON"):
            FaultPlan.parse("no-such-file.json")
        with pytest.raises(ValueError, match="fault plan"):
            FaultPlan.parse('{"faults": [{"point": "bogus", '
                            '"mode": "raise"}]}')


class TestCorruptText:
    def test_never_valid_json(self):
        for key in range(20):
            damaged = corrupt_text('{"a": 1, "b": [2, 3]}', key=key)
            with pytest.raises(ValueError):
                json.loads(damaged)

    def test_deterministic(self):
        assert corrupt_text("payload", key=5) == corrupt_text("payload",
                                                              key=5)

    def test_empty_input(self):
        assert corrupt_text("") == "\x00"


class TestFaultInjector:
    def test_raise_mode(self):
        injector = FaultInjector(plan(
            FaultSpec(point="campaign.shard", mode="raise")))
        with pytest.raises(InjectedFault) as err:
            injector.check("campaign.shard", key=3)
        assert err.value.point == "campaign.shard"
        assert err.value.key == 3

    def test_corrupt_mode_returns_spec(self):
        injector = FaultInjector(plan(
            FaultSpec(point="checkpoint.write", mode="corrupt")))
        spec = injector.check("checkpoint.write", key=1)
        assert spec is not None and spec.mode == "corrupt"

    def test_hang_mode_sleeps(self):
        injector = FaultInjector(plan(
            FaultSpec(point="campaign.shard", mode="hang",
                      hang_seconds=0.05)))
        start = time.perf_counter()
        spec = injector.check("campaign.shard", key=0)
        assert spec.mode == "hang"
        assert time.perf_counter() - start >= 0.04

    def test_kill_demoted_outside_sacrificial_process(self):
        injector = FaultInjector(plan(
            FaultSpec(point="campaign.shard", mode="kill")))
        assert not injector.sacrificial
        with pytest.raises(InjectedFault, match="demoted"):
            injector.check("campaign.shard", key=0)

    def test_implicit_attempt_burns_out(self):
        injector = FaultInjector(plan(
            FaultSpec(point="checkpoint.write", mode="raise", times=1)))
        with pytest.raises(InjectedFault):
            injector.check("checkpoint.write", key=9)
        assert injector.check("checkpoint.write", key=9) is None
        with pytest.raises(InjectedFault):  # other keys fault independently
            injector.check("checkpoint.write", key=10)

    def test_fired_lands_in_metrics(self):
        with telemetry.session():
            injector = FaultInjector(plan(
                FaultSpec(point="checkpoint.write", mode="corrupt")))
            injector.check("checkpoint.write", key=0)
            counters = telemetry.metrics().snapshot()["counters"]
        assert counters["fault.injected"] == 1
        assert counters["fault.checkpoint.write"] == 1


class TestRuntime:
    def test_session_arms_and_restores(self):
        assert not resilience.armed()
        with resilience.session(plan(
                FaultSpec(point="campaign.shard", mode="raise"))):
            assert resilience.armed()
            with pytest.raises(InjectedFault):
                resilience.check("campaign.shard", key=0)
        assert not resilience.armed()
        assert resilience.check("campaign.shard", key=0) is None

    def test_none_plan_passes_through(self):
        with resilience.session(None) as injector:
            assert not injector.enabled


class TestSupervisorPolicy:
    def test_backoff_deterministic_and_capped(self):
        policy = SupervisorPolicy(backoff_base=0.1, backoff_cap=0.4,
                                  backoff_jitter=0.25, seed=7)
        series = [policy.backoff_seconds(40, n) for n in range(1, 6)]
        assert series == [policy.backoff_seconds(40, n)
                          for n in range(1, 6)]
        assert all(0.1 <= s <= 0.4 * 1.25 for s in series)
        assert series[-1] <= 0.5  # capped despite exponential growth

    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisorPolicy(shard_timeout=0.0)
        with pytest.raises(ValueError):
            SupervisorPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            SupervisorPolicy(backoff_jitter=-0.1)


def fast_policy(**kwargs):
    kwargs.setdefault("backoff_base", 0.001)
    kwargs.setdefault("backoff_cap", 0.002)
    kwargs.setdefault("max_retries", 1)
    return SupervisorPolicy(**kwargs)


class TestShardSupervisorInline:
    def make(self, fn, policy=None, results=None):
        results = results if results is not None else []
        return ShardSupervisor(
            fn=fn, args=lambda shard, attempt, sacrificial: (shard, attempt),
            on_result=results.append,
            empty_result=lambda failure: ("empty", failure.shard_start),
            policy=policy or fast_policy()), results

    def test_flaky_shard_retried_to_success(self):
        def flaky(shard, attempt):
            if attempt == 0:
                raise RuntimeError("transient")
            return ("ok", shard.start)

        supervisor, results = self.make(flaky)
        report = supervisor.run([ShardSpec(index=0, start=0, count=4)])
        assert results == [("ok", 0)]
        assert report.retries == 1
        assert [f.kind for f in report.failures] == ["error"]

    def test_persistent_failure_bisects_to_quarantine(self):
        poison = 13

        def poisoned(shard, attempt):
            if shard.start <= poison < shard.start + shard.count:
                raise RuntimeError("poison gadget")
            return ("ok", shard.start, shard.count)

        supervisor, results = self.make(
            poisoned, policy=fast_policy(max_retries=1))
        report = supervisor.run([ShardSpec(index=0, start=8, count=8)])
        assert [r for r in results if r[0] == "empty"] == [("empty", poison)]
        assert report.bisections >= 3  # 8 -> 4 -> 2 -> 1
        # Every healthy gadget was screened; only the poison is empty.
        screened = sorted(r[1] for r in results if r[0] == "ok")
        assert ("empty", poison) in results
        covered = sorted(set(range(8, 16)) - {poison})
        assert all(start in range(8, 16) for start in screened)
        assert sum(r[2] for r in results if r[0] == "ok") == len(covered)

    def test_single_gadget_quarantine_keeps_totals(self):
        def broken(shard, attempt):
            raise RuntimeError("always")

        supervisor, results = self.make(
            broken, policy=fast_policy(max_retries=0))
        report = supervisor.run([ShardSpec(index=0, start=5, count=1)])
        assert results == [("empty", 5)]
        # The final failure, as empty_result received it.
        assert report.failures == [ShardFailure(
            shard_start=5, shard_count=1, attempt=0, kind="error",
            detail="RuntimeError: always")]

    def test_each_run_reports_only_its_own_shards(self):
        def flaky(shard, attempt):
            if attempt == 0 and shard.start == 0:
                raise RuntimeError("transient")
            return ("ok", shard.start)

        supervisor, results = self.make(flaky)
        assert supervisor.run([ShardSpec(index=0, start=0,
                                         count=4)]).retries == 1
        report = supervisor.run([ShardSpec(index=1, start=4, count=4)])
        assert (report.retries, report.failures) == (0, [])
        assert results == [("ok", 0), ("ok", 4)]


def _shard_start(shard, attempt):
    return shard.start


def _kill_shard_4_once(shard, attempt):
    if shard.start == 4 and attempt == 0:
        os._exit(KILL_EXIT_STATUS)
    time.sleep(0.2)  # the other tasks are still in flight at the kill
    return shard.start, attempt


def _raise_on_shard_0_else_hang(shard, attempt):
    if shard.start == 0:
        raise RuntimeError("poison")
    time.sleep(30.0)


def _return_on_shard_0_else_hang(shard, attempt):
    if shard.start == 0:
        return shard.start
    time.sleep(30.0)


def _unpicklable(shard, attempt):
    return lambda: shard.start


def _interrupt(result):
    raise KeyboardInterrupt


def _fail_closed(failure):
    raise RuntimeError("fail closed")


def pooled(fn, results, **kwargs):
    """A 2-worker supervisor whose tasks get ``(shard, attempt)``."""
    kwargs.setdefault("on_result", results.append)
    kwargs.setdefault("empty_result", None)
    return ShardSupervisor(
        fn=fn, args=lambda shard, attempt, sacrificial: (shard, attempt),
        policy=fast_policy(), workers=2, **kwargs)


class TestShardSupervisorPool:
    def test_pool_outlives_each_run_until_closed(self):
        results = []
        shards = [ShardSpec(index=i, start=4 * i, count=4) for i in range(3)]
        with pooled(_shard_start, results) as supervisor:
            supervisor.run(shards, processes=True)
            pids = {w.process.pid for w in supervisor._workers}
            assert len(pids) == 2
            supervisor.run(shards, processes=True)
            assert {w.process.pid for w in supervisor._workers} == pids
        assert supervisor._workers == []
        assert multiprocessing.active_children() == []
        assert sorted(results) == sorted(2 * [0, 4, 8])

    def test_a_death_fails_only_its_own_task(self):
        results = []
        shards = [ShardSpec(index=i, start=4 * i, count=4) for i in range(4)]
        with pooled(_kill_shard_4_once, results) as supervisor:
            report = supervisor.run(shards, processes=True)
        assert report.failures == [ShardFailure(
            shard_start=4, shard_count=4, attempt=0, kind="worker-lost",
            detail=f"worker exited with status {KILL_EXIT_STATUS}")]
        assert sorted(results) == [(0, 0), (4, 1), (8, 0), (12, 0)]
        assert report.pool_restarts == 1

    def test_an_unpicklable_result_is_its_tasks_error(self):
        results = []
        shards = [ShardSpec(index=i, start=i, count=1) for i in range(2)]
        with pooled(_unpicklable, results,
                    empty_result=lambda failure: failure.kind) as supervisor:
            report = supervisor.run(shards, processes=True)
        assert results == ["error", "error"]
        assert {f.kind for f in report.failures} == {"error"}
        assert report.pool_restarts == 0  # no worker was lost

    @pytest.mark.parametrize("fn, hooks, raised", [
        (_raise_on_shard_0_else_hang, {"empty_result": _fail_closed},
         RuntimeError),
        (_return_on_shard_0_else_hang, {"on_result": _interrupt},
         KeyboardInterrupt),
    ], ids=["empty_result", "on_result"])
    def test_an_exception_out_of_a_run_stops_every_worker(
            self, fn, hooks, raised):
        # Shard 4 is still running (for 30 s) when shard 0's callback
        # raises: the busy worker is terminated, not waited for.
        supervisor = pooled(fn, [], **hooks)
        shards = [ShardSpec(index=i, start=4 * i, count=1) for i in range(2)]
        started = time.perf_counter()
        with pytest.raises(raised):
            supervisor.run(shards, processes=True)
        assert time.perf_counter() - started < 10.0
        assert multiprocessing.active_children() == []


class TestCheckpointDurability:
    def result(self, index=0, value=1.0):
        return ShardResult(index=index, start=0, count=4,
                           screened={7: [(0, value)]}, executions=4,
                           elapsed_seconds=0.1, cpu_seconds=0.1)

    def test_generation_and_backup(self, tmp_path):
        save_shard_checkpoint(tmp_path, self.result(value=1.0), "fp")
        save_shard_checkpoint(tmp_path, self.result(value=2.0), "fp")
        path = shard_checkpoint_path(tmp_path, 0)
        primary = json.loads(path.read_text(encoding="utf-8"))
        backup = json.loads(path.with_suffix(".json.bak")
                            .read_text(encoding="utf-8"))
        assert primary["generation"] == 2
        assert backup["generation"] == 1
        assert backup["screened"]["7"] == [[0, 1.0]]

    def test_corrupt_primary_rolls_back(self, tmp_path):
        shard = ShardSpec(index=0, start=0, count=4)
        save_shard_checkpoint(tmp_path, self.result(value=1.0), "fp")
        save_shard_checkpoint(tmp_path, self.result(value=2.0), "fp")
        path = shard_checkpoint_path(tmp_path, 0)
        path.write_text(corrupt_text(path.read_text(encoding="utf-8")),
                        encoding="utf-8")
        with telemetry.session():
            loaded = load_shard_checkpoint(tmp_path, shard, "fp")
            counters = telemetry.metrics().snapshot()["counters"]
        assert loaded is not None
        assert loaded.screened[7] == [(0, 1.0)]  # previous generation
        assert counters["checkpoint.rollbacks"] == 1

    def test_both_generations_corrupt_reads_missing(self, tmp_path):
        shard = ShardSpec(index=0, start=0, count=4)
        save_shard_checkpoint(tmp_path, self.result(), "fp")
        save_shard_checkpoint(tmp_path, self.result(), "fp")
        path = shard_checkpoint_path(tmp_path, 0)
        path.write_text("{torn", encoding="utf-8")
        path.with_suffix(".json.bak").write_text("{torn", encoding="utf-8")
        assert load_shard_checkpoint(tmp_path, shard, "fp") is None

    def test_injected_corrupt_write_spares_backup(self, tmp_path):
        shard = ShardSpec(index=0, start=0, count=4)
        save_shard_checkpoint(tmp_path, self.result(value=1.0), "fp")
        with resilience.session(plan(
                FaultSpec(point="checkpoint.write", mode="corrupt"))):
            save_shard_checkpoint(tmp_path, self.result(value=2.0), "fp")
        loaded = load_shard_checkpoint(tmp_path, shard, "fp")
        assert loaded is not None
        assert loaded.screened[7] == [(0, 1.0)]


class TestDiskStore:
    """The shard store behind ``cache_dir``, at the file level."""

    SHARD = ShardSpec(index=0, start=0, count=4)
    RESULT = ShardResult(index=0, start=0, count=4,
                         screened={7: [(0, 1.0), (2, 4.0)]})

    def test_put_get_round_trip(self, tmp_path):
        save_shard_checkpoint(tmp_path, self.RESULT, "fp")
        assert load_shard_checkpoint(tmp_path, self.SHARD,
                                     "fp") == self.RESULT
        assert [p.name for p in tmp_path.iterdir()] == ["shard-00000.json"]

    def test_failed_put_removes_temp(self, tmp_path, monkeypatch):
        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            save_shard_checkpoint(tmp_path, self.RESULT, "fp")
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []

    def test_injected_read_corruption_is_a_miss(self, tmp_path):
        with resilience.session(plan(
                FaultSpec(point="checkpoint.write", mode="corrupt",
                          times=1))):
            save_shard_checkpoint(tmp_path, self.RESULT, "fp")
            # Torn first generation, no backup: a safe miss.
            assert load_shard_checkpoint(tmp_path, self.SHARD, "fp") is None
            save_shard_checkpoint(tmp_path, self.RESULT, "fp")  # burnt out
        assert load_shard_checkpoint(tmp_path, self.SHARD,
                                     "fp") == self.RESULT


class TestNoiseFailClosed:
    def test_transient_refill_fault_recovers(self):
        with resilience.session(plan(
                FaultSpec(point="daemon.noise_refill", mode="raise",
                          times=2))):
            calc = NoiseCalculator(scale=1.0, buffer_size=8, rng=0,
                                   refill_retries=4)
            draws = calc.take(8)
        assert draws.shape == (8,)
        assert calc.stalls == 2
        assert calc.refills == 1

    def test_exhaustion_raises_instead_of_emitting(self):
        with telemetry.session(), resilience.session(plan(
                FaultSpec(point="daemon.noise_refill", mode="raise",
                          times=0))):
            calc = NoiseCalculator(scale=1.0, buffer_size=8, rng=0,
                                   refill_retries=2)
            with pytest.raises(NoiseExhausted):
                calc.take(5)
            counters = telemetry.metrics().snapshot()["counters"]
        assert calc.stalls == 3  # initial attempt + 2 retries
        assert counters["daemon.noise_stalls"] == 3
        assert counters["privacy.stalled_slices"] == 5
        assert "privacy.slices_released" not in counters

    def test_obfuscator_withholds_window_and_spends_no_budget(self):
        obf = EventObfuscator("laplace", epsilon=1.0, sensitivity=100.0,
                              clip_bound=1e6, rng=0)
        matrix = np.zeros((16, NUM_SIGNALS))
        matrix[:, Signal.UOPS] = 1e5
        with resilience.session(plan(
                FaultSpec(point="daemon.noise_refill", mode="raise",
                          times=0))):
            with pytest.raises(NoiseExhausted):
                obf.obfuscate_matrix(matrix, 0.001)
        assert obf.accountant.releases == 0
        assert obf.reports == []


class TestKernelModuleRecovery:
    def test_crash_marks_module_down(self):
        module = KernelModule()
        module.launch(monitor_hpcs=True)
        with resilience.session(plan(
                FaultSpec(point="kernel_module.read", mode="raise",
                          times=1))):
            with pytest.raises(KernelModuleCrashed):
                module.on_hpc_read(1.0)
        assert not module.running
        assert len(module.channel) == 0  # the crashed read forwarded nothing
        with pytest.raises(RuntimeError):
            module.on_hpc_read(1.0)

    def test_restart_preserves_dstar_state(self):
        module = KernelModule()
        module.launch(monitor_hpcs=True)
        module.on_hpc_read(1.0)
        module.on_hpc_read(2.0)
        module.stop()
        with telemetry.session():
            module.restart()
            counters = telemetry.metrics().snapshot()["counters"]
        assert module.running and module.monitor_hpcs
        assert module.restarts == 1
        assert counters["kernel.restarts"] == 1
        module.on_hpc_read(3.0)
        assert [s.slice_index for s in module.channel.drain()] == [0, 1, 2]

    def test_daemon_recovers_and_noise_matches_fault_free(self, injector):
        reference = np.linspace(0.0, 1000.0, 32)
        baseline = UserspaceDaemon(DstarMechanism(1.0, 100.0), injector,
                                   rng=0).compute_noise(reference)
        daemon = UserspaceDaemon(DstarMechanism(1.0, 100.0), injector,
                                 rng=0)
        with resilience.session(plan(
                FaultSpec(point="kernel_module.read", mode="raise",
                          times=1, match=(5, 17)))):
            noise = daemon.compute_noise(reference)
        assert daemon.kernel_module.restarts == 2
        assert daemon.kernel_module.running
        np.testing.assert_array_equal(noise, baseline)

    def test_persistent_crash_fails_closed(self, injector):
        daemon = UserspaceDaemon(DstarMechanism(1.0, 100.0), injector,
                                 rng=0)
        with resilience.session(plan(
                FaultSpec(point="kernel_module.read", mode="raise",
                          times=0, match=(5,)))):
            with pytest.raises(KernelModuleCrashed):
                daemon.compute_noise(np.linspace(0.0, 1000.0, 32))


class TestWatchdog:
    class StubDaemon:
        def __init__(self):
            self.heartbeat = 0
            self.restarted = 0

        def restart(self):
            self.restarted += 1
            self.heartbeat += 1

    def test_healthy_daemon_never_restarted(self):
        daemon = self.StubDaemon()
        watchdog = DaemonWatchdog(daemon, stale_polls=2)
        for _ in range(5):
            daemon.heartbeat += 1
            assert watchdog.poll()
        assert daemon.restarted == 0

    def test_stale_daemon_restarted_once_per_window(self):
        daemon = self.StubDaemon()
        with telemetry.session():
            watchdog = DaemonWatchdog(daemon, stale_polls=2)
            assert watchdog.poll()       # stale 1: tolerated
            assert not watchdog.poll()   # stale 2: restarted
            counters = telemetry.metrics().snapshot()["counters"]
        assert daemon.restarted == 1
        assert watchdog.restarts == 1
        assert counters["daemon.restarts"] == 1
        assert watchdog.poll()  # restart advanced the heartbeat

    def test_real_daemon_restart_relaunches_module(self, injector):
        daemon = UserspaceDaemon(DstarMechanism(1.0, 100.0), injector,
                                 rng=0)
        daemon.start()
        daemon.kernel_module.stop()  # simulated crash while idle
        beat = daemon.heartbeat
        daemon.restart()
        assert daemon.kernel_module.running
        assert daemon.heartbeat == beat + 1
        assert daemon.restarts == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            DaemonWatchdog(self.StubDaemon(), stale_polls=0)


class TestStableKey:
    def test_deterministic_and_distinct(self):
        assert stable_key("abc") == stable_key("abc")
        assert stable_key("abc") != stable_key("abd")
