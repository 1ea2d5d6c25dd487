"""Adaptive defense plane tests: escalation, ε reallocation, d* plans.

Four guarantees carry the defense plane and are pinned here:

- **determinism** — every transition is a pure function of the
  tenant's own alert subsequence plus its seeded policy stream, so
  engines (and whole fleets) replay bit-identically at any shard
  count, with or without retry-absorbed ``fleet.policy`` faults;
- **budget soundness** — ε reallocation is downward-only and the
  multi-rate accountant composes each constant-ε segment exactly, so
  composed ε never exceeds the cap admission registered;
- **plan soundness** — Laplace↔d* escalation stays value-independent:
  both modes consume exactly one noise draw per slice, a profile
  change flushes the stale precomputed tail, and the d* path-sum
  sequence is reproducible from the tenant stream alone;
- **fail closed** — quarantine denies at admission and spends
  nothing; a crashed decision path degrades to QUARANTINED (the most
  restrictive state), never to serving un-escalated.
"""

import json
import math

import numpy as np
import pytest

from repro.cli import main
from repro.core.obfuscator.budget import (
    PrivacyAccountant,
    advanced_composition,
)
from repro.core.obfuscator.injector import default_noise_components
from repro.cpu.events import processor_catalog
from repro.fleet import (
    DEFENSE_STATES,
    ESCALATION_PROFILES,
    PLAN_MODES,
    DefensePolicyEngine,
    EscalationProfile,
    FleetControlPlane,
    FleetLedger,
    LoadGenerator,
    NoiseProvisioner,
    ReallocatableAccountant,
    ShardedFleet,
    TenantSpec,
    default_artifact,
    default_specs,
    read_json,
    resolve_profile,
)
from repro.fleet.loadgen import AttackerProfile
from repro.fleet.policy import profile_with
from repro.observability import runtime as observability
from repro.observability.detectors import Alert
from repro.resilience import runtime as resilience
from repro.resilience.faults import FaultPlan

SEED = 7

POLICY_FAULT_ONCE = FaultPlan.parse(
    '{"seed": 9, "faults": '
    '[{"point": "fleet.policy", "mode": "raise", "times": 1}]}')
POLICY_FAULT_ALWAYS = FaultPlan.parse(
    '{"seed": 9, "faults": '
    '[{"point": "fleet.policy", "mode": "raise", "times": 0}]}')
POLICY_CORRUPT_ONCE = FaultPlan.parse(
    '{"seed": 9, "faults": '
    '[{"point": "fleet.policy", "mode": "corrupt", "times": 1}]}')

#: t03 single-steps: one critical alert per window, which walks the
#: aggressive ladder NORMAL -> ESCALATED -> QUARANTINED in two ticks.
ATTACKED = {"t03": AttackerProfile(kind="single-step")}


def make_provisioner(entropy=1, capacity=128, watermark=32):
    catalog = processor_catalog("amd-epyc-7252")
    reference = catalog.weights[catalog.index_of("RETIRED_UOPS")]
    return NoiseProvisioner(
        entropy, scale=200.0, components=default_noise_components(),
        reference_weights=reference, clip_bound=2000.0,
        capacity=capacity, watermark=watermark)


def make_engine(profile="balanced", tenants=("t0",), seed=SEED,
                base_epsilon=1.0, epsilon_cap=math.inf, **kwargs):
    ledger = FleetLedger()
    provisioner = make_provisioner()
    engine = DefensePolicyEngine(profile, ledger=ledger,
                                 provisioner=provisioner, seed=seed,
                                 base_epsilon=base_epsilon, **kwargs)
    for tenant_id in tenants:
        ledger.register(tenant_id, base_epsilon,
                        epsilon_cap=epsilon_cap)
        provisioner.create_buffer(tenant_id)
        engine.register_tenant(tenant_id)
    return engine


def alert(tenant_id="t0", severity="critical", seq=0):
    return Alert(seq=seq, tenant_id=tenant_id, detector="test",
                 severity=severity, score=1.0, detail="", at=0.0)


class TestEscalationProfile:
    def test_named_profiles_are_valid_and_self_named(self):
        for name, profile in ESCALATION_PROFILES.items():
            assert profile.name == name
            assert resolve_profile(name) is profile

    def test_resolve_none_instance_and_unknown(self):
        assert resolve_profile(None) is None
        custom = EscalationProfile(name="mine")
        assert resolve_profile(custom) is custom
        with pytest.raises(ValueError, match="unknown defense policy"):
            resolve_profile("yolo")

    @pytest.mark.parametrize("overrides, match", [
        ({"suspect_after": 3, "escalate_after": 2}, "suspect_after"),
        ({"quarantine_after": 1, "escalate_after": 2}, "suspect_after"),
        ({"critical_weight": 0}, "critical_weight"),
        ({"min_severity": "apocalyptic"}, "min_severity"),
        ({"suspect_epsilon_factor": 1.5}, "downward"),
        ({"escalated_epsilon_factor": 0.0}, "downward"),
        ({"suspect_epsilon_factor": 0.3,
          "escalated_epsilon_factor": 0.6}, "tightens"),
        ({"escalated_mode": "gaussian"}, "escalated_mode"),
        ({"cooldown_ticks": 0}, "cooldown_ticks"),
        ({"cooldown_jitter": -1}, "cooldown_jitter"),
    ])
    def test_validation(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            profile_with("balanced", **overrides)

    def test_target_state_thresholds(self):
        profile = ESCALATION_PROFILES["balanced"]
        assert [profile.target_state(h) for h in (0, 1, 2, 3, 4)] \
            == ["NORMAL", "SUSPECT", "ESCALATED", "ESCALATED",
                "QUARANTINED"]

    def test_state_actions_tighten_monotonically(self):
        for profile in ESCALATION_PROFILES.values():
            factors = [profile.epsilon_factor(s) for s in DEFENSE_STATES]
            assert factors == sorted(factors, reverse=True)
            assert factors[0] == 1.0
            assert profile.plan_mode("NORMAL") == "laplace"
            assert profile.plan_mode("ESCALATED") in PLAN_MODES

    def test_round_trips_through_json(self):
        profile = ESCALATION_PROFILES["aggressive"]
        clone = EscalationProfile.parse(json.dumps(profile.to_dict()))
        assert clone == profile

    def test_parse_file_inline_and_errors(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"name": "fromfile",
                                    "quarantine_after": 9}))
        assert EscalationProfile.parse(str(path)).name == "fromfile"
        assert EscalationProfile.parse('{"name": "inline"}').name \
            == "inline"
        with pytest.raises(ValueError, match="JSON object or a"):
            EscalationProfile.parse("no-such-file.json")
        with pytest.raises(ValueError, match="unknown escalation"):
            EscalationProfile.parse('{"threat_level": "purple"}')
        with pytest.raises(ValueError, match="invalid escalation"):
            EscalationProfile.parse('{"suspect_after": 0}')


class TestStateMachine:
    def test_ladder_escalates_on_accumulated_weight(self):
        engine = make_engine()  # balanced: 1 / 2 / 4, critical x2
        engine.on_tick(1, alerts=[alert(severity="high")])
        assert engine.state_of("t0") == "SUSPECT"
        engine.on_tick(2, alerts=[alert(severity="high", seq=1)])
        assert engine.state_of("t0") == "ESCALATED"
        engine.on_tick(3, alerts=[alert(severity="critical", seq=2)])
        assert engine.state_of("t0") == "QUARANTINED"
        assert [t["to"] for t in engine.tenants["t0"].transitions] \
            == ["SUSPECT", "ESCALATED", "QUARANTINED"]

    def test_critical_weight_can_skip_levels(self):
        engine = make_engine()
        engine.on_tick(1, alerts=[alert(severity="critical")])
        assert engine.state_of("t0") == "ESCALATED"  # weight 2 >= 2

    def test_min_severity_filters_alerts(self):
        engine = make_engine("conservative")  # min_severity high
        engine.on_tick(1, alerts=[alert(severity="medium")])
        assert engine.state_of("t0") == "NORMAL"
        assert engine.tenants["t0"].alerts_seen == 0

    def test_foreign_tenants_alerts_are_ignored(self):
        engine = make_engine()
        engine.on_tick(1, alerts=[alert(tenant_id="ghost")])
        assert engine.state_of("t0") == "NORMAL"

    def test_decay_steps_one_level_with_hysteresis(self):
        engine = make_engine()
        engine.on_tick(1, alerts=[alert(), alert(seq=1)])  # hits 4
        tenant = engine.tenants["t0"]
        assert tenant.state == "QUARANTINED"
        # fresh activity refreshes the hold instead of escalating
        hold = tenant.decay_at
        engine.on_tick(2, alerts=[alert(severity="high", seq=2)])
        assert tenant.state == "QUARANTINED"
        assert tenant.decay_at >= hold
        # quiet: one level per expired hold, never straight to NORMAL
        for expected in ("ESCALATED", "SUSPECT", "NORMAL"):
            engine.on_tick(tenant.decay_at or 0, alerts=[])
            assert tenant.state == expected
        # decay floors the hit count: one stray high alert after full
        # recovery lands on SUSPECT, not back in quarantine
        engine.on_tick(100, alerts=[alert(severity="high", seq=3)])
        assert tenant.state == "SUSPECT"

    def test_decisions_are_replayable(self):
        def drive(engine):
            engine.on_tick(1, alerts=[alert()])
            engine.on_tick(5, alerts=[alert(seq=1)])
            for tick in range(6, 60):
                engine.on_tick(tick, alerts=[])
            return engine.tenants["t0"].snapshot()

        assert drive(make_engine()) == drive(make_engine())

    def test_cooldown_jitter_draws_from_the_tenant_stream(self):
        # Different fleet seeds may hold the tenant for different
        # jitters, but one seed always replays the same schedule.
        holds = set()
        for seed in range(6):
            engine = make_engine(seed=seed)
            engine.on_tick(1, alerts=[alert()])
            holds.add(engine.tenants["t0"].decay_at)
        profile = ESCALATION_PROFILES["balanced"]
        lo = 1 + profile.cooldown_ticks
        assert holds <= set(range(lo, lo + profile.cooldown_jitter + 1))
        assert len(holds) > 1

    def test_actions_reach_ledger_and_provisioner(self):
        engine = make_engine("aggressive")
        engine.on_tick(1, alerts=[alert()])  # aggressive: straight up
        assert engine.state_of("t0") == "ESCALATED"
        profile = ESCALATION_PROFILES["aggressive"]
        accountant = engine.ledger.accountant("t0")
        assert accountant.per_slice_epsilon \
            == pytest.approx(profile.escalated_epsilon_factor)
        buffer = engine.provisioner.buffer("t0")
        assert buffer.mode == profile.escalated_mode
        assert buffer.scale_factor \
            == pytest.approx(1.0 / profile.escalated_epsilon_factor)

    def test_quarantine_denies_and_counts(self):
        engine = make_engine("aggressive")
        assert engine.deny_reason("t0") is None
        engine.on_tick(1, alerts=[alert(), alert(seq=1)])  # hits 4
        assert engine.state_of("t0") == "QUARANTINED"
        assert engine.deny_reason("t0") == "quarantined"
        assert engine.tenants["t0"].quarantined_windows == 1

    def test_register_rejects_duplicates_and_none_profile(self):
        engine = make_engine()
        with pytest.raises(ValueError, match="already registered"):
            engine.register_tenant("t0")
        with pytest.raises(ValueError, match="needs a profile"):
            DefensePolicyEngine(None, ledger=FleetLedger(),
                                provisioner=make_provisioner(),
                                seed=SEED, base_epsilon=1.0)

    def test_snapshot_shape(self):
        engine = make_engine("aggressive", tenants=("t0", "t1"))
        engine.on_tick(1, alerts=[alert()])
        snapshot = engine.snapshot()
        assert snapshot["profile"]["name"] == "aggressive"
        assert snapshot["states"] == {"NORMAL": 1, "SUSPECT": 0,
                                      "ESCALATED": 1, "QUARANTINED": 0}
        assert snapshot["policy_faults"] == 0
        assert set(snapshot["tenants"]) == {"t0", "t1"}
        assert snapshot["tenants"]["t0"]["transitions"][0]["to"] \
            == "ESCALATED"


class TestReallocatableAccountant:
    def test_single_rate_defers_to_the_paper_accountant(self):
        base = PrivacyAccountant(per_slice_epsilon=0.5,
                                 epsilon_cap=40.0)
        ours = ReallocatableAccountant(per_slice_epsilon=0.5,
                                       epsilon_cap=40.0)
        for accountant in (base, ours):
            accountant.record(30)
        assert ours.basic_epsilon == base.basic_epsilon
        assert ours.advanced_epsilon == base.advanced_epsilon
        assert ours.remaining_slices == base.remaining_slices
        assert ours.would_exceed(50) == base.would_exceed(50)
        assert ours.to_dict() == base.to_dict()

    def test_multi_rate_basic_composition_is_exact(self):
        accountant = ReallocatableAccountant(per_slice_epsilon=1.0,
                                             epsilon_cap=100.0)
        accountant.record(10)                      # 10 @ 1.0
        assert accountant.reallocate(0.5)
        accountant.record(10)                      # 10 @ 0.5
        assert accountant.reallocate(0.25)
        accountant.record(4)                       # 4 @ 0.25
        assert accountant.basic_epsilon \
            == pytest.approx(10 * 1.0 + 10 * 0.5 + 4 * 0.25)
        assert accountant.reallocations == 2
        # restoring the registered rate is a (downward-compatible)
        # reallocation too
        assert accountant.reallocate(1.0)
        accountant.record(2)
        assert accountant.basic_epsilon == pytest.approx(18.0)

    def test_reallocation_is_downward_only(self):
        accountant = ReallocatableAccountant(per_slice_epsilon=1.0)
        with pytest.raises(ValueError, match="downward-only"):
            accountant.reallocate(2.0)
        with pytest.raises(ValueError, match="downward-only"):
            accountant.reallocate(0.0)
        assert not accountant.reallocate(1.0)  # unchanged: no-op

    def test_cap_checks_track_the_live_rate(self):
        accountant = ReallocatableAccountant(per_slice_epsilon=1.0,
                                             epsilon_cap=20.0)
        accountant.record(10)
        accountant.reallocate(0.5)
        # ε spent 10.0, 10.0 headroom at 0.5/slice -> 20 slices left
        assert accountant.remaining_slices == 20
        assert not accountant.would_exceed(20)
        assert accountant.would_exceed(21)
        accountant.record(20)
        assert accountant.basic_epsilon == pytest.approx(20.0)
        assert accountant.remaining_slices == 0

    def test_advanced_bound_composes_at_the_base_rate(self):
        accountant = ReallocatableAccountant(per_slice_epsilon=0.1)
        accountant.record(50)
        accountant.reallocate(0.05)
        accountant.record(50)
        assert accountant.advanced_epsilon == pytest.approx(
            advanced_composition(0.1, 100, accountant.delta))

    def test_fleet_ledger_reallocates_and_snapshots(self):
        ledger = FleetLedger()
        ledger.register("a", 1.0, epsilon_cap=50.0)
        ledger.account("a", 10)
        assert ledger.reallocate("a", 0.25)
        assert not ledger.reallocate("a", 0.25)
        ledger.account("a", 8)
        snapshot = ledger.snapshot()["a"]
        assert snapshot["base_epsilon"] == 1.0
        assert snapshot["per_slice_epsilon"] == 0.25
        assert snapshot["reallocations"] == 1
        assert snapshot["epsilon_basic"] == pytest.approx(12.0)
        assert snapshot["epsilon_basic"] <= snapshot["epsilon_cap"]


class TestPlanModes:
    def test_set_profile_validates(self):
        provisioner = make_provisioner()
        provisioner.create_buffer("t0")
        with pytest.raises(ValueError, match="mode"):
            provisioner.set_profile("t0", mode="gaussian")
        with pytest.raises(ValueError, match="scale_factor"):
            provisioner.set_profile("t0", scale_factor=0.5)

    def test_profile_change_flushes_the_stale_tail(self):
        provisioner = make_provisioner()
        buffer = provisioner.create_buffer("t0")
        provisioner.take("t0", 16)
        live = buffer.available
        assert live > 0
        flushed = provisioner.set_profile("t0", mode="dstar",
                                          scale_factor=2.0)
        assert flushed == live
        assert buffer.available == 0
        assert buffer.flushed_slices == live
        # unchanged profile is a no-op, nothing more flushed
        assert provisioner.set_profile("t0", mode="dstar",
                                       scale_factor=2.0) == 0

    def test_dstar_plan_is_deterministic_and_batch_invariant(self):
        # Different capacities batch the refills differently (1x48 vs
        # 3x16) but the d* tree walks buffer.dstar_t continuously, so
        # the served cumulative sequence must be identical.
        def draws(capacity, takes):
            provisioner = make_provisioner(entropy=3,
                                           capacity=capacity,
                                           watermark=0)
            provisioner.create_buffer("t0")
            provisioner.set_profile("t0", mode="dstar",
                                    scale_factor=4.0)
            out = []
            for count in takes:
                _, noise = provisioner.take("t0", count)
                out.append(noise.copy())
            return np.concatenate(out)

        once = draws(48, [48])
        split = draws(16, [16, 16, 16])
        np.testing.assert_array_equal(once, split)

    def test_dstar_noise_is_a_cumulative_path_sum(self):
        # c[t] = c[parent(t)] + r_t: at t = 2^k the parent is 2^(k-1),
        # so c[2^k] extends the tree's spine by one unit-scale draw
        # rather than the sum at t-1 — the signature of the tree, cheap
        # to spot without re-implementing it.
        provisioner = make_provisioner(entropy=3, capacity=64,
                                       watermark=0)
        provisioner.create_buffer("t0")
        provisioner.set_profile("t0", mode="dstar", scale_factor=1.0)
        _, noise = provisioner.take("t0", 33)
        # dstar_parent(2^k) == 2^(k-1) and the 2^k multiplier is 1.0,
        # so c[2^k] is c[2^(k-1)] plus one fresh draw, not c[2^k - 1].
        assert noise[0] != 0.0
        for t in (2, 4, 8, 16, 32):
            assert noise[t - 1] != noise[t - 2]

    def test_dstar_tree_keeps_only_the_entries_later_slices_read(self):
        # 3000 slices served 5 at a time from a 7-slice buffer (about
        # 600 refills) against one 3000-slice refill, which computes
        # every c[t] before it prunes: the same plans and draws, while
        # the tree holds at most dstar_t.bit_length() + 1 sums.
        def serve(capacity, take):
            provisioner = make_provisioner(entropy=9, capacity=capacity,
                                           watermark=0)
            provisioner.create_buffer("t0")
            provisioner.set_profile("t0", mode="dstar", scale_factor=2.0)
            buffer = provisioner.buffer("t0")
            plans, draws = [], []
            for _ in range(3000 // take):
                plan, noise = provisioner.take("t0", take)
                plans.append(plan.copy())
                draws.append(noise.copy())
                assert len(buffer._dstar_cum) \
                    <= buffer.dstar_t.bit_length() + 1
            return buffer, np.concatenate(plans), np.concatenate(draws)

        buffer, plans, draws = serve(7, 5)
        _, reference_plans, reference_draws = serve(3000, 3000)
        assert buffer.refills > 500
        assert plans.tobytes() == reference_plans.tobytes()
        assert draws.tobytes() == reference_draws.tobytes()

    def test_mode_history_never_desynchronizes_the_stream(self):
        # Both modes consume one draw per slice, so a tenant that
        # escalated and recovered continues its Laplace sequence at
        # exactly the position a never-escalated run would be at.
        plain = make_provisioner(entropy=5, capacity=16, watermark=0)
        plain.create_buffer("t0")
        reference = []
        for _ in range(3):
            _, noise = plain.take("t0", 16)
            reference.append(noise.copy())
            plain.buffer("t0").cursor = plain.buffer("t0").fill

        escalated = make_provisioner(entropy=5, capacity=16,
                                     watermark=0)
        escalated.create_buffer("t0")
        _, first = escalated.take("t0", 16)
        np.testing.assert_array_equal(first, reference[0])
        escalated.buffer("t0").cursor = escalated.buffer("t0").fill
        escalated.set_profile("t0", mode="dstar", scale_factor=4.0)
        escalated.take("t0", 16)  # consumes draws 16..31 as residuals
        escalated.buffer("t0").cursor = escalated.buffer("t0").fill
        escalated.set_profile("t0", mode="laplace", scale_factor=1.0)
        _, third = escalated.take("t0", 16)
        np.testing.assert_array_equal(third, reference[2])


class TestFailClosed:
    def test_absorbed_fault_changes_no_decision(self):
        def drive(engine):
            engine.on_tick(1, alerts=[alert(severity="high")])
            engine.on_tick(2, alerts=[alert(severity="high", seq=1)])
            return engine.tenants["t0"].snapshot()

        clean = drive(make_engine())
        with resilience.session(POLICY_FAULT_ONCE):
            faulted_engine = make_engine()
            faulted = drive(faulted_engine)
        assert faulted == clean
        # ``times: 1`` bounds attempts per decision event: both
        # decisions met the fault at attempt 0 and absorbed it
        assert faulted_engine.policy_faults == 2
        assert not faulted_engine.tenants["t0"].fault_forced
        assert faulted_engine.health_reasons() == []

    def test_exhausted_retries_fail_closed_to_quarantine(self):
        with resilience.session(POLICY_FAULT_ALWAYS):
            engine = make_engine()
            engine.on_tick(1, alerts=[alert(severity="low")])
            # low is below min_severity: no decision, no fault hit
            assert engine.state_of("t0") == "NORMAL"
            engine.on_tick(2, alerts=[alert(severity="high", seq=1)])
        tenant = engine.tenants["t0"]
        assert tenant.state == "QUARANTINED"
        assert tenant.fault_forced
        assert tenant.transitions[-1]["reason"] == "policy-fault"
        assert engine.policy_faults == engine.fault_retries + 1
        assert any("failed closed" in reason
                   for reason in engine.health_reasons())

    def test_corrupt_decision_is_detected_not_acted_on(self):
        with resilience.session(POLICY_CORRUPT_ONCE):
            engine = make_engine()
            engine.on_tick(1, alerts=[alert(severity="high")])
        tenant = engine.tenants["t0"]
        assert tenant.state == "QUARANTINED"
        assert tenant.fault_forced
        assert tenant.transitions[-1]["reason"] == "policy-corrupt"

    def test_attempt_bias_skips_already_consumed_faults(self):
        # A replacement shard worker (generation 1) replays decisions
        # a crashed generation already absorbed the fault budget for.
        with resilience.session(POLICY_FAULT_ONCE):
            engine = make_engine(fault_attempt_bias=1)
            engine.on_tick(1, alerts=[alert(severity="high")])
        assert engine.policy_faults == 0
        assert engine.state_of("t0") == "SUSPECT"

    def test_quarantined_tenant_spends_nothing_end_to_end(self):
        plane = FleetControlPlane(default_artifact(), seed=SEED,
                                  capacity=1024, watermark=256,
                                  defense_policy="aggressive")
        specs = [TenantSpec(tenant_id=t)
                 for t in ("t00", "t01", "t02", "t03")]
        generator = LoadGenerator(plane, specs, windows=3,
                                  slices_per_window=40,
                                  attackers=ATTACKED)
        with observability.session():
            report = generator.run()
            status = plane.status()
        defense = status["defense"]
        assert defense["tenants"]["t03"]["state"] == "QUARANTINED"
        # the quarantined window was denied, counted, and unspent
        budgets = status["budgets"]
        assert budgets["t03"]["stalled_slices"] == 40
        assert budgets["t03"]["rejected_windows"] == 1
        assert budgets["t03"]["releases"] < budgets["t00"]["releases"]
        assert report.rejections.get("t03")
        # escalation latency: the first critical alert lands in window
        # 0, the transition fires on the very next tick
        first = defense["tenants"]["t03"]["transitions"][0]
        assert first["tick"] <= 2
        # alert-driven quarantine is the plane *working*, not degraded
        assert status["health"]["healthy"]

    def test_reallocated_epsilon_stays_under_the_cap(self):
        plane = FleetControlPlane(default_artifact(), seed=SEED,
                                  capacity=1024, watermark=256,
                                  defense_policy="aggressive")
        specs = [TenantSpec(tenant_id=t, epsilon_cap=120.0)
                 for t in ("t00", "t03")]
        generator = LoadGenerator(plane, specs, windows=3,
                                  slices_per_window=40,
                                  attackers=ATTACKED)
        with observability.session():
            generator.run()
            budgets = plane.status()["budgets"]
        for tenant_id, budget in budgets.items():
            assert budget["epsilon_basic"] <= budget["epsilon_cap"], \
                tenant_id
        assert budgets["t03"]["reallocations"] >= 1
        assert budgets["t03"]["per_slice_epsilon"] \
            < budgets["t03"]["base_epsilon"]


class TestReshardInvariance:
    WINDOWS = 3
    SLICES = 40

    def run_fleet(self, shards, fault_plan=None):
        fleet = ShardedFleet(default_artifact(), shards=shards,
                             seed=SEED, fault_plan=fault_plan,
                             defense_policy="aggressive")
        report = fleet.run(default_specs(4), windows=self.WINDOWS,
                           slices_per_window=self.SLICES,
                           mode="inline", attackers=ATTACKED)
        return report, fleet.status(report)

    def test_defense_decisions_identical_at_any_shard_count(self):
        reference_report, reference_status = self.run_fleet(1)
        for shards in (2, 4):
            report, status = self.run_fleet(shards)
            assert report.fingerprint() \
                == reference_report.fingerprint(), shards
            assert status["defense"]["states"] \
                == reference_status["defense"]["states"]
            assert status["defense"]["tenants"]["t03"]["transitions"] \
                == reference_status["defense"]["tenants"]["t03"][
                    "transitions"]

    def test_absorbed_policy_fault_keeps_digests_identical(self):
        _, clean_status = self.run_fleet(1)
        reference = None
        for shards in (1, 2, 4):
            report, status = self.run_fleet(
                shards, fault_plan=POLICY_FAULT_ONCE)
            fingerprint = report.fingerprint()
            if reference is None:
                reference = fingerprint
            assert fingerprint == reference, shards
            assert status["defense"]["tenants"]["t03"]["transitions"] \
                == clean_status["defense"]["tenants"]["t03"][
                    "transitions"]

    def test_unknown_attacker_tenant_rejected(self):
        fleet = ShardedFleet(default_artifact(), shards=2, seed=SEED)
        with pytest.raises(ValueError, match="unknown tenant"):
            fleet.run(default_specs(2), windows=1,
                      slices_per_window=16, mode="inline",
                      attackers={"ghost": AttackerProfile(
                          kind="single-step")})


class TestCli:
    def test_serve_with_defense_policy(self, tmp_path, capsys):
        code = main(["fleet", "serve", "--seed", str(SEED),
                     "--tenants", "4", "--windows", "3",
                     "--slices", "40",
                     "--attackers", "t03=single-step",
                     "--defense-policy", "aggressive",
                     "--state-dir", str(tmp_path)])
        assert code == 0
        status = read_json(tmp_path / "fleet-status.json")
        assert status["defense"]["profile"]["name"] == "aggressive"
        assert status["defense"]["tenants"]["t03"]["state"] \
            == "QUARANTINED"
        assert main(["fleet", "status", "--state-dir",
                     str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "defense: profile aggressive" in out
        assert "QUARANTINED" in out

    def test_escalation_profile_overrides_inline(self, tmp_path):
        profile = json.dumps({"name": "custom", "suspect_after": 1,
                              "escalate_after": 1,
                              "quarantine_after": 99})
        code = main(["fleet", "serve", "--seed", str(SEED),
                     "--tenants", "4", "--windows", "3",
                     "--slices", "40",
                     "--attackers", "t03=single-step",
                     "--escalation-profile", profile,
                     "--state-dir", str(tmp_path)])
        assert code == 0
        status = read_json(tmp_path / "fleet-status.json")
        assert status["defense"]["profile"]["name"] == "custom"
        assert status["defense"]["tenants"]["t03"]["state"] \
            == "ESCALATED"

    def test_bad_profiles_exit_loudly(self):
        with pytest.raises(SystemExit):
            main(["fleet", "serve", "--tenants", "2",
                  "--defense-policy", "yolo"])
        with pytest.raises(SystemExit, match="invalid escalation"):
            main(["fleet", "serve", "--tenants", "2",
                  "--escalation-profile", '{"suspect_after": -3}'])
