"""Fleet control plane tests: registry, provisioning, admission,
scheduling, and the tenant-isolation bit-identity guarantees.

The acceptance bar mirrors the single-VM stack's: every rejection path
fails closed (no un-noised read, no partial window, no budget spent on
a rejected window), and determinism is absolute — same seed, same
specs, bit-identical noised reads and ε-ledgers, with or without
retry-absorbed provisioning faults, and regardless of which other
tenants share the fleet.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro import telemetry
from repro.core.obfuscator.budget import BudgetExhausted, PrivacyAccountant
from repro.core.obfuscator.injector import default_noise_components
from repro.core.obfuscator.noise import NoiseExhausted
from repro.cpu.events import processor_catalog
from repro.fleet import (
    ArtifactCompatibilityError,
    ArtifactRegistry,
    FleetControlPlane,
    FleetLedger,
    LoadGenerator,
    NoiseProvisioner,
    RegistryIntegrityError,
    TenantSpec,
    UnknownTenant,
    default_artifact,
    default_specs,
    make_workload,
    record_trace,
)
from repro.resilience import runtime as resilience
from repro.resilience.faults import FaultPlan

#: SHA-256 over the ``record_trace`` bytes of two tenants of every
#: workload kind (see ``test_recorded_traces_pinned``): any change to
#: how a workload renders must reproduce it.
PINNED_TRACE_DIGEST = ("e91efa02302b73071f7e2789ef8cf97c"
                       "599ce0d16b91efd9df0cef1605e8eb5d")

PROVISION_FAULT_ONCE = FaultPlan.parse(
    '{"seed": 9, "faults": '
    '[{"point": "fleet.provision", "mode": "raise", "times": 1}]}')
PROVISION_FAULT_ALWAYS = FaultPlan.parse(
    '{"seed": 9, "faults": '
    '[{"point": "fleet.provision", "mode": "raise", "times": 0}]}')
ADMIT_FAULT_ONCE = FaultPlan.parse(
    '{"seed": 9, "faults": '
    '[{"point": "fleet.admit", "mode": "raise", "times": 1}]}')


def small_plane(seed=5, **kwargs):
    kwargs.setdefault("capacity", 256)
    kwargs.setdefault("watermark", 64)
    return FleetControlPlane(default_artifact(), seed=seed, **kwargs)


def make_provisioner(entropy=1, capacity=128, watermark=32, retries=2):
    catalog = processor_catalog("amd-epyc-7252")
    reference = catalog.weights[catalog.index_of("RETIRED_UOPS")]
    return NoiseProvisioner(
        entropy, scale=200.0, components=default_noise_components(),
        reference_weights=reference, clip_bound=2000.0,
        capacity=capacity, watermark=watermark, refill_retries=retries)


def replay(plane, specs, windows=2, slices=60, **kwargs):
    return LoadGenerator(plane, specs, windows=windows,
                         slices_per_window=slices, **kwargs).run()


class TestRegistry:
    def test_publish_assigns_ascending_versions(self, tmp_path):
        registry = ArtifactRegistry(tmp_path)
        artifact = default_artifact()
        first = registry.publish(artifact, workload="website")
        second = registry.publish(artifact, workload="website")
        assert (first.version, second.version) == (1, 2)
        assert registry.versions(artifact.processor_model,
                                 "website") == [1, 2]
        assert registry.latest(artifact.processor_model,
                               "website").version == 2
        assert registry.series() == [(artifact.processor_model, "website")]

    def test_failed_publish_leaves_no_temp_or_version(self, tmp_path,
                                                      monkeypatch):
        registry = ArtifactRegistry(tmp_path)
        artifact = default_artifact()
        entry = registry.publish(artifact, workload="website")

        def torn(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", torn)  # dies mid-write
        with pytest.raises(OSError, match="disk full"):
            registry.publish(artifact, workload="website")
        monkeypatch.undo()
        assert [p.name for p in entry.path.parent.iterdir()] \
            == ["v0001.json"]
        assert registry.versions(artifact.processor_model,
                                 "website") == [1]

    def test_load_round_trips_the_artifact(self, tmp_path):
        registry = ArtifactRegistry(tmp_path)
        artifact = default_artifact()
        registry.publish(artifact, workload="website")
        restored = registry.load(artifact.processor_model, "website")
        assert restored.to_json() == artifact.to_json()

    def test_corrupt_payload_fails_closed(self, tmp_path):
        registry = ArtifactRegistry(tmp_path)
        artifact = default_artifact()
        entry = registry.publish(artifact, workload="website")
        wrapper = json.loads(entry.path.read_text(encoding="utf-8"))
        wrapper["artifact"] = wrapper["artifact"].replace(
            '"epsilon": 1.0', '"epsilon": 100.0')
        entry.path.write_text(json.dumps(wrapper), encoding="utf-8")
        with pytest.raises(RegistryIntegrityError):
            registry.load(artifact.processor_model, "website")

    def test_cross_processor_artifact_rejected(self):
        with pytest.raises(ArtifactCompatibilityError,
                           match="profiled on"):
            from repro.fleet import check_compatible
            check_compatible(default_artifact(), "intel-xeon-8380")

    def test_unknown_reference_event_rejected(self):
        from repro.fleet import check_compatible
        artifact = default_artifact()
        artifact.reference_event = "NOT_AN_EVENT"
        with pytest.raises(ArtifactCompatibilityError,
                           match="reference event"):
            check_compatible(artifact, artifact.processor_model)

    def test_path_traversal_keys_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="registry key"):
            ArtifactRegistry(tmp_path).versions("../escape", "website")

    def test_missing_series_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ArtifactRegistry(tmp_path).load("amd-epyc-7252", "website")


class TestProvisioner:
    def test_same_entropy_same_draws(self):
        takes = []
        for _ in range(2):
            provisioner = make_provisioner(entropy=3)
            provisioner.create_buffer("a")
            plan, noise = provisioner.take("a", 50)
            takes.append((plan.copy(), noise.copy()))
        assert np.array_equal(takes[0][0], takes[1][0])
        assert np.array_equal(takes[0][1], takes[1][1])

    def test_tenant_stream_isolated_from_fleet_makeup(self):
        fleet = make_provisioner(entropy=3)
        for tenant in ("a", "b", "c"):
            fleet.create_buffer(tenant)
        # Interleave other tenants' consumption around b's.
        fleet.take("a", 40)
        _, fleet_noise = fleet.take("b", 40)
        fleet_noise = fleet_noise.copy()
        fleet.take("c", 40)

        solo = make_provisioner(entropy=3)
        solo.create_buffer("b")
        _, solo_noise = solo.take("b", 40)
        assert np.array_equal(fleet_noise, solo_noise)

    def test_sequence_invariant_to_refill_batching(self):
        big = make_provisioner(entropy=3, capacity=128, watermark=0)
        big.create_buffer("a")
        _, reference = big.take("a", 100)
        reference = reference.copy()

        small = make_provisioner(entropy=3, capacity=50, watermark=0)
        small.create_buffer("a")
        pieces = [small.take("a", n)[1].copy() for n in (30, 30, 30, 10)]
        assert np.array_equal(np.concatenate(pieces), reference)

    def test_supplier_shares_the_buffer_cursor(self):
        provisioner = make_provisioner(entropy=3)
        provisioner.create_buffer("a")
        pull = provisioner.supplier("a")
        supplied = pull(25)
        _, direct = provisioner.take("a", 25)

        reference = make_provisioner(entropy=3)
        reference.create_buffer("a")
        _, expected = reference.take("a", 50)
        assert np.array_equal(supplied, expected[:25])
        assert np.array_equal(direct, expected[25:])

    def test_absorbed_fault_keeps_draws_bit_identical(self):
        clean = make_provisioner(entropy=3)
        clean.create_buffer("a")
        _, expected = clean.take("a", 80)

        faulted = make_provisioner(entropy=3)
        buffer = faulted.create_buffer("a")
        with resilience.session(PROVISION_FAULT_ONCE):
            _, noise = faulted.take("a", 80)
        assert buffer.stalls >= 1
        assert np.array_equal(noise, expected)

    def test_persistent_fault_fails_closed(self):
        provisioner = make_provisioner(entropy=3, retries=1)
        buffer = provisioner.create_buffer("a")
        with resilience.session(PROVISION_FAULT_ALWAYS):
            with pytest.raises(NoiseExhausted, match="fail closed"):
                provisioner.take("a", 10)
            # top_up must absorb the stall, not propagate it.
            assert provisioner.top_up() == 0
        assert buffer.available == 0

    def test_oversized_window_rejected_outright(self):
        provisioner = make_provisioner(capacity=64)
        provisioner.create_buffer("a")
        with pytest.raises(ValueError, match="exceeds the buffer"):
            provisioner.take("a", 65)

    def test_duplicate_and_unknown_tenants(self):
        provisioner = make_provisioner()
        provisioner.create_buffer("a")
        with pytest.raises(ValueError, match="already has"):
            provisioner.create_buffer("a")
        with pytest.raises(KeyError, match="no noise buffer"):
            provisioner.buffer("ghost")


class TestLedger:
    def test_register_restore_and_cap(self):
        saved = PrivacyAccountant(per_slice_epsilon=1.0)
        saved.record(10)
        ledger = FleetLedger()
        accountant = ledger.register("a", per_slice_epsilon=1.0,
                                     epsilon_cap=40.0,
                                     state=saved.to_dict())
        assert accountant.releases == 10
        assert accountant.remaining_slices == 30
        with pytest.raises(ValueError, match="calibrated"):
            ledger.register("b", per_slice_epsilon=0.5,
                            state=saved.to_dict())

    def test_account_past_quota_raises_before_mutating(self):
        ledger = FleetLedger()
        ledger.register("a", per_slice_epsilon=1.0, epsilon_cap=5.0)
        ledger.account("a", 5)
        with pytest.raises(BudgetExhausted):
            ledger.account("a", 1)
        assert ledger.snapshot()["a"]["releases"] == 5

    def test_stalls_and_rejections_spend_nothing(self):
        ledger = FleetLedger()
        ledger.register("a", per_slice_epsilon=1.0)
        ledger.record_stall("a", 100)
        ledger.record_rejection("a")
        row = ledger.snapshot()["a"]
        assert row["releases"] == 0
        assert row["stalled_slices"] == 100
        assert row["rejected_windows"] == 1

    def test_unknown_tenant(self):
        with pytest.raises(UnknownTenant):
            FleetLedger().account("ghost", 1)


class TestAdmission:
    def test_budget_cap_is_exact_and_permanent(self):
        plane = small_plane()
        plane.admit_tenant(TenantSpec(tenant_id="a", epsilon_cap=120.0))
        trace = np.zeros((60, len(plane.monitored_events)))
        for _ in range(2):
            decision, noised = plane.serve_window("a", trace)
            assert decision and noised is not None
        decision, noised = plane.serve_window("a", trace)
        assert not decision and noised is None
        assert decision.reason == "budget-exhausted"
        assert not decision.retryable
        row = plane.ledger.snapshot()["a"]
        assert row["releases"] == 120 and row["exhausted"]

    def test_backpressure_when_provisioning_is_wedged(self):
        plane = small_plane(refill_retries=1)
        plane.admit_tenant(TenantSpec(tenant_id="a"))
        trace = np.zeros((60, len(plane.monitored_events)))
        with resilience.session(PROVISION_FAULT_ALWAYS):
            decision, noised = plane.serve_window("a", trace)
        assert not decision and noised is None
        assert decision.reason == "backpressure"
        assert decision.retryable
        row = plane.ledger.snapshot()["a"]
        assert row["releases"] == 0
        assert row["stalled_slices"] == 60
        # Recovery: the same window is admitted once faults clear.
        decision, noised = plane.serve_window("a", trace)
        assert decision and noised is not None

    def test_admission_fault_rejects_without_bypassing_checks(self):
        plane = small_plane()
        plane.admit_tenant(TenantSpec(tenant_id="a"))
        trace = np.zeros((30, len(plane.monitored_events)))
        with resilience.session(ADMIT_FAULT_ONCE):
            first, _ = plane.serve_window("a", trace)
            second, noised = plane.serve_window("a", trace)
        assert not first and first.reason == "admission-fault"
        assert first.retryable
        assert second and noised is not None

    def test_rejected_window_consumes_no_noise(self):
        plane = small_plane()
        plane.admit_tenant(TenantSpec(tenant_id="a", epsilon_cap=30.0))
        trace = np.zeros((30, len(plane.monitored_events)))
        _, first = plane.serve_window("a", trace)
        first = first.copy()
        rejected, _ = plane.serve_window("a", trace)  # over quota
        assert not rejected

        solo = small_plane()
        solo.admit_tenant(TenantSpec(tenant_id="a"))
        _, expected = solo.serve_window("a", trace)
        assert np.array_equal(first, expected)


class TestControlPlane:
    def test_dstar_artifact_rejected(self):
        artifact = default_artifact()
        artifact.mechanism = "dstar"
        with pytest.raises(ValueError, match="Laplace"):
            FleetControlPlane(artifact)

    def test_duplicate_tenant_rejected(self):
        plane = small_plane()
        plane.admit_tenant(TenantSpec(tenant_id="a"))
        with pytest.raises(ValueError, match="already admitted"):
            plane.admit_tenant(TenantSpec(tenant_id="a"))

    def test_window_shape_validated(self):
        plane = small_plane()
        plane.admit_tenant(TenantSpec(tenant_id="a"))
        with pytest.raises(ValueError, match="event_matrix"):
            plane.serve_window("a", np.zeros((10, 3)))

    def test_replay_bit_identical_across_fresh_planes(self):
        specs = default_specs(3)
        first = replay(small_plane(), specs)
        second = replay(small_plane(), specs)
        assert first.fingerprint() == second.fingerprint()
        assert first.rejected_windows == 0

    def test_replay_invariant_to_concurrency(self):
        specs = default_specs(3)
        multiplexed = replay(small_plane(), specs)
        sequential = replay(small_plane(), specs, concurrency=1)
        assert multiplexed.fingerprint() == sequential.fingerprint()

    def test_replay_bit_identical_under_absorbed_fault(self):
        specs = default_specs(2)
        clean = replay(small_plane(), specs)
        with resilience.session(PROVISION_FAULT_ONCE):
            faulted = replay(small_plane(), specs)
        assert faulted.fingerprint() == clean.fingerprint()

    def test_exhausting_one_tenant_leaves_others_bit_identical(self):
        # Satellite guarantee: tenant a hitting its quota must not
        # perturb a single noise draw or budget record of tenant b.
        spec_a = TenantSpec(tenant_id="a", epsilon_cap=60.0)
        spec_b = TenantSpec(tenant_id="b")
        both = replay(small_plane(), [spec_a, spec_b], windows=3)
        solo = replay(small_plane(), [spec_b], windows=3)
        assert both.rejections.get("a"), "tenant a never exhausted"
        assert both.read_digests["b"] == solo.read_digests["b"]
        assert both.budgets["b"] == solo.budgets["b"]

    def test_tick_polls_watchdogs_and_reads_hpcs(self):
        plane = small_plane()
        plane.admit_tenant(TenantSpec(tenant_id="a"))
        result = plane.tick()
        assert result["tick"] == 1
        runtime = plane.tenant("a")
        assert runtime.hpc_reads == len(plane.monitored_events)
        runtime.daemon.heartbeat += 1
        plane.tick()
        assert runtime.watchdog.restarts == 0

    def test_close_releases_every_buffer(self):
        plane = small_plane()
        replay(plane, default_specs(2))
        buffers = list(plane.provisioner.buffers.values())
        assert len(buffers) == 2
        plane.close()
        assert plane.provisioner.buffers == {}
        for buffer in buffers:
            assert buffer.noise is None and buffer.per_comp is None
        plane.close()
        assert plane.provisioner.buffers == {}

    def test_status_is_json_ready(self):
        plane = small_plane()
        report = replay(plane, default_specs(2))
        status = plane.status()
        status["replay"] = report.to_dict()
        parsed = json.loads(json.dumps(status))
        assert parsed["tenants"]["t00"]["windows_served"] == 2
        assert parsed["budgets"]["t01"]["epsilon_cap"] is None

    def test_tenant_budgets_reach_telemetry(self):
        with telemetry.session(process="main") as runtime:
            replay(small_plane(), default_specs(2))
            gauges = runtime.metrics.snapshot()["gauges"]
        assert gauges["privacy.tenant.t00.epsilon_spent"] > 0
        assert gauges["privacy.tenant.t01.epsilon_basic"] > 0


class TestLoadGenerator:
    def test_default_specs_are_canonical(self):
        specs = default_specs(3, epsilon_cap=9.0)
        assert [s.tenant_id for s in specs] == ["t00", "t01", "t02"]
        assert all(s.epsilon_cap == 9.0 for s in specs)
        with pytest.raises(ValueError):
            default_specs(0)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            make_workload("bitcoin-miner")
        spec = TenantSpec(tenant_id="a", workload="keystroke")
        assert make_workload(spec.workload) is not None

    def test_recorded_trace_is_deterministic(self):
        spec = TenantSpec(tenant_id="a")
        first = record_trace(small_plane(), spec, 40)
        second = record_trace(small_plane(), spec, 40)
        assert first.shape == (40, 4)
        assert np.array_equal(first, second)

    def test_recorded_traces_pinned(self):
        plane = FleetControlPlane(default_artifact("amd-epyc-7252"), seed=7)
        digest = hashlib.sha256()
        for kind in ("website", "keystroke", "dnn", "rsa"):
            for i in (0, 1):
                spec = TenantSpec(f"{kind}{i}", workload=kind)
                plane.admit_tenant(spec)
                digest.update(record_trace(plane, spec, 500).tobytes())
        plane.close()
        assert digest.hexdigest() == PINNED_TRACE_DIGEST

    def test_report_accounting_adds_up(self):
        report = replay(small_plane(), default_specs(2), windows=2,
                        slices=50)
        assert report.served_windows == 4
        assert report.served_slices == 200
        assert report.slices_per_second > 0
        payload = report.to_dict()
        assert payload["read_digests"].keys() == {"t00", "t01"}
        assert sorted(report.fingerprint()) == ["budget_digest",
                                                "read_digests"]

    def test_validates_volume_arguments(self):
        plane = small_plane()
        specs = default_specs(1)
        with pytest.raises(ValueError):
            LoadGenerator(plane, specs, windows=0)
        with pytest.raises(ValueError):
            LoadGenerator(plane, specs, slices_per_window=0)
        with pytest.raises(ValueError):
            LoadGenerator(plane, specs, concurrency=0)
