"""Observability plane: SLO histograms, attack-signal detectors,
exposition, and the fleet integration determinism guarantees.

The acceptance bar: everything is a strict no-op while the plane is
disabled (the default), and everything the plane emits — alert seq
numbers, severities, scores, OpenMetrics text — is bit-identical
across load-generator concurrency and across repeat runs.
"""

import json

import pytest

from repro import telemetry
from repro.fleet import (
    AttackerProfile,
    FleetControlPlane,
    LoadGenerator,
    default_artifact,
    default_specs,
)
from repro.observability import (
    NOOP_OBSERVABILITY,
    NOOP_SLO,
    BurstPollingDetector,
    DetectorRegistry,
    EwmaDetector,
    RotationScanDetector,
    SamplingProfiler,
    SignalExtractor,
    SingleStepCadenceDetector,
    SloTracker,
    SnapshotExporter,
    metric_name,
    read_export,
    render_openmetrics,
    write_openmetrics,
)
from repro.observability import runtime as observability
from repro.telemetry.metrics import slo_readouts


@pytest.fixture(autouse=True)
def _clean_runtimes():
    """Every test starts and ends with both planes disabled."""
    observability.disable()
    telemetry.disable()
    yield
    observability.disable()
    telemetry.disable()


# -- SLO histograms ---------------------------------------------------


def test_slo_readout_of_unobserved_operation_is_zero_and_unregistered():
    tracker = SloTracker()
    assert tracker.readout("fleet.tick") == {
        "count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
    assert tracker.names() == []
    assert tracker.readouts() == {}


def test_slo_readout_fields():
    tracker = SloTracker()
    for value in (1e-4, 2e-4, 3e-4, 4e-4):
        tracker.observe("fleet.serve_window", value)
    readout = tracker.readout("fleet.serve_window")
    assert sorted(readout) == ["count", "mean", "p50", "p95", "p99"]
    assert readout["count"] == 4
    assert readout["mean"] == pytest.approx(2.5e-4, rel=1e-12)
    # Quantiles are the histogram's, so they agree with any reader of
    # the same payload; the median falls in the (1e-4, 2.5e-4] bucket
    # (2e-4), the 99th percentile in (2.5e-4, 5e-4] (3e-4, 4e-4).
    payload = tracker.histograms()["fleet.serve_window"]
    for q in (0.5, 0.95, 0.99):
        assert readout[f"p{int(q * 100)}"] \
            == telemetry.histogram_quantile(payload, q)
    assert 1e-4 < readout["p50"] <= 2.5e-4
    assert 2.5e-4 < readout["p99"] <= 5e-4


def test_slo_tracker_mirrors_into_latency_histogram():
    with telemetry.session():
        tracker = SloTracker()
        tracker.observe("fleet.serve_window", 3e-4)
        tracker.observe("fleet.serve_window", 7e-4)
        snapshot = telemetry.metrics().snapshot()
        payload = snapshot["histograms"]["slo.fleet.serve_window.seconds"]
        assert payload["count"] == 2
        assert payload["bounds"] == list(telemetry.LATENCY_BUCKETS)
    assert tracker.names() == ["fleet.serve_window"]
    assert tracker.histograms()["fleet.serve_window"] == payload
    assert tracker.readouts()["fleet.serve_window"] \
        == telemetry.histogram_readout(payload)


def test_slo_tracker_skips_mirror_when_telemetry_disabled():
    tracker = SloTracker()
    tracker.observe("cache.lookup", 1e-5)  # must not raise
    assert tracker.readout("cache.lookup")["count"] == 1


def test_noop_slo_tracker():
    NOOP_SLO.observe("anything", 1.0)
    assert NOOP_SLO.readouts() == {}
    assert NOOP_SLO.histograms() == {}
    assert NOOP_SLO.readout("anything")["count"] == 0
    assert NOOP_SLO.names() == []


# -- read-stream signals ----------------------------------------------


def test_stream_run_resets_on_coarse_interval():
    extractor = SignalExtractor()
    stream = extractor.ingest("t00", 0, at=0.0)
    extractor.ingest("t00", 0, at=0.001)
    extractor.ingest("t00", 0, at=0.002)
    assert stream.run_len == 3
    assert stream.cadence_run == 2  # two equal back-to-back intervals
    extractor.ingest("t00", 1, at=1.0)  # coarse gap: new run
    assert stream.run_len == 1
    assert stream.cadence_run == 0
    assert stream.total_reads == 4


def test_stream_cadence_breaks_on_jitter():
    extractor = SignalExtractor()
    stream = extractor.ingest("t00", 0, at=0.0)
    for i in range(1, 5):
        extractor.ingest("t00", 0, at=i * 0.001)
    assert stream.cadence_run == 4
    extractor.ingest("t00", 0, at=0.0065)  # 2.5ms, still in-burst
    assert stream.run_len == 6
    assert stream.cadence_run == 1  # cadence restarted


def test_rotation_entropy():
    extractor = SignalExtractor()
    stream = extractor.stream("t00")
    at = 0.0
    for i in range(8):
        at += 0.001
        extractor.ingest("t00", i % 2, at=at)
    assert stream.rotation_entropy() == pytest.approx(1.0)
    features = stream.features()
    assert features["distinct_slots"] == 2
    assert features["run_len"] == 8
    assert features["mean_run_interval"] == pytest.approx(0.001)


def test_single_slot_entropy_is_zero():
    extractor = SignalExtractor()
    stream = extractor.stream("t00")
    for i in range(4):
        extractor.ingest("t00", 3, at=i * 0.001)
    assert stream.rotation_entropy() == 0.0


# -- detectors --------------------------------------------------------


def _steady_features(cadence_run, run_len=None, last_interval=0.001,
                     entropy=0.0, distinct_slots=1):
    return {
        "total_reads": run_len or cadence_run + 1,
        "last_interval": last_interval,
        "run_len": run_len if run_len is not None else cadence_run + 1,
        "cadence_run": cadence_run,
        "distinct_slots": distinct_slots,
        "rotation_entropy": entropy,
        "mean_run_interval": last_interval,
        "min_run_interval": last_interval,
        "max_run_interval": last_interval,
    }


def test_single_step_detector_threshold():
    detector = SingleStepCadenceDetector()
    assert detector.evaluate("t", _steady_features(23)) is None
    hit = detector.evaluate("t", _steady_features(24))
    assert hit is not None
    score, detail = hit
    assert score == 0.001
    assert "24 equal intervals" in detail
    # high-entropy register rotation is not single-stepping
    noisy = _steady_features(24, entropy=2.0, distinct_slots=4)
    assert detector.evaluate("t", noisy) is None


def test_burst_detector_needs_rotation():
    detector = BurstPollingDetector()
    single_slot = _steady_features(0, run_len=40)
    assert detector.evaluate("t", single_slot) is None
    rotating = _steady_features(0, run_len=40, distinct_slots=3,
                                entropy=1.5)
    assert detector.evaluate("t", rotating) is not None
    short = _steady_features(0, run_len=31, distinct_slots=3)
    assert detector.evaluate("t", short) is None


def test_rotation_detector_entropy_gate():
    detector = RotationScanDetector()
    low = _steady_features(0, run_len=40, distinct_slots=2, entropy=1.0)
    assert detector.evaluate("t", low) is None
    high = _steady_features(0, run_len=40, distinct_slots=4, entropy=2.0)
    score, _ = detector.evaluate("t", high)
    assert score == 2.0


def test_ewma_detector_tracks_per_tenant_rate():
    detector = EwmaDetector(alpha=0.5, floor=0.002, min_reads=4)
    fast = _steady_features(0, run_len=8, last_interval=0.0001)
    warmup = _steady_features(0, run_len=2, last_interval=0.0001)
    assert detector.evaluate("t0", warmup) is None  # below min_reads
    assert detector.evaluate("t0", fast) is not None
    slow = _steady_features(0, run_len=8, last_interval=0.5)
    assert detector.evaluate("t1", slow) is None  # per-tenant state
    # smoothing: one slow read pulls t0's EWMA back above the floor
    assert detector.evaluate("t0", slow) is None
    detector.clear()
    assert detector._ewma == {}


def test_registry_clear_resets_detector_state():
    # Regression: clear() once dropped alerts but left EwmaDetector's
    # per-tenant rate state behind, so a cleared registry fired on a
    # different schedule than a fresh one. Pin the full reset: after
    # clear(), the same feature sequence must replay identically.
    def drive(registry):
        fast = _steady_features(0, run_len=8, last_interval=0.0001)
        warmup = _steady_features(0, run_len=2, last_interval=0.0001)
        registry.evaluate("t0", warmup, at=1.0)
        registry.evaluate("t0", fast, at=2.0)
        return [(a.seq, a.detector, a.score)
                for a in registry.alerts()]

    registry = DetectorRegistry([EwmaDetector(alpha=0.5, floor=0.002,
                                              min_reads=4)])
    first = drive(registry)
    assert first  # the fast read fires once warmed up
    registry.clear()
    assert all(d._ewma == {} for d in registry.detectors)
    assert drive(registry) == first


def test_registry_rising_edge_and_rearm():
    registry = DetectorRegistry([SingleStepCadenceDetector()])
    firing = _steady_features(24)
    registry.evaluate("t03", firing, at=1.0)
    registry.evaluate("t03", firing, at=2.0)  # still firing: no new alert
    assert len(registry.alerts()) == 1
    registry.evaluate("t03", _steady_features(1), at=3.0)  # clears
    registry.evaluate("t03", firing, at=4.0)  # re-arms
    alerts = registry.alerts()
    assert [a.seq for a in alerts] == [0, 1]
    assert all(a.detector == "single-step-cadence" for a in alerts)
    assert all(a.severity == "critical" for a in alerts)


def test_registry_ranked_ordering_and_counts():
    registry = DetectorRegistry.default()
    burst = _steady_features(0, run_len=40, distinct_slots=4,
                             entropy=2.0)
    registry.evaluate("t02", burst, at=1.0)
    registry.evaluate("t03", _steady_features(24), at=2.0)
    ranked = registry.alerts(ranked=True)
    assert [a.severity for a in ranked] == ["critical", "high", "medium"]
    assert ranked[0].tenant_id == "t03"
    by_seq = registry.alerts()
    assert [a.seq for a in by_seq] == [0, 1, 2]
    assert registry.counts() == {"burst-polling": 1,
                                 "register-rotation": 1,
                                 "single-step-cadence": 1}
    snapshot = registry.snapshot()
    assert snapshot[0]["severity"] == "critical"
    assert snapshot[0]["detector"] == "single-step-cadence"
    assert snapshot == [a.to_dict() for a in ranked]


def test_registry_mirrors_alerts_into_ledger():
    with telemetry.session():
        registry = DetectorRegistry.default()
        registry.evaluate("t03", _steady_features(24), at=1.0)
        counters = telemetry.metrics().snapshot()["counters"]
        assert counters["obs.alerts"] == 1
        assert counters["obs.alert.single-step-cadence"] == 1


# -- exposition -------------------------------------------------------


def test_metric_name_sanitizer():
    assert metric_name("fleet.slices_served") == "fleet_slices_served"
    assert metric_name("obs.alert.burst-polling") \
        == "obs_alert_burst_polling"
    assert metric_name("9lives") == "_9lives"


def test_render_openmetrics_pinned_text():
    snapshot = {
        "counters": {"fleet.ticks": 3},
        "gauges": {"campaign.workers": 4},
        "histograms": {"slo.x.seconds": {
            "bounds": [0.001, 0.01], "counts": [2, 1, 1],
            "total": 0.0145, "count": 4}},
    }
    assert render_openmetrics(snapshot) == (
        "# TYPE fleet_ticks counter\n"
        "fleet_ticks_total 3\n"
        "# TYPE campaign_workers gauge\n"
        "campaign_workers 4\n"
        "# TYPE slo_x_seconds histogram\n"
        'slo_x_seconds_bucket{le="0.001"} 2\n'
        'slo_x_seconds_bucket{le="0.01"} 3\n'
        'slo_x_seconds_bucket{le="+Inf"} 4\n'
        "slo_x_seconds_sum 0.0145\n"
        "slo_x_seconds_count 4\n"
        "# EOF\n")


def test_openmetrics_write_failure_keeps_previous_file(tmp_path,
                                                      monkeypatch):
    """A write whose fsync fails leaves the previous exposition intact
    and no temp file behind."""
    import os

    from repro.fleet import statefile
    path = tmp_path / "obs" / "metrics.om"
    write_openmetrics({"counters": {"fleet.ticks": 1}}, path)
    before = path.read_text(encoding="utf-8")

    def failing_fsync(fd):
        raise OSError("fsync failed")

    monkeypatch.setattr(statefile.os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="fsync failed"):
        write_openmetrics({"counters": {"fleet.ticks": 2}}, path)
    assert path.read_text(encoding="utf-8") == before
    assert os.listdir(path.parent) == ["metrics.om"]


def test_snapshot_exporter_seq_numbers(tmp_path):
    path = tmp_path / "snapshots.jsonl"
    exporter = SnapshotExporter(path)
    assert exporter.export({"counters": {"a": 1}}) == 0
    assert exporter.export({"counters": {"a": 2}}) == 1
    records = read_export(path)
    assert [r["seq"] for r in records] == [0, 1]
    assert records[1]["metrics"]["counters"]["a"] == 2


# -- profiler ---------------------------------------------------------


def test_profiler_sample_once_attributes_to_span():
    profiler = SamplingProfiler()

    def _leaf():
        frame = __import__("sys")._getframe()
        return profiler.sample_once(frame=frame)

    with telemetry.session():
        with telemetry.tracer().span("fuzz.screen_shard"):
            key = _leaf()
    assert key[0] == "fuzz.screen_shard"
    assert key[1].endswith("_leaf")
    assert profiler.total_samples == 1
    report = profiler.report(top=1)
    assert report[0]["span"] == "fuzz.screen_shard"
    assert report[0]["samples"] == 1


def test_profiler_samples_no_span_without_tracer():
    profiler = SamplingProfiler()
    frame = __import__("sys")._getframe()
    key = profiler.sample_once(frame=frame)
    assert key[0] == "<no-span>"


# -- runtime gating ---------------------------------------------------


def test_disabled_by_default():
    assert not observability.enabled()
    assert observability.active() is NOOP_OBSERVABILITY
    assert not NOOP_OBSERVABILITY.enabled
    NOOP_OBSERVABILITY.ingest_read("t00", 0, 1.0)  # all no-ops
    assert NOOP_OBSERVABILITY.snapshot() == {"slo": {}, "alerts": []}


def test_session_scopes_and_restores(tmp_path):
    export = tmp_path / "snapshots.jsonl"
    with telemetry.session():
        with observability.session(export_path=export) as runtime:
            assert observability.enabled()
            assert observability.active() is runtime
            runtime.slo.observe("fleet.tick", 1e-4)
        assert not observability.enabled()
    # close() wrote the final snapshot
    records = read_export(export)
    assert len(records) == 1
    assert "slo.fleet.tick.seconds" in records[0]["metrics"]["histograms"]


def test_disabled_plane_is_noop_through_fleet_and_cache(tmp_path,
                                                        make_fuzzer,
                                                        fuzz_events):
    """With obs off, no slo.* metrics appear anywhere — the wrappers
    must take the early-return path, not record into a hidden sink.
    The campaign fills and then reads a ``cache_dir`` shard store."""
    from repro.core.fuzzer import FuzzingCampaign

    with telemetry.session():
        plane = FleetControlPlane(default_artifact(), seed=3,
                                  capacity=512, watermark=128)
        specs = default_specs(2)
        LoadGenerator(plane, specs, windows=1,
                      slices_per_window=20).run()
        for _ in range(2):
            FuzzingCampaign(make_fuzzer(gadget_budget=8, shard_size=4),
                            cache_dir=tmp_path).run(fuzz_events)
        snapshot = telemetry.metrics().snapshot()
        assert snapshot["counters"]["cache.hits"] == 8
    assert not any(name.startswith("slo.")
                   for name in snapshot["histograms"])
    assert not any(name.startswith("obs.")
                   for name in snapshot["counters"])


# -- fleet integration ------------------------------------------------

ATTACKERS = {"t02": AttackerProfile(kind="burst-poll"),
             "t03": AttackerProfile(kind="single-step")}

#: The pinned alert stream for 4 tenants x 3 windows with t02
#: burst-polling and t03 single-stepping: per window, burst-polling
#: and register-rotation fire on the read where t02's run length hits
#: 32 (registration order decides the tie), then single-step-cadence
#: on t03's 25th read.
EXPECTED_ALERTS = [
    (seq, tenant, detector, severity)
    for window in range(3)
    for seq, tenant, detector, severity in (
        (window * 3 + 0, "t02", "burst-polling", "high"),
        (window * 3 + 1, "t02", "register-rotation", "medium"),
        (window * 3 + 2, "t03", "single-step-cadence", "critical"),
    )
]


def _replay(concurrency, attackers=ATTACKERS, seed=0):
    plane = FleetControlPlane(default_artifact(), seed=seed,
                              capacity=1024, watermark=256)
    generator = LoadGenerator(plane, default_specs(4), windows=3,
                              slices_per_window=40,
                              concurrency=concurrency,
                              attackers=attackers)
    with observability.session() as runtime:
        report = generator.run()
        alerts = runtime.detectors.alerts()
        status = plane.status()
    return alerts, report, status


def test_attack_alerts_pinned_and_bit_identical_across_concurrency():
    baseline = None
    for concurrency in (1, 4, None):
        alerts, _, _ = _replay(concurrency)
        stream = [(a.seq, a.tenant_id, a.detector, a.severity)
                  for a in alerts]
        assert stream == EXPECTED_ALERTS, f"concurrency={concurrency}"
        fingerprints = [a.fingerprint() for a in alerts]
        if baseline is None:
            baseline = fingerprints
        else:
            assert fingerprints == baseline, f"concurrency={concurrency}"


def test_attack_alerts_identical_across_repeat_runs():
    first, _, _ = _replay(4)
    second, _, _ = _replay(4)
    assert [a.fingerprint() for a in first] \
        == [a.fingerprint() for a in second]
    assert [a.to_dict() for a in first] == [a.to_dict() for a in second]


def test_attacker_injection_never_perturbs_noised_reads():
    """rdpmc is a pure read: the attack trace must not shift any RNG
    stream or noised value, so replay digests match a quiet fleet."""
    _, attacked, _ = _replay(None)
    _, quiet, _ = _replay(None, attackers=None)
    assert attacked.read_digests == quiet.read_digests
    assert attacked.budget_digest == quiet.budget_digest


def test_status_carries_observability_block_and_health():
    _, _, status = _replay(4)
    assert status["health"]["healthy"] is True
    block = status["observability"]
    assert len(block["alerts"]) == 9
    severities = [alert["severity"] for alert in block["alerts"]]
    assert severities == sorted(
        severities,
        key=lambda s: {"critical": 0, "high": 1, "medium": 2}[s])
    assert block["slo"]["fleet.serve_window"]["count"] == 12
    assert block["slo"]["fleet.tick"]["count"] >= 3
    assert json.dumps(status)  # JSON-ready end to end


def test_status_slo_equals_the_exported_histograms(tmp_path):
    """``fleet status`` and the exported ``slo.*.seconds`` histograms
    (what ``repro top`` and ``report --trace`` read) give one count,
    p50, p95 and p99 per operation for the same run."""
    export = tmp_path / "metrics-snapshots.jsonl"
    plane = FleetControlPlane(default_artifact(), seed=0,
                              capacity=1024, watermark=256)
    generator = LoadGenerator(plane, default_specs(4), windows=3,
                              slices_per_window=40, attackers=ATTACKERS)
    with telemetry.session(), \
            observability.session(export_path=export):
        generator.run()
        status = plane.status()
    exported = read_export(export)[-1]["metrics"]["histograms"]
    slo = status["observability"]["slo"]
    assert slo["fleet.serve_window"]["count"] == 12
    assert slo == slo_readouts(exported)


def test_health_degrades_on_stalls_and_restarts():
    plane = FleetControlPlane(default_artifact(), seed=1,
                              capacity=512, watermark=128)
    LoadGenerator(plane, default_specs(2), windows=1,
                  slices_per_window=10).run()
    assert plane.health()["healthy"] is True
    plane.tenants["t00"].watchdog.restarts = 2
    plane.provisioner.buffer("t01").stalls = 1
    health = plane.health()
    assert health["healthy"] is False
    assert len(health["reasons"]) == 2
    assert "watchdog restarted it 2 time(s)" in health["reasons"][1] \
        or "watchdog restarted it 2 time(s)" in health["reasons"][0]
    assert any("fail-closed" in reason for reason in health["reasons"])
