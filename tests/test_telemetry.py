"""Telemetry subsystem: spans, metrics, ledger, runtime, aggregation."""

import bisect
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core.fuzzer import FuzzingCampaign
from repro.core.obfuscator.budget import PrivacyAccountant
from repro.telemetry.metrics import NOOP_INSTRUMENT
from repro.telemetry.spans import NOOP_SPAN


@pytest.fixture(autouse=True)
def _clean_runtime():
    """Every test starts and ends with telemetry disabled."""
    telemetry.disable()
    yield
    telemetry.disable()


# -- spans ------------------------------------------------------------


class FakeClock:
    """Deterministic monotonic clock for span timing tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_span_nesting_assigns_parent_ids():
    tracer = telemetry.Tracer(process="main", clock=FakeClock())
    with tracer.span("outer", stage="fuzz"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    records = tracer.records()
    assert [r.name for r in records] == ["outer", "inner", "inner"]
    assert [r.span_id for r in records] == [0, 1, 2]
    outer, first, second = records
    assert outer.parent_id is None
    assert first.parent_id == outer.span_id
    assert second.parent_id == outer.span_id
    assert outer.attrs == {"stage": "fuzz"}
    # The outer span covers both children in fake-clock time.
    assert outer.duration_s > first.duration_s + second.duration_s - 1e-9


def test_span_error_status_and_set_attr():
    tracer = telemetry.Tracer(process="main")
    with pytest.raises(RuntimeError):
        with tracer.span("work") as span:
            span.set_attr("items", 3)
            raise RuntimeError("boom")
    (record,) = tracer.records()
    assert record.status == "error"
    assert record.attrs == {"items": 3}


def test_span_jsonl_round_trip(tmp_path):
    tracer = telemetry.Tracer(process="shard-00002")
    with tracer.span("fuzz.screen_shard", shard=2):
        with tracer.span("fuzz.measure"):
            pass
    path = tracer.write(tmp_path / "trace-shard-00002.jsonl")
    restored = telemetry.read_spans(path)
    assert [r.structural_key() for r in restored] \
        == [r.structural_key() for r in tracer.records()]
    assert restored[0].process == "shard-00002"


def test_noop_tracer_returns_shared_span():
    assert telemetry.NOOP_TRACER.span("a") is NOOP_SPAN
    assert telemetry.NOOP_TRACER.span("b", k=1) is NOOP_SPAN
    with telemetry.NOOP_TRACER.span("a") as span:
        span.set_attr("ignored", 1)
    assert telemetry.NOOP_TRACER.records() == []
    assert telemetry.NOOP_TRACER.to_jsonl() == ""


# -- metrics ----------------------------------------------------------


def test_counter_and_gauge_basics():
    registry = telemetry.MetricsRegistry()
    counter = registry.counter("fuzz.gadgets")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5.0
    assert registry.counter("fuzz.gadgets") is counter
    with pytest.raises(ValueError):
        counter.inc(-1)
    gauge = registry.gauge("campaign.workers")
    gauge.set(4)
    assert gauge.value == 4.0


def test_histogram_bucket_boundaries():
    h = telemetry.Histogram(bounds=(1.0, 5.0, 10.0))
    for value in (0.5, 1.0, 1.01, 5.0, 9.9, 10.0, 11.0, 1000.0):
        h.observe(value)
    # <=1, <=5, <=10, overflow
    assert h.counts == [2, 2, 2, 2]
    assert h.count == 8
    assert h.mean == pytest.approx(sum(
        (0.5, 1.0, 1.01, 5.0, 9.9, 10.0, 11.0, 1000.0)) / 8)
    with pytest.raises(ValueError):
        telemetry.Histogram(bounds=(5.0, 1.0))
    with pytest.raises(ValueError):
        telemetry.Histogram(bounds=())


def test_disabled_registry_hands_back_shared_noops():
    registry = telemetry.NOOP_METRICS
    assert registry.counter("x") is NOOP_INSTRUMENT
    assert registry.gauge("y") is NOOP_INSTRUMENT
    assert registry.histogram("z") is NOOP_INSTRUMENT
    registry.counter("x").inc(10)
    registry.histogram("z").observe(1.0)
    assert registry.snapshot() == {"counters": {}, "gauges": {},
                                   "histograms": {}}


def test_merge_snapshots_rules():
    a = telemetry.MetricsRegistry()
    b = telemetry.MetricsRegistry()
    a.counter("n").inc(3)
    b.counter("n").inc(4)
    a.gauge("g").set(1.0)
    b.gauge("g").set(7.0)
    a.histogram("h", bounds=(1.0, 2.0)).observe(0.5)
    b.histogram("h", bounds=(1.0, 2.0)).observe(1.5)
    merged = telemetry.merge_snapshots([a.snapshot(), b.snapshot()])
    assert merged["counters"]["n"] == 7.0
    assert merged["gauges"]["g"] == 7.0
    assert merged["histograms"]["h"]["counts"] == [1, 1, 0]
    assert merged["histograms"]["h"]["count"] == 2
    # Order-invariant.
    swapped = telemetry.merge_snapshots([b.snapshot(), a.snapshot()])
    assert merged == swapped


def test_merge_snapshots_rejects_mismatched_bounds():
    a = telemetry.MetricsRegistry()
    b = telemetry.MetricsRegistry()
    a.histogram("h", bounds=(1.0,)).observe(0.5)
    b.histogram("h", bounds=(2.0,)).observe(0.5)
    with pytest.raises(ValueError, match="mismatched"):
        telemetry.merge_snapshots([a.snapshot(), b.snapshot()])


# -- ε-ledger ---------------------------------------------------------


def test_ledger_mirrors_accountant_state():
    registry = telemetry.MetricsRegistry()
    ledger = telemetry.PrivacyLedger(registry)
    accountant = PrivacyAccountant(per_slice_epsilon=0.5)
    accountant.releases = 300  # bypass record(): no runtime configured
    ledger.record_release(accountant, 300)
    composed = ledger.composed()
    assert composed["slices_released"] == 300.0
    assert composed["windows"] == 1.0
    assert composed["per_slice_epsilon"] == 0.5
    assert composed["epsilon_basic"] == pytest.approx(
        accountant.basic_epsilon)
    assert composed["epsilon_advanced"] == pytest.approx(
        accountant.advanced_epsilon)
    assert composed["epsilon_spent"] == pytest.approx(
        accountant.tightest_epsilon)
    # The summary reads the same numbers back out of a snapshot.
    summary = telemetry.epsilon_summary(registry.snapshot())
    assert summary == pytest.approx(composed)


def test_accountant_record_feeds_active_ledger():
    with telemetry.session():
        accountant = PrivacyAccountant(per_slice_epsilon=0.25)
        accountant.record(100)
        accountant.record(50)
        composed = telemetry.ledger().composed()
    assert composed["slices_released"] == 150.0
    assert composed["windows"] == 2.0
    assert composed["epsilon_spent"] == pytest.approx(
        accountant.tightest_epsilon)


def test_accountant_checkpoint_round_trip():
    accountant = PrivacyAccountant(per_slice_epsilon=0.5, delta=1e-5)
    accountant.releases = 1234
    restored = PrivacyAccountant.from_dict(accountant.to_dict())
    assert restored.per_slice_epsilon == 0.5
    assert restored.delta == 1e-5
    assert restored.releases == 1234
    assert restored.statement() == accountant.statement()
    with pytest.raises(ValueError):
        PrivacyAccountant.from_dict(
            {"per_slice_epsilon": 0.5, "releases": -1})


# -- runtime ----------------------------------------------------------


def test_runtime_disabled_by_default():
    assert not telemetry.enabled()
    assert telemetry.tracer() is telemetry.NOOP_TRACER
    assert telemetry.metrics() is telemetry.NOOP_METRICS
    assert telemetry.ledger() is telemetry.NOOP_LEDGER
    assert telemetry.flush() == []


def test_session_scopes_and_restores(tmp_path):
    with telemetry.session(trace_dir=tmp_path, process="main"):
        assert telemetry.enabled()
        with telemetry.tracer().span("stage"):
            telemetry.metrics().counter("n").inc()
    assert not telemetry.enabled()
    assert (tmp_path / "trace-main.jsonl").exists()
    assert (tmp_path / "metrics-main.json").exists()
    (span,) = telemetry.read_spans(tmp_path / "trace-main.jsonl")
    assert span.name == "stage"
    snapshot = telemetry.read_snapshot(tmp_path / "metrics-main.json")
    assert snapshot["counters"]["n"] == 1.0


def test_session_flushes_on_error(tmp_path):
    with pytest.raises(RuntimeError):
        with telemetry.session(trace_dir=tmp_path, process="main"):
            with telemetry.tracer().span("stage"):
                raise RuntimeError("crash")
    (span,) = telemetry.read_spans(tmp_path / "trace-main.jsonl")
    assert span.status == "error"


# -- aggregation ------------------------------------------------------


def _emit_process(trace_dir, process, spans, counters):
    with telemetry.session(trace_dir=trace_dir, process=process):
        for name in spans:
            with telemetry.tracer().span(name):
                pass
        for name, amount in counters.items():
            telemetry.metrics().counter(name).inc(amount)


def test_merge_run_orders_processes_and_sums_metrics(tmp_path):
    _emit_process(tmp_path, "shard-00001", ["fuzz.screen_shard"], {"n": 2})
    _emit_process(tmp_path, "main", ["aegis.fuzz"], {"n": 1})
    _emit_process(tmp_path, "shard-00000", ["fuzz.screen_shard"], {"n": 4})
    run = telemetry.merge_run(tmp_path)
    assert [s.process for s in run.spans] \
        == ["main", "shard-00000", "shard-00001"]
    assert run.metrics["counters"]["n"] == 7.0
    assert (tmp_path / telemetry.MERGED_TRACE).exists()
    assert (tmp_path / telemetry.MERGED_METRICS).exists()
    # load_run prefers the merged artifacts and agrees with the merge.
    loaded = telemetry.load_run(tmp_path)
    assert loaded.structural_key() == run.structural_key()


# -- durable writers --------------------------------------------------


def _write_trace(trace_dir):
    tracer = telemetry.Tracer(process="main")
    with tracer.span("aegis.fuzz"):
        pass
    tracer.write(trace_dir / "trace-main.jsonl")


def _write_metrics(trace_dir):
    registry = telemetry.MetricsRegistry()
    registry.counter("n").inc()
    registry.write(trace_dir / "metrics-main.json")


#: Every telemetry writer and the files it writes.
WRITERS = {
    "spans": (_write_trace, ["trace-main.jsonl"]),
    "metrics": (_write_metrics, ["metrics-main.json"]),
    "merge": (telemetry.merge_run,
              [telemetry.MERGED_TRACE, telemetry.MERGED_METRICS]),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_writers_fsync_what_they_write(tmp_path, monkeypatch, writer):
    write, names = WRITERS[writer]
    synced = []
    fsync = os.fsync

    def spy(fd):
        synced.append(os.fstat(fd).st_ino)
        fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    write(tmp_path)
    for name in names:
        assert (tmp_path / name).stat().st_ino in synced


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path,
                                                       monkeypatch, writer):
    write, names = WRITERS[writer]
    for name in names:
        (tmp_path / name).write_text("old", encoding="utf-8")

    def replace(src, dst):
        raise OSError("injected rename failure")

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="injected"):
        write(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name in names:
        assert (tmp_path / name).read_text(encoding="utf-8") == "old"


# -- campaign equivalence --------------------------------------------


def _run_traced_campaign(tmp_path, make_fuzzer, fuzz_events, workers):
    trace_dir = tmp_path / f"workers-{workers}"
    with telemetry.session(trace_dir=trace_dir, process="main"):
        fuzzer = make_fuzzer()
        campaign = FuzzingCampaign(fuzzer, workers=workers)
        report = campaign.run(np.array(fuzz_events))
    run = telemetry.merge_run(trace_dir)
    return report, run


def _scrub_workers_gauge(run):
    """Drop the one intentionally worker-dependent metric."""
    run.metrics["gauges"].pop("campaign.workers", None)
    return run


def test_merged_telemetry_identical_across_worker_counts(
        tmp_path, make_fuzzer, fuzz_events):
    report1, run1 = _run_traced_campaign(
        tmp_path, make_fuzzer, fuzz_events, workers=1)
    report4, run4 = _run_traced_campaign(
        tmp_path, make_fuzzer, fuzz_events, workers=4)
    # The campaign result itself is worker-count invariant...
    assert report1.covering_set.keys() == report4.covering_set.keys()
    # ...and so is the merged telemetry, wall times aside.
    key1 = _scrub_workers_gauge(run1).structural_key()
    key4 = _scrub_workers_gauge(run4).structural_key()
    assert key1 == key4
    # Sanity: the runs actually contain per-shard telemetry.
    assert len(run4.shard_spans()) == 4
    assert {s.process for s in run4.shard_spans()} \
        == {f"shard-{i:05d}" for i in range(4)}
    assert run4.metrics["counters"]["fuzz.gadgets_screened"] == 160.0
    # The cleanup-build counter ticks only on a cache miss; forked
    # workers inherit the populated memo, so it is equal at any worker
    # count (and absent from both runs when the memo was already warm).
    assert run1.metrics["counters"].get("fuzz.cleanup_builds", 0.0) \
        == run4.metrics["counters"].get("fuzz.cleanup_builds", 0.0)


def test_traced_campaign_writes_per_shard_files(
        tmp_path, make_fuzzer, fuzz_events):
    _, run = _run_traced_campaign(
        tmp_path, make_fuzzer, fuzz_events, workers=2)
    trace_dir = tmp_path / "workers-2"
    names = sorted(p.name for p in trace_dir.glob("trace-*.jsonl"))
    assert names == ["trace-main.jsonl"] \
        + [f"trace-shard-{i:05d}.jsonl" for i in range(4)]
    stages = run.stage_seconds()
    assert "fuzz.screening" in stages
    assert len(run.shard_seconds()) == 4


def test_untraced_campaign_emits_nothing(tmp_path, make_fuzzer,
                                         fuzz_events):
    fuzzer = make_fuzzer()
    campaign = FuzzingCampaign(fuzzer, workers=2)
    campaign.run(np.array(fuzz_events))
    assert list(tmp_path.iterdir()) == []
    assert telemetry.tracer() is telemetry.NOOP_TRACER


# -- rendering --------------------------------------------------------


def test_render_trace_dir(tmp_path, make_fuzzer, fuzz_events):
    _, run = _run_traced_campaign(
        tmp_path, make_fuzzer, fuzz_events, workers=2)
    text = telemetry.render_trace_dir(tmp_path / "workers-2")
    assert "Aegis run telemetry" in text
    assert "Stage timings" in text
    assert "Shard balance" in text
    assert "fuzz.gadgets_screened" in text


def test_structural_key_ignores_wall_times():
    span = telemetry.SpanRecord(
        name="s", span_id=0, parent_id=None, process="main",
        start_s=1.0, duration_s=2.0)
    other = telemetry.SpanRecord(
        name="s", span_id=0, parent_id=None, process="main",
        start_s=9.0, duration_s=0.1)
    assert span.structural_key() == other.structural_key()
    payload = json.loads(json.dumps(span.to_dict()))
    assert telemetry.SpanRecord.from_dict(payload) == span


# -- batch engine counters --------------------------------------------


def test_batch_counters_noop_when_disabled():
    """Without an active registry the helpers must not crash or
    allocate anything."""
    from repro.cpu import batch

    batch.count_evals(5)
    batch.count_fallback(2)
    assert telemetry.metrics() is telemetry.NOOP_METRICS


def test_batch_counters_split_memo_hits_from_fallback():
    """``batch.evals`` counts every measurement served by the batch
    layer; ``batch.fallback_scalar`` the subset that ran the scalar
    interpreter — so dashboards see memo effectiveness directly."""
    from repro.core.fuzzer.campaign import default_cleanup, gadget_stream
    from repro.core.fuzzer.generator import ExecutionHarness
    from repro.core.fuzzer.grammar import GadgetGrammar
    from repro.cpu import batch
    from repro.cpu.core import Core

    batch.clear_memo()
    events = np.array([10, 400])
    core = Core("amd-epyc-7252", rng=np.random.default_rng(0))
    harness = ExecutionHarness(core, rng=0)
    grammar = GadgetGrammar(default_cleanup("amd-epyc-7252").legal, rng=0)
    with telemetry.session():
        for i in range(40):
            gadget = grammar.sample(rng=gadget_stream(3, i))
            core.reset_microarch_state()
            harness.warm_measurement_state()
            harness.set_rng(gadget_stream(3, i))
            harness.screen_measure(gadget, events)
        snapshot = telemetry.metrics().snapshot()
    evals = snapshot["counters"]["batch.evals"]
    fallback = snapshot["counters"]["batch.fallback_scalar"]
    assert evals == 40.0
    assert 0 < fallback < evals  # memo hits skipped the interpreter


def test_batch_counters_on_convergence_replication():
    """A long repeat batch reports every eval but only the scalar
    prefix (pre-fixed-point executions) as fallback."""
    from repro.core.fuzzer.generator import ExecutionHarness
    from repro.cpu.core import Core
    from repro.isa.catalog import shared_catalog

    core = Core("amd-epyc-7252", rng=np.random.default_rng(0))
    harness = ExecutionHarness(core, rng=0)
    program = harness.build_program([shared_catalog().get("ADD r64,r64")])
    with telemetry.session():
        core.execute_batch(program, update_hpc=False, repeats=50)
        snapshot = telemetry.metrics().snapshot()
    assert snapshot["counters"]["batch.evals"] == 50.0
    assert snapshot["counters"]["batch.fallback_scalar"] <= 8.0


def test_batch_disable_env_forces_full_fallback(monkeypatch):
    from repro.core.fuzzer.generator import ExecutionHarness
    from repro.cpu.core import Core
    from repro.isa.catalog import shared_catalog

    monkeypatch.setenv("REPRO_BATCH_DISABLE", "1")
    core = Core("amd-epyc-7252", rng=np.random.default_rng(0))
    harness = ExecutionHarness(core, rng=0)
    program = harness.build_program([shared_catalog().get("ADD r64,r64")])
    with telemetry.session():
        core.execute_batch(program, update_hpc=False, repeats=20)
        snapshot = telemetry.metrics().snapshot()
    assert snapshot["counters"]["batch.evals"] == 20.0
    assert snapshot["counters"]["batch.fallback_scalar"] == 20.0


# -- bucket presets and quantiles ------------------------------------


def test_bucket_presets_resolve():
    assert telemetry.resolve_bounds("default") \
        == telemetry.DEFAULT_BUCKETS
    assert telemetry.resolve_bounds("latency") \
        == telemetry.LATENCY_BUCKETS
    assert telemetry.resolve_bounds((2, 4)) == (2.0, 4.0)
    with pytest.raises(ValueError, match="unknown bucket preset"):
        telemetry.resolve_bounds("weird")
    assert set(telemetry.BUCKET_PRESETS) == {"default", "latency"}


def test_histogram_accepts_preset_name():
    h = telemetry.Histogram(bounds="latency")
    assert h.bounds == telemetry.LATENCY_BUCKETS
    h.observe(3e-6)
    assert h.counts[2] == 1  # the (2.5e-6, 5e-6] bucket


def test_registry_rejects_re_registration_with_other_bounds():
    registry = telemetry.MetricsRegistry()
    first = registry.histogram("slo.x.seconds", "latency")
    assert registry.histogram("slo.x.seconds", "latency") is first
    with pytest.raises(ValueError, match="already registered"):
        registry.histogram("slo.x.seconds", "default")
    # The bare default is a mismatch too: bounds are part of the name's
    # contract, so cross-process reduction can never mix bucketings.
    with pytest.raises(ValueError, match="already registered"):
        registry.histogram("slo.x.seconds")


def test_latency_preset_merges_across_processes():
    a = telemetry.MetricsRegistry()
    b = telemetry.MetricsRegistry()
    a.histogram("slo.x.seconds", "latency").observe(3e-4)
    b.histogram("slo.x.seconds", "latency").observe(7e-3)
    merged = telemetry.merge_snapshots([a.snapshot(), b.snapshot()])
    assert merged["histograms"]["slo.x.seconds"]["count"] == 2


def test_histogram_quantile_interpolates():
    payload = {"bounds": [1.0, 2.0, 4.0], "counts": [0, 4, 0, 0],
               "count": 4, "total": 6.0}
    # All mass in (1, 2]: rank q*4 interpolates linearly inside it.
    assert telemetry.histogram_quantile(payload, 0.5) == 1.5
    assert telemetry.histogram_quantile(payload, 1.0) == 2.0
    empty = {"bounds": [1.0], "counts": [0, 0], "count": 0, "total": 0.0}
    assert telemetry.histogram_quantile(empty, 0.99) == 0.0
    with pytest.raises(ValueError):
        telemetry.histogram_quantile(payload, 1.5)


def test_histogram_quantile_overflow_clamps_to_last_bound():
    payload = {"bounds": [1.0, 2.0], "counts": [0, 0, 3],
               "count": 3, "total": 300.0}
    assert telemetry.histogram_quantile(payload, 0.99) == 2.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=1e-7, max_value=5.0,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=200))
def test_latency_quantile_lies_in_the_nearest_rank_bucket(durations):
    """Every SLO p50/p95/p99 is this estimate: it lies inside the
    latency bucket that holds the exact nearest-rank quantile, and past
    the last bound (1 s) it is that bound."""
    histogram = telemetry.Histogram("latency")
    for value in durations:
        histogram.observe(value)
    bounds = telemetry.LATENCY_BUCKETS
    ordered = sorted(durations)
    for q in (0.5, 0.95, 0.99):
        exact = ordered[max(math.ceil(q * len(ordered)), 1) - 1]
        estimate = telemetry.histogram_quantile(histogram.payload(), q)
        if exact > bounds[-1]:
            assert estimate == bounds[-1]
            continue
        index = bisect.bisect_left(bounds, exact)
        lower = bounds[index - 1] if index else 0.0
        assert lower <= estimate <= bounds[index], (q, exact, estimate)


# -- merged exposition determinism -----------------------------------


def _emit_slo_process(trace_dir, process, observations, alerts):
    with telemetry.session(trace_dir=trace_dir, process=process):
        histogram = telemetry.metrics().histogram(
            "slo.fleet.serve_window.seconds", "latency")
        for value in observations:
            histogram.observe(value)
        if alerts:
            telemetry.metrics().counter("obs.alerts").inc(alerts)
            telemetry.metrics().counter(
                "obs.alert.burst-polling").inc(alerts)
        telemetry.metrics().counter("fleet.windows_served").inc(
            len(observations))


def test_merged_metrics_byte_identical_one_vs_many(tmp_path):
    """The same observations merged from 1 vs 4 processes produce
    byte-identical metrics.json and byte-identical rendered reports."""
    observations = [3e-4, 6e-4, 1.2e-3, 2e-2]
    one = tmp_path / "one"
    _emit_slo_process(one, "main", observations, alerts=4)
    many = tmp_path / "many"
    _emit_slo_process(many, "main", observations[:1], alerts=1)
    for i, value in enumerate(observations[1:]):
        _emit_slo_process(many, f"shard-{i:05d}", [value], alerts=1)
    telemetry.merge_run(one)
    telemetry.merge_run(many)
    merged_one = (one / telemetry.MERGED_METRICS).read_bytes()
    merged_many = (many / telemetry.MERGED_METRICS).read_bytes()
    assert merged_one == merged_many
    assert telemetry.render_trace_dir(one) \
        == telemetry.render_trace_dir(many)


def test_render_observability_section(tmp_path):
    _emit_slo_process(tmp_path, "main", [3e-4, 6e-4, 1.2e-3], alerts=2)
    text = telemetry.render_trace_dir(tmp_path)
    assert "## Observability" in text
    assert "fleet.serve_window: p50" in text
    assert "attack-signal alerts: 2 (burst-polling x2)" in text
    # obs.* counters live in the Observability section, not Counters.
    assert "fleet.windows_served" in text
    assert "obs.alerts " not in text
