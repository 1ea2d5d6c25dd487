"""Coverage-guided gadget search: map, corpus, scheduler, engine.

The load-bearing claims under test: the coverage map and corpus are
order- and worker-count-invariant (bit-identical replay digests across
1/4 workers), a checkpointed search resumes into the exact trajectory
of an uninterrupted one, damaged corpus entries are misses (never
crashes), the ``search.corpus.write`` chaos point cannot change
results, and the search's grammar samples reproduce campaign screening
bit for bit.
"""

import dataclasses
import hashlib
import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.fuzzer import (CampaignError, FuzzingCampaign, ShardConfig,
                               merge_screened, plan_shards, screen_shard)
from repro.core.fuzzer import campaign as campaign_mod
from repro.core.fuzzer.campaign import default_cleanup
from repro.core.fuzzer.grammar import (LEGACY_SIGNATURE_LENGTH, Gadget,
                                       normalize_signature)
from repro.cpu import batch
from repro.resilience import runtime as resilience
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.cpu.signals import NUM_SIGNALS, Signal
from repro.search import (Corpus, CorpusEntry, CoverageExtractor,
                          CoverageMap, CoverageSample, CoverageSearch,
                          FrontierScheduler, SearchError, UNIT_OF_SIGNAL,
                          evals_to_cover, feature_id, gadget_digest)
from repro.search.corpus import build_name_index
from repro.search.coverage import (BUCKET_EDGES, FRONTIER_EVENT,
                                   MAX_MAGNITUDE_BUCKET, NEAR_MISS_FRACTION)
from repro.search.engine import (SEARCH_STATE_FILE, SearchEvaluator,
                                 SearchTask, chunk_bounds,
                                 evaluate_search_chunk, search_evaluator)
from repro.telemetry import merge_run
from repro.telemetry import runtime as telemetry

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "7"))

MAX_EVALS = 200

#: ``baseline``'s digests: any worker count, and any fault the
#: supervisor recovers from, must reproduce them.
PINNED_REPLAY_DIGEST = ("ead356d5d665c51b503598539284153d"
                        "0cb1242c311c269d466e27c017980c38")
PINNED_COVERAGE_DIGEST = ("83a6cccc500983ad0466e696d241d904"
                          "a0ba7984436e296082ec4ca3e08f6f87")

#: First evaluation of the second chunk of round 1 (``baseline``'s
#: rounds split 40+40, 35+35, 48): a fault keyed here lands mid-round,
#: on a pool that is already up.
MID_ROUND_CHUNK = 115


@pytest.fixture(autouse=True)
def _disarmed():
    resilience.disarm()
    yield
    resilience.disarm()


@pytest.fixture(scope="module")
def events(fuzz_events):
    return np.array(fuzz_events)


@pytest.fixture(scope="module")
def search_config(make_fuzzer, events):
    return make_fuzzer().search_config(events)


@pytest.fixture(scope="module")
def baseline(search_config):
    """The single-worker, no-corpus-dir search everything must match."""
    return CoverageSearch(search_config, max_evals=MAX_EVALS).run()


def result_key(result):
    """Everything that must be equal across equivalent searches."""
    return (result.corpus_replay_digest, result.coverage_digest,
            result.first_cover, result.responders, result.evals,
            result.rounds)


def pinned(result) -> bool:
    return ((result.corpus_replay_digest, result.coverage_digest)
            == (PINNED_REPLAY_DIGEST, PINNED_COVERAGE_DIGEST))


def traced_search(search_config, trace_dir, workers):
    """A traced ``baseline``-sized search: its result and the bytes of
    its merged ``metrics.json``."""
    # Build the process caches untraced first: the build ticks
    # ``fuzz.cleanup_builds`` once per process, so whichever traced run
    # came first would differ when this test runs alone.
    search_evaluator(search_config)
    with telemetry.session(trace_dir=trace_dir, process="main"):
        result = CoverageSearch(search_config, max_evals=MAX_EVALS,
                                workers=workers).run()
    merge_run(trace_dir)
    return result, (trace_dir / "metrics.json").read_bytes()


def per_chunk_memo_scopes(monkeypatch):
    """The reference memo scopes: every chunk and every reduction starts
    from an empty memo, as before the search carried one across rounds."""
    monkeypatch.setattr(batch, "seed_memo",
                        lambda entries: batch.clear_memo())


def counted_chunk(search_config, tasks, memo=None):
    """One chunk's outcomes, learned memo entries and scalar runs."""
    with telemetry.session(trace_dir=None, process="main"):
        outcomes, learned = evaluate_search_chunk(search_config, tasks, (),
                                                  memo)
        counters = telemetry.metrics().snapshot()["counters"]
    return outcomes, learned, counters.get("batch.fallback_scalar", 0)


def same_memo_entries(a, b) -> bool:
    """Equal memo entries: the same keys, bit-equal remainders."""
    return a.keys() == b.keys() and all(
        a[key][0].tobytes() == b[key][0].tobytes() and a[key][1] == b[key][1]
        for key in a)


# -- coverage map ---------------------------------------------------------


class TestCoverageMap:
    def test_feature_id_is_stable_and_discriminating(self):
        fid = feature_id(3, "l1d", 1)
        assert fid == feature_id(3, "l1d", 1)
        assert 0 <= fid < 2 ** 64
        assert len({fid, feature_id(3, "l1d", -1), feature_id(3, "l2", 1),
                    feature_id(4, "l1d", 1)}) == 4

    def test_observe_counts_new_features(self):
        cmap = CoverageMap()
        assert cmap.observe([1, 2, 3]) == 3
        assert cmap.observe([2, 3, 4]) == 1
        assert len(cmap) == 4
        assert cmap.new_features([3, 4, 5, 5]) == (5,)
        assert cmap.count(2) == 2

    def test_digest_is_order_invariant(self):
        a, b = CoverageMap(), CoverageMap()
        a.observe([5, 9, 1])
        a.observe([7])
        b.observe([7, 1])
        b.observe([9, 5])
        assert a.digest() == b.digest()

    def test_rarity_prefers_sparse_features(self):
        cmap = CoverageMap()
        for _ in range(9):
            cmap.observe([1])
        cmap.observe([1, 2])
        assert cmap.rarity([2]) > cmap.rarity([1])
        assert cmap.rarity([]) == 0.0

    def test_payload_round_trip(self):
        cmap = CoverageMap()
        cmap.observe([3, 1])
        cmap.observe([1])
        restored = CoverageMap.from_payload(cmap.to_payload())
        assert restored.digest() == cmap.digest()
        assert restored.count(1) == 2


# -- coverage extraction --------------------------------------------------


def _reference_feature_id(event, unit, bucket):
    digest = hashlib.sha256(f"{event}|{unit}|{bucket}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _reference_bucket(delta, threshold):
    if threshold <= 0.0:
        return 1
    ratio = max(1.0, delta / threshold)
    return 1 + min(MAX_MAGNITUDE_BUCKET, int(math.log2(ratio)) // 2)


def reference_extract(extractor, signals, deltas):
    """The per-event loop ``CoverageExtractor.extract_many`` must match
    row by row."""
    unit_of = tuple(UNIT_OF_SIGNAL[Signal(s)]
                    for s in range(extractor.weights.shape[1]))
    signals = np.asarray(signals, dtype=np.float64)
    deltas = np.asarray(deltas, dtype=np.float64)
    features = set()
    for unit in {unit_of[s] for s in np.flatnonzero(signals)}:
        features.add(_reference_feature_id(FRONTIER_EVENT, unit, 0))
    expected = extractor.weights @ signals
    responding = np.flatnonzero(deltas > extractor.thresholds)
    responses = []
    for j in responding:
        event = int(extractor.event_indices[j])
        responses.append((event, float(deltas[j])))
        sign = 1 if expected[j] >= 0.0 else -1
        bucket = sign * _reference_bucket(float(deltas[j]),
                                          float(extractor.thresholds[j]))
        for s in np.flatnonzero(extractor.weights[j] * signals):
            features.add(_reference_feature_id(event, unit_of[s], bucket))
    near_mask = ((deltas <= extractor.thresholds)
                 & (np.abs(expected) > NEAR_MISS_FRACTION
                    * np.maximum(extractor.thresholds, 1e-12)))
    near = tuple(int(extractor.event_indices[j])
                 for j in np.flatnonzero(near_mask))
    return CoverageSample(features=tuple(sorted(features)),
                          responses=tuple(responses), near=near)


def reference_rows(extractor, signals, deltas):
    return [reference_extract(extractor, row_signals, row_deltas)
            for row_signals, row_deltas in zip(signals, deltas)]


# Small dyadic weights and signals make exact cancellations (a zero
# expected response from nonzero products) reachable.
_WEIGHTS = st.one_of(st.just(0.0), st.sampled_from([-2.0, -1.0, 1.0, 2.0]),
                     st.floats(-4.0, 4.0, allow_nan=False))
_THRESHOLDS = st.one_of(st.just(0.0), st.floats(-8.0, -1e-3),
                        st.floats(1e-3, 64.0))
#: Multiples of a threshold on or near a bucket edge: the log4 powers
#: and the edges ``math.log2`` puts just below 16 and 64.
_EDGE_SCALES = st.sampled_from(
    [4.0 ** k for k in range(6)] + list(BUCKET_EDGES))


@st.composite
def extraction_cases(draw):
    """(extractor, signals, deltas): 0-8 measurements under one
    extractor, with bucket-edge deltas."""
    count = draw(st.integers(1, 8))
    weights = np.array(draw(st.lists(
        st.lists(_WEIGHTS, min_size=NUM_SIGNALS, max_size=NUM_SIGNALS),
        min_size=count, max_size=count)))
    thresholds = draw(st.lists(_THRESHOLDS, min_size=count,
                               max_size=count))
    extractor = CoverageExtractor(SimpleNamespace(weights=weights),
                                  tuple(range(count)), thresholds)
    # Each row touches its own subset of one drawn signal vector.
    base = np.array(draw(st.lists(
        st.one_of(st.just(0), st.integers(1, 3), st.integers(-3, 400)),
        min_size=NUM_SIGNALS, max_size=NUM_SIGNALS)))
    rows = draw(st.integers(0, 8))
    signals, deltas = [], []
    for _ in range(rows):
        touched = draw(st.integers(0, 2 ** NUM_SIGNALS - 1))
        signals.append(base * ((touched >> np.arange(NUM_SIGNALS)) & 1))
        responders = draw(st.sampled_from(("mixed", "none", "all")))
        row = []
        for threshold in thresholds:
            # On a bucket edge, or up to two floats below it.
            edge = threshold * draw(_EDGE_SCALES)
            for _ in range(draw(st.integers(0, 2))):
                edge = float(np.nextafter(edge, -np.inf))
            if responders == "none":
                edge = min(edge, threshold)
            elif responders == "all":
                edge = max(edge, float(np.nextafter(threshold, np.inf)))
            row.append(edge)
        deltas.append(row)
    return (extractor, np.array(signals).reshape(rows, NUM_SIGNALS),
            np.array(deltas).reshape(rows, count))


def _cancelling_case():
    """One responding event whose expected response cancels to 0."""
    weights = np.zeros((1, NUM_SIGNALS))
    weights[0, Signal.CYCLES] = 1.0
    weights[0, Signal.LOADS] = -1.0
    signals = np.zeros((1, NUM_SIGNALS), dtype=int)
    signals[0, [Signal.CYCLES, Signal.LOADS]] = 2
    extractor = CoverageExtractor(SimpleNamespace(weights=weights), (0,),
                                  (1.0,))
    return extractor, signals, np.array([[4.0]])


@pytest.fixture(scope="module")
def measured_gadgets(search_config):
    """Real catalog weights and 48 real screening measurements: the
    extractor and the stacked ``(signals, deltas)`` rows."""
    evaluator = SearchEvaluator(search_config)
    kernel = evaluator.kernel
    events = np.asarray(search_config.event_indices)
    signals, deltas = [], []
    for index in range(48):
        gadget = kernel.grammar.sample(
            rng=campaign_mod.gadget_stream(search_config.entropy, index))
        kernel.core.reset_microarch_state()
        kernel.harness.warm_measurement_state()
        measured = kernel.harness.screen_measure(gadget, events)
        signals.append(measured.signals)
        deltas.append(measured.deltas)
    return evaluator.extractor, np.array(signals), np.array(deltas)


class TestCoverageExtractor:
    @given(case=extraction_cases())
    @example(case=_cancelling_case())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_event_loop(self, case):
        extractor, signals, deltas = case
        assert extractor.extract_many(signals, deltas) \
            == reference_rows(extractor, signals, deltas)

    def test_matches_on_measured_gadgets(self, measured_gadgets):
        extractor, signals, deltas = measured_gadgets
        samples = extractor.extract_many(signals, deltas)
        assert samples == reference_rows(extractor, signals, deltas)
        assert any(sample.responses for sample in samples)
        # The corpus serializes samples as JSON: plain Python values.
        sample = next(s for s in samples if s.responses)
        assert type(sample.features[0]) is int
        assert [type(v) for v in sample.responses[0]] == [int, float]

    def test_bucket_edges_are_where_math_log2_crosses(self):
        for k, edge in enumerate(BUCKET_EDGES, start=1):
            assert math.log2(edge) >= 2 * k \
                > math.log2(math.nextafter(edge, 0.0))

    def test_extraction_computes_no_sha256(self, search_config,
                                           measured_gadgets, monkeypatch):
        # Every id is tabulated when the extractor is built (before a
        # pool forks), never on a worker's first extraction.
        _, signals, deltas = measured_gadgets
        sha256, calls = hashlib.sha256, []

        def counting(*args):
            calls.append(args)
            return sha256(*args)

        monkeypatch.setattr(hashlib, "sha256", counting)
        extractor = CoverageExtractor(
            search_evaluator(search_config).kernel.core.catalog,
            search_config.event_indices, search_config.thresholds)
        built = len(calls)
        samples = extractor.extract_many(signals, deltas)
        assert built > 0 and len(calls) == built
        assert any(sample.features for sample in samples)

    def test_feature_id_is_memoized(self):
        assert feature_id(3, "l1d", -2) == _reference_feature_id(
            3, "l1d", -2)
        hits = feature_id.cache_info().hits
        feature_id(3, "l1d", -2)
        assert feature_id.cache_info().hits == hits + 1


# -- corpus ---------------------------------------------------------------


def make_entry(names, features=(1, 2), responses=((5, 2.0),), near=(9,)):
    names = tuple(names)
    return CorpusEntry(digest=gadget_digest((), names), reset=(),
                       trigger=names, features=tuple(features),
                       responses=tuple(responses), near=tuple(near))


class TestCorpus:
    def test_persist_and_load_round_trip(self, tmp_path):
        corpus = Corpus(tmp_path / "corpus")
        entry = make_entry(["nop_1"])
        assert corpus.add(entry)
        assert not corpus.add(entry)  # duplicate digest
        reloaded = Corpus(tmp_path / "corpus")
        assert reloaded.load() == 1
        assert reloaded.replay_digest() == corpus.replay_digest()
        assert reloaded.get(entry.digest) == entry

    def test_damaged_entries_are_misses_never_crashes(self, tmp_path):
        directory = tmp_path / "corpus"
        corpus = Corpus(directory)
        corpus.add(make_entry(["nop_1"]))
        good = make_entry(["pause_1"])
        corpus.add(good)
        # Torn JSON, a digest/content mismatch, and a misnamed file.
        (directory / f"{make_entry(['lfence_1']).digest}.json").write_text(
            '{"digest": "torn', encoding="utf-8")
        tampered = make_entry(["mfence_1"])
        payload = tampered.to_payload()
        payload["trigger"] = ["sfence_1"]
        (directory / f"{tampered.digest}.json").write_text(
            json.dumps(payload), encoding="utf-8")
        reloaded = Corpus(directory)
        assert reloaded.load() == 2
        assert reloaded.misses == 2
        assert sorted(reloaded.entries) == sorted(corpus.entries)

    def test_replay_digest_is_order_invariant(self):
        a, b = Corpus(), Corpus()
        first, second = make_entry(["nop_1"]), make_entry(["pause_1"])
        a.add(first)
        a.add(second)
        b.add(second)
        b.add(first)
        assert a.replay_digest() == b.replay_digest()
        assert a.replay_digest() != Corpus().replay_digest()

    def test_materialize_rebuilds_the_gadget(self, amd_catalog):
        legal = default_cleanup("amd-epyc-7252").legal
        by_name = build_name_index(legal)
        name = legal[0].name
        gadget = make_entry([name]).materialize(by_name)
        assert gadget.trigger[0] is by_name[name]


# -- scheduler ------------------------------------------------------------


class TestFrontierScheduler:
    def test_admission_energy_scales_with_new_coverage(self):
        sched = FrontierScheduler()
        small = sched.admit("a", features=(1,), near=(), new_features=1)
        big = sched.admit("b", features=(2, 3), near=(), new_features=40)
        assert big.energy > small.energy
        assert big.energy <= sched.max_energy

    def test_credit_rewards_and_decays(self):
        sched = FrontierScheduler()
        state = sched.admit("a", features=(1,), near=(), new_features=1)
        before = state.energy
        sched.credit("a", admitted_children=2)
        assert state.energy > before
        for _ in range(50):
            sched.credit("a", admitted_children=0)
        assert state.energy == sched.min_energy
        sched.credit("missing", admitted_children=1)  # no-op

    def test_near_miss_set_cover_bonus(self):
        sched = FrontierScheduler()
        sched.admit("a", features=(1,), near=(), new_features=1)
        sched.admit("b", features=(2,), near=(17,), new_features=1)
        cmap = CoverageMap()
        cmap.observe([1])
        cmap.observe([2])
        picked = sched.select(1, cmap, uncovered_events=(17,))
        assert picked[0].digest == "b"
        # Once event 17 is covered the bonus vanishes and ties break
        # on digest.
        picked = sched.select(2, cmap, uncovered_events=())
        assert [s.digest for s in picked] == ["a", "b"]

    def test_payload_round_trip(self):
        sched = FrontierScheduler()
        sched.admit("a", features=(1, 2), near=(3,), new_features=2)
        sched.credit("a", admitted_children=1)
        restored = FrontierScheduler()
        restored.restore(sched.to_payload())
        assert restored.seeds["a"] == sched.seeds["a"]

    def test_decay_must_be_a_fraction(self):
        with pytest.raises(ValueError):
            FrontierScheduler(decay=1.0)


# -- gadget signature compatibility (satellite) ---------------------------


class TestGadgetSignature:
    @pytest.fixture(scope="class")
    def specs(self):
        return default_cleanup("amd-epyc-7252").legal[:4]

    def test_signature_leads_with_sequence_lengths(self, specs):
        gadget = Gadget(reset=(specs[0], specs[1]), trigger=(specs[2],))
        assert len(gadget.signature) == 6
        assert gadget.signature[:2] == (2, 1)
        assert gadget.signature[2:] == gadget.legacy_signature
        assert len(gadget.legacy_signature) == 4

    def test_lengths_separate_otherwise_equal_gadgets(self, specs):
        short = Gadget(reset=(), trigger=(specs[0],))
        long = Gadget(reset=(), trigger=(specs[0], specs[0]))
        assert short.legacy_signature == long.legacy_signature
        assert short.signature != long.signature

    def test_normalize_signature_accepts_both_shapes(self, specs):
        gadget = Gadget(reset=(specs[0],), trigger=(specs[1],))
        sig = gadget.signature
        assert normalize_signature(sig) == sig
        upgraded = normalize_signature(gadget.legacy_signature)
        assert upgraded[:2] == (LEGACY_SIGNATURE_LENGTH,
                                LEGACY_SIGNATURE_LENGTH)
        assert upgraded[2:] == gadget.legacy_signature
        with pytest.raises(ValueError):
            normalize_signature((1, 2, 3))


# -- cleanup memoization telemetry (satellite) ----------------------------


def test_cleanup_builds_counter_ticks_once_per_build():
    cached = campaign_mod._CLEANUP_CACHE.pop("amd-epyc-7252", None)
    try:
        with telemetry.session(trace_dir=None, process="main"):
            default_cleanup("amd-epyc-7252")
            default_cleanup("amd-epyc-7252")
            counters = telemetry.metrics().snapshot()["counters"]
        assert counters["fuzz.cleanup_builds"] == 1.0
    finally:
        if cached is not None:
            campaign_mod._CLEANUP_CACHE["amd-epyc-7252"] = cached


# -- the search engine ----------------------------------------------------


class TestCoverageSearch:
    def test_covers_events_and_collects_responders(self, baseline, events):
        assert baseline.evals >= MAX_EVALS
        assert baseline.rounds > 1
        assert baseline.covered_count > 0
        assert set(baseline.covered_events) <= set(int(e) for e in events)
        for event, mark in baseline.first_cover.items():
            assert 1 <= mark <= baseline.evals
            assert baseline.responders[event]
        assert baseline.corpus_size > 0
        assert baseline.coverage_features > 0

    @pytest.mark.parametrize("workers", [2, 4])
    def test_bit_identical_across_worker_counts(self, search_config,
                                                baseline, workers):
        result = CoverageSearch(search_config, max_evals=MAX_EVALS,
                                workers=workers).run()
        assert result_key(result) == result_key(baseline)
        assert {i: g.name for i, g in result.gadgets.items()} \
            == {i: g.name for i, g in baseline.gadgets.items()}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_digests_pinned(self, search_config, baseline, workers):
        result = baseline if workers == 1 else CoverageSearch(
            search_config, max_evals=MAX_EVALS, workers=workers).run()
        assert pinned(result)

    def test_scalar_interpreter_hits_the_pinned_digests(self, search_config,
                                                        monkeypatch):
        # The carried memo lives on the batch path only: with the engine
        # off, every measurement runs the scalar interpreter.
        monkeypatch.setattr(batch, "FORCE_SCALAR", True)
        with telemetry.session(trace_dir=None, process="main"):
            result = CoverageSearch(search_config,
                                    max_evals=MAX_EVALS).run()
            counters = telemetry.metrics().snapshot()["counters"]
        assert pinned(result)
        assert counters["batch.fallback_scalar"] == counters["batch.evals"]

    def test_corpus_dir_mirrors_admissions(self, search_config, baseline,
                                           tmp_path):
        result = CoverageSearch(search_config, max_evals=MAX_EVALS,
                                corpus_dir=tmp_path / "corpus").run()
        assert result_key(result) == result_key(baseline)
        reloaded = Corpus(tmp_path / "corpus")
        assert reloaded.load() == result.corpus_size
        assert reloaded.replay_digest() == result.corpus_replay_digest

    def test_resume_matches_uninterrupted_run(self, search_config,
                                              baseline, tmp_path):
        # Stop early via target_events (not part of the checkpoint
        # fingerprint), then resume to the full budget.
        interrupted = CoverageSearch(search_config, max_evals=MAX_EVALS,
                                     checkpoint_dir=tmp_path,
                                     target_events=1).run()
        assert interrupted.evals < MAX_EVALS
        resumed = CoverageSearch(search_config, max_evals=MAX_EVALS,
                                 checkpoint_dir=tmp_path,
                                 resume=True).run()
        assert result_key(resumed) == result_key(baseline)

    def test_checkpoint_fingerprint_mismatch_is_loud(self, search_config,
                                                     tmp_path):
        CoverageSearch(search_config, max_evals=80,
                       checkpoint_dir=tmp_path, target_events=1).run()
        with pytest.raises(SearchError, match="different search"):
            CoverageSearch(search_config, max_evals=81,
                           checkpoint_dir=tmp_path, resume=True).run()

    def test_traced_metrics_are_worker_invariant(self, search_config,
                                                 tmp_path):
        # Every chunk of a round starts from the round-start memo
        # snapshot, so the merged batch counters cannot see whether the
        # round's chunks ran in-process or on workers (2 is the width
        # perfbench's ``search`` runs).
        merged = {workers: traced_search(search_config,
                                         tmp_path / f"trace-{workers}",
                                         workers)[1]
                  for workers in (1, 2, 4)}
        assert merged[1] == merged[2] == merged[4]
        assert json.loads(merged[1])["counters"]["search.evals"] > 0

    def test_memo_carried_across_rounds_runs_fewer_scalar(
            self, search_config, tmp_path, monkeypatch):
        fallback, keys = {}, []
        for workers in (1, 2):
            result, metrics = traced_search(
                search_config, tmp_path / f"trace-{workers}", workers)
            assert pinned(result)
            keys.append(result_key(result))
            fallback[workers] = json.loads(
                metrics)["counters"]["batch.fallback_scalar"]
        per_chunk_memo_scopes(monkeypatch)
        result, metrics = traced_search(search_config,
                                        tmp_path / "per-chunk", 1)
        assert pinned(result)
        keys.append(result_key(result))
        reference = json.loads(metrics)["counters"]["batch.fallback_scalar"]
        assert keys[0] == keys[1] == keys[2]
        assert fallback[1] == fallback[2] < reference

    def test_rejects_bad_budgets(self, search_config):
        with pytest.raises(SearchError):
            CoverageSearch(search_config, max_evals=0)
        with pytest.raises(SearchError):
            CoverageSearch(search_config, max_evals=10, workers=0)


class TestChunking:
    @pytest.mark.parametrize("count, sizes", [
        (1, [1]), (41, [41]), (64, [64]), (65, [33, 32]), (80, [40, 40]),
        (100, [50, 50]), (129, [43, 43, 43])])
    def test_split_sizes_at_chunk_size_64(self, count, sizes):
        bounds = chunk_bounds(count, 64)
        assert [stop - start for start, stop in bounds] == sizes

    @given(count=st.integers(0, 2000), size=st.integers(1, 300))
    @settings(max_examples=200, deadline=None)
    def test_split_is_contiguous_and_even(self, count, size):
        bounds = chunk_bounds(count, size)
        assert len(bounds) == -(-count // size)
        assert [b[0] for b in bounds[1:]] == [b[1] for b in bounds[:-1]]
        if bounds:
            assert bounds[0][0] == 0 and bounds[-1][1] == count
            sizes = [stop - start for start, stop in bounds]
            assert max(sizes) <= size
            assert max(sizes) - min(sizes) <= 1

    def test_evaluator_is_built_once_per_config(self, search_config):
        evaluator = search_evaluator(search_config)
        assert search_evaluator(search_config) is evaluator
        other = search_evaluator(dataclasses.replace(search_config,
                                                     entropy=1))
        assert other is not evaluator
        assert search_evaluator(search_config) is not other

    def test_chunk_outcomes_ignore_evaluator_history(self, search_config):
        first = [SearchTask(eval_index=i, kind="sample", round_index=0,
                            sample_index=i) for i in range(24)]
        second = [SearchTask(eval_index=i, kind="sample", round_index=0,
                             sample_index=i) for i in range(24, 40)]
        third = [SearchTask(eval_index=i, kind="sample", round_index=1,
                            sample_index=i) for i in range(40, 64)]
        cold, learned, scalar = counted_chunk(search_config, first)
        assert learned
        evaluate_search_chunk(search_config, second)
        again, relearned = evaluate_search_chunk(search_config, first)
        assert again == cold and same_memo_entries(relearned, learned)
        fresh, fresh_learned = SearchEvaluator(search_config).evaluate(first)
        assert fresh == cold and same_memo_entries(fresh_learned, learned)
        # Under a memo that already holds every shape it meets, a chunk
        # measures the same, learns nothing and runs fewer scalar
        # measurements.
        seeded, nothing, seeded_scalar = counted_chunk(search_config, first,
                                                       learned)
        assert (seeded, nothing) == (cold, {}) and seeded_scalar < scalar
        # A later round's chunk under that round's memo: the same
        # outcomes, learned entries and scalar runs before and after an
        # unrelated chunk.
        before = counted_chunk(search_config, third, learned)
        evaluate_search_chunk(search_config, second)
        after = counted_chunk(search_config, third, learned)
        assert after[0] == before[0] and after[2] == before[2]
        assert same_memo_entries(after[1], before[1])
        assert before[0] == evaluate_search_chunk(search_config, third)[0]

    def test_cold_mask_mutates_as_the_names_tuple_did(self, search_config,
                                                      monkeypatch):
        evaluator = search_evaluator(search_config)
        by_name = evaluator.by_name
        tried = set(sorted(by_name)[::3])
        # What the search shipped before: the sorted untried names, and
        # the decoding the evaluator applied to them (the reference).
        names = tuple(sorted(name for name in by_name if name not in tried))

        def decode_names(cold):
            return tuple(by_name[name] for name in cold if name in by_name)

        mask = evaluator.cold_mask(tried)
        assert mask.dtype == np.uint8 and len(mask) == -(-len(by_name) // 8)
        assert evaluator.cold_specs(mask) == decode_names(names)
        parents, _ = evaluate_search_chunk(search_config, [
            SearchTask(eval_index=i, kind="sample", round_index=0,
                       sample_index=i) for i in range(4)])
        tasks = [SearchTask(eval_index=8 * p + c, kind="mutate",
                            round_index=1, parent_digest=parent.digest,
                            parent_reset=parent.reset,
                            parent_trigger=parent.trigger, child=c)
                 for p, parent in enumerate(parents) for c in range(8)]
        outcomes, _ = evaluate_search_chunk(search_config, tasks, mask)
        without_pool, _ = evaluate_search_chunk(search_config, tasks)
        assert outcomes != without_pool
        monkeypatch.setattr(SearchEvaluator, "cold_specs",
                            lambda self, cold: decode_names(cold))
        reference, _ = evaluate_search_chunk(search_config, tasks, names)
        assert outcomes == reference


class TestSearchChaos:
    """``search.corpus.write`` faults: results never change."""

    def chaos_plan(self, mode):
        return FaultPlan(seed=CHAOS_SEED, faults=(
            FaultSpec(point="search.corpus.write", mode=mode,
                      probability=1.0),))

    def test_write_raise_is_absorbed(self, search_config, baseline,
                                     tmp_path):
        search = CoverageSearch(search_config, max_evals=MAX_EVALS,
                                corpus_dir=tmp_path / "corpus",
                                fault_plan=self.chaos_plan("raise"))
        result = search.run()
        assert result_key(result) == result_key(baseline)
        assert search.corpus.write_failures == result.corpus_size
        assert list((tmp_path / "corpus").glob("*.json")) == []

    def test_corrupt_entries_load_as_misses(self, search_config, baseline,
                                            tmp_path):
        result = CoverageSearch(search_config, max_evals=MAX_EVALS,
                                corpus_dir=tmp_path / "corpus",
                                fault_plan=self.chaos_plan("corrupt")).run()
        # In-memory search is untouched by on-disk damage...
        assert result_key(result) == result_key(baseline)
        # ...and every damaged on-disk entry is a miss, never a crash.
        reloaded = Corpus(tmp_path / "corpus")
        assert reloaded.load() == 0
        assert reloaded.misses == result.corpus_size
        # The damaged entries went through the durable writer too.
        assert [p for p in os.listdir(tmp_path / "corpus")
                if p.endswith(".tmp")] == []


class TestSupervisedChunks:
    """``search.chunk`` faults: a lost worker is recovered, a chunk
    that keeps failing fails the search closed."""

    @staticmethod
    def plan(mode, times):
        return FaultPlan(seed=CHAOS_SEED, faults=(
            FaultSpec(point="search.chunk", mode=mode, times=times,
                      match=(MID_ROUND_CHUNK,)),))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_killed_chunk_recovers_the_pinned_digests(self, search_config,
                                                      workers):
        with telemetry.session(trace_dir=None, process="main"):
            result = CoverageSearch(search_config, max_evals=MAX_EVALS,
                                    workers=workers,
                                    fault_plan=self.plan("kill", 1)).run()
            counters = telemetry.metrics().snapshot()["counters"]
        assert pinned(result)
        if workers == 1:
            # In the search's own process the kill is demoted to a raise.
            assert counters["retry.failures.error"] == 1
            assert "retry.pool_restarts" not in counters
        else:
            # The worker really died: the pool was rebuilt and the
            # round's chunks in flight retried.
            assert counters["retry.pool_restarts"] == 1
            assert counters["retry.failures.worker-lost"] >= 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_persistent_chunk_failure_fails_closed(self, search_config,
                                                   tmp_path, workers):
        search = CoverageSearch(search_config, max_evals=MAX_EVALS,
                                workers=workers, checkpoint_dir=tmp_path,
                                fault_plan=self.plan("raise", 0))
        with pytest.raises(SearchError,
                           match=f"evaluation {MID_ROUND_CHUNK} failed"):
            search.run()
        # Round 1 was neither reduced nor checkpointed: round 0's
        # checkpoint is still the latest, and resuming from it without
        # the fault lands on the uninterrupted trajectory.
        state = json.loads((tmp_path / SEARCH_STATE_FILE).read_text(
            encoding="utf-8"))
        assert (state["round"], state["eval_cursor"]) == (1, 80)
        resumed = CoverageSearch(search_config, max_evals=MAX_EVALS,
                                 workers=workers, checkpoint_dir=tmp_path,
                                 resume=True).run()
        assert pinned(resumed)


class TestBlindBaseline:
    def test_sample_tasks_match_campaign_screening(self, search_config,
                                                   make_fuzzer, events):
        """The blind baseline is the campaign's own screening: a sample
        task responds exactly where ``screen_shard`` screens a pair."""
        shard_config = make_fuzzer().shard_config(events)
        assert ShardConfig(**{
            field.name: getattr(search_config, field.name)
            for field in dataclasses.fields(ShardConfig)}) == shard_config
        tasks = [SearchTask(eval_index=i, kind="sample", round_index=0,
                            sample_index=i) for i in range(160)]
        responses: dict = {}
        outcomes, _ = evaluate_search_chunk(search_config, tasks)
        for outcome in outcomes:
            for event, delta in outcome.responses:
                responses.setdefault(event, []).append(
                    (outcome.eval_index, delta))
        screened = merge_screened(screen_shard(shard_config, shard)
                                  for shard in plan_shards(160, 40))
        assert responses
        assert responses == {event: pairs
                             for event, pairs in screened.items() if pairs}

    def test_evals_to_cover_semantics(self):
        first_cover = {3: 10, 7: 40, 9: 25}
        assert evals_to_cover(first_cover, 0) == 0
        assert evals_to_cover(first_cover, 1) == 10
        assert evals_to_cover(first_cover, 3) == 40
        assert evals_to_cover(first_cover, 4) is None


class TestCoverageCampaign:
    @staticmethod
    def run_coverage_campaign(make_fuzzer, events, workers, corpus_dir):
        campaign = FuzzingCampaign(make_fuzzer(), strategy="coverage",
                                   workers=workers, corpus_dir=corpus_dir)
        report = campaign.run(events)
        assert campaign.search_result is not None
        key = ({g.name: sorted(e) for g, e in report.covering_set.items()},
               dict(report.screened_per_event),
               dict(report.first_responder),
               campaign.search_result.corpus_replay_digest)
        return report, key

    def test_strategy_coverage_is_worker_invariant(self, make_fuzzer,
                                                   events, tmp_path):
        report1, key1 = self.run_coverage_campaign(
            make_fuzzer, events, workers=1, corpus_dir=tmp_path / "c1")
        report2, key2 = self.run_coverage_campaign(
            make_fuzzer, events, workers=2, corpus_dir=tmp_path / "c2")
        assert key1 == key2
        assert report1.evals_to_cover > 0
        assert report1.evals_to_cover == report2.evals_to_cover

    def test_unknown_strategy_rejected(self, make_fuzzer):
        with pytest.raises(CampaignError, match="strategy"):
            FuzzingCampaign(make_fuzzer(), strategy="genetic")

    def test_corpus_dir_requires_coverage(self, make_fuzzer, tmp_path):
        with pytest.raises(CampaignError, match="corpus_dir"):
            FuzzingCampaign(make_fuzzer(), corpus_dir=tmp_path)


# -- CLI ------------------------------------------------------------------


class TestSearchCli:
    def test_parser_defaults(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["search"])
        assert args.func.__name__ == "cmd_search"
        assert args.budget == 2000
        assert args.workers == 1
        args = build_parser().parse_args(
            ["fuzz", "--strategy", "coverage", "--corpus-dir", "c"])
        assert args.strategy == "coverage"
        assert args.corpus_dir == "c"

    def test_search_command_writes_digests(self, tmp_path):
        from repro.cli import main
        out = tmp_path / "digests.json"
        code = main(["search", "--budget", "120", "--events", "4",
                     "--seed", "11", "--digest-out", str(out), "-q"])
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["evals"] >= 120
        assert payload["covered_events"] > 0
        assert len(payload["corpus_replay_digest"]) == 64

    def test_fuzz_corpus_dir_needs_coverage_strategy(self):
        from repro.cli import main
        with pytest.raises(SystemExit, match="strategy coverage"):
            main(["fuzz", "--corpus-dir", "c", "-q"])
