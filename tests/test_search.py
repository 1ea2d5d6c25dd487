"""Coverage-guided gadget search: map, corpus, scheduler, engine.

The load-bearing claims under test: the coverage map and corpus are
order- and worker-count-invariant (bit-identical replay digests across
1/4 workers), a checkpointed search resumes into the exact trajectory
of an uninterrupted one, damaged corpus entries are misses (never
crashes), the ``search.corpus.write`` chaos point cannot change
results, and the blind baseline reproduces campaign screening bit for
bit.
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

from repro.core.fuzzer import CampaignError, FuzzingCampaign
from repro.core.fuzzer import campaign as campaign_mod
from repro.core.fuzzer.campaign import default_cleanup
from repro.core.fuzzer.grammar import (LEGACY_SIGNATURE_LENGTH, Gadget,
                                       normalize_signature)
from repro.resilience import runtime as resilience
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.cpu.signals import NUM_SIGNALS, Signal
from repro.search import (Corpus, CorpusEntry, CoverageExtractor,
                          CoverageMap, CoverageSample, CoverageSearch,
                          FrontierScheduler, SearchError, UNIT_OF_SIGNAL,
                          blind_search, evals_to_cover, feature_id,
                          gadget_digest)
from repro.search.corpus import build_name_index
from repro.search.coverage import (FRONTIER_EVENT, MAX_MAGNITUDE_BUCKET,
                                   NEAR_MISS_FRACTION)
from repro.search.engine import (SearchEvaluator, SearchTask, chunk_bounds,
                                 evaluate_search_chunk, search_evaluator)
from repro.telemetry import merge_run
from repro.telemetry import runtime as telemetry

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "7"))

MAX_EVALS = 200


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
    """The per-event loop ``CoverageExtractor.extract`` must match."""
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


# Small dyadic weights and signals make exact cancellations (a zero
# expected response from nonzero products) reachable.
_WEIGHTS = st.one_of(st.just(0.0), st.sampled_from([-2.0, -1.0, 1.0, 2.0]),
                     st.floats(-4.0, 4.0, allow_nan=False))
_THRESHOLDS = st.one_of(st.just(0.0), st.floats(-8.0, -1e-3),
                        st.floats(1e-3, 64.0))


@st.composite
def extraction_cases(draw):
    """(extractor, signals, deltas) with bucket-edge deltas."""
    count = draw(st.integers(1, 8))
    weights = np.array(draw(st.lists(
        st.lists(_WEIGHTS, min_size=NUM_SIGNALS, max_size=NUM_SIGNALS),
        min_size=count, max_size=count)))
    thresholds = draw(st.lists(_THRESHOLDS, min_size=count,
                               max_size=count))
    extractor = CoverageExtractor(SimpleNamespace(weights=weights),
                                  tuple(range(count)), thresholds)
    signals = np.array(draw(st.lists(
        st.one_of(st.just(0), st.integers(1, 3), st.integers(-3, 400)),
        min_size=NUM_SIGNALS, max_size=NUM_SIGNALS)))
    responders = draw(st.sampled_from(("mixed", "none", "all")))
    deltas = []
    for threshold in thresholds:
        # Exactly on a log4 bucket edge, or one float below it.
        edge = threshold * 4.0 ** draw(st.integers(0, 5))
        if draw(st.booleans()):
            edge = float(np.nextafter(edge, -np.inf))
        if responders == "none":
            edge = min(edge, threshold)
        elif responders == "all":
            edge = max(edge, float(np.nextafter(threshold, np.inf)))
        deltas.append(edge)
    return extractor, signals, np.array(deltas)


def _cancelling_case():
    """One responding event whose expected response cancels to 0."""
    weights = np.zeros((1, NUM_SIGNALS))
    weights[0, Signal.CYCLES] = 1.0
    weights[0, Signal.LOADS] = -1.0
    signals = np.zeros(NUM_SIGNALS, dtype=int)
    signals[[Signal.CYCLES, Signal.LOADS]] = 2
    extractor = CoverageExtractor(SimpleNamespace(weights=weights), (0,),
                                  (1.0,))
    return extractor, signals, np.array([4.0])


class TestCoverageExtractor:
    @given(case=extraction_cases())
    @example(case=_cancelling_case())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_event_loop(self, case):
        extractor, signals, deltas = case
        assert extractor.extract(signals, deltas) \
            == reference_extract(extractor, signals, deltas)

    def test_matches_on_measured_gadgets(self, search_config):
        # Real catalog weights and real screening measurements.
        evaluator = SearchEvaluator(search_config)
        events = np.asarray(search_config.event_indices)
        extractor = evaluator.extractor
        for index in range(48):
            gadget = evaluator.grammar.sample(
                rng=campaign_mod.gadget_stream(search_config.entropy,
                                               index))
            evaluator.core.reset_microarch_state()
            evaluator.harness.warm_measurement_state()
            measured = evaluator.harness.screen_measure(gadget, events)
            assert extractor.extract(measured.signals, measured.deltas) \
                == reference_extract(extractor, measured.signals,
                                     measured.deltas)

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
        # The parent's minimization measurements get one memo scope per
        # round, so the merged batch counters cannot see whether the
        # round's chunks ran in-process or on workers.
        merged = {}
        for workers in (1, 4):
            trace_dir = tmp_path / f"trace-{workers}"
            with telemetry.session(trace_dir=trace_dir, process="main"):
                CoverageSearch(search_config, max_evals=MAX_EVALS,
                               workers=workers).run()
            merge_run(trace_dir)
            merged[workers] = (trace_dir / "metrics.json").read_bytes()
        assert merged[1] == merged[4]
        assert json.loads(merged[1])["counters"]["search.evals"] > 0

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
        cold = evaluate_search_chunk(search_config, first)
        evaluate_search_chunk(search_config, second)
        assert evaluate_search_chunk(search_config, first) == cold
        assert SearchEvaluator(search_config).evaluate(first) == cold


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


class TestBlindBaseline:
    def test_blind_search_reproduces_campaign_screening(
            self, search_config, make_fuzzer, events):
        report = FuzzingCampaign(make_fuzzer()).run(events)
        blind = blind_search(search_config, max_evals=160)
        assert set(blind.first_cover) == set(report.first_responder)
        for event, gadget_index in report.first_responder.items():
            assert blind.first_cover[event] == gadget_index + 1
        assert blind.evals_to_cover(len(blind.first_cover)) \
            == report.evals_to_cover

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
