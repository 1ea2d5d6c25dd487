"""Cross-cutting property tests (hypothesis) for core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.obfuscator.dp import DstarMechanism, dstar_parent
from repro.core.obfuscator.injector import (
    NoiseInjector,
    default_noise_segment,
)
from repro.cpu.signals import NUM_SIGNALS
from repro.ml.ctc import (
    bigram_counts,
    collapse_repeats,
    edit_distance,
    lm_beam_decode,
    sequence_accuracy,
)

label_lists = st.lists(st.integers(0, 5), min_size=0, max_size=30)


class TestEditDistanceProperties:
    @given(a=label_lists, b=label_lists)
    @settings(max_examples=80, deadline=None)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @given(a=label_lists)
    @settings(max_examples=40, deadline=None)
    def test_identity(self, a):
        assert edit_distance(a, a) == 0

    @given(a=label_lists, b=label_lists, c=label_lists)
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) \
            <= edit_distance(a, b) + edit_distance(b, c)

    @given(a=label_lists, b=label_lists)
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_longer_length(self, a, b):
        assert edit_distance(a, b) <= max(len(a), len(b))

    @given(a=label_lists, b=label_lists)
    @settings(max_examples=40, deadline=None)
    def test_sequence_accuracy_in_unit_interval(self, a, b):
        assert 0.0 <= sequence_accuracy(a, b) <= 1.0


class TestCollapseProperties:
    @given(frames=st.lists(st.integers(0, 4), min_size=0, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_no_blanks_and_subsequence(self, frames):
        out = collapse_repeats(frames, blank=0)
        assert 0 not in out
        # Output is a subsequence of the input (no inventions). Note
        # CTC collapse is NOT free of adjacent duplicates: a blank
        # between two equal labels keeps both ([1, 0, 1] -> [1, 1]).
        it = iter(frames)
        assert all(any(x == y for y in it) for x in out)

    @given(frames=st.lists(st.integers(1, 4), min_size=0, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_idempotent_without_blanks(self, frames):
        # Without blanks in the input, collapse IS idempotent.
        once = collapse_repeats(frames, blank=0)
        assert collapse_repeats(once, blank=0) == once


class TestLmBeamProperties:
    @given(t_len=st.integers(1, 20), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_beam_output_has_no_blanks(self, t_len, seed):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(4), size=t_len)
        lm = bigram_counts([[1, 2, 3]], num_classes=4)
        out = lm_beam_decode(probs, lm, beam_width=4)
        assert 0 not in out
        assert len(out) <= t_len

    def test_lm_recovers_undersegmented_layer(self):
        # conv(1) frames with one weak bn(2) frame in the middle: best
        # path misses the bn; the bigram prior conv->bn->conv plus the
        # insertion bonus recovers it.
        probs = np.array([
            [0.05, 0.9, 0.05],
            [0.05, 0.9, 0.05],
            [0.05, 0.55, 0.4],
            [0.05, 0.9, 0.05],
            [0.05, 0.9, 0.05],
        ])
        best_path = collapse_repeats(probs.argmax(axis=1))
        assert best_path == [1]
        lm = bigram_counts([[1, 2, 1], [1, 2, 1], [1, 2, 1]],
                           num_classes=3)
        decoded = lm_beam_decode(probs, lm, beam_width=8, lm_weight=2.0,
                                 insertion_bonus=2.0)
        assert decoded == [1, 2, 1]


class TestInjectorProperties:
    @given(noise=st.lists(st.floats(-1e6, 1e6, allow_nan=False),
                          min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_injection_monotone_and_consistent(self, noise, amd_catalog):
        reference = amd_catalog.weights[amd_catalog.index_of("RETIRED_UOPS")]
        injector = NoiseInjector(default_noise_segment(), reference,
                                 clip_bound=1e5)
        matrix = np.zeros((len(noise), NUM_SIGNALS))
        obfuscated, report = injector.inject(matrix,
                                             np.array(noise, dtype=float))
        # Gadgets only add counts.
        assert np.all(obfuscated >= matrix - 1e-9)
        assert np.all(report.repetitions >= 0)
        # Reference accounting is exactly reps * counts-per-rep.
        assert np.allclose(report.injected_reference_counts,
                           report.repetitions
                           * injector.reference_counts_per_rep)
        # Clip bound respected up to one repetition of rounding.
        assert np.all(report.injected_reference_counts
                      <= 1e5 + injector.reference_counts_per_rep)


class TestDstarProperties:
    @given(t_len=st.integers(1, 200))
    @settings(max_examples=40, deadline=None)
    def test_parent_chain_depth_logarithmic(self, t_len):
        # Following G(t) to the root takes O(log t) steps — the tree
        # mechanism's noise-composition bound.
        steps = 0
        t = t_len
        while t > 0:
            t = dstar_parent(t)
            steps += 1
        assert steps <= 2 * (int(np.log2(t_len)) + 2)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_large_epsilon_noise_vanishes(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(100, 5, 64)
        noise = DstarMechanism(epsilon=1e6).noise_sequence(x, rng=seed)
        assert np.abs(noise).max() < 0.1


class TestWorkloadDeterminism:
    def test_same_rng_same_trace(self):
        from repro.workloads import WebsiteWorkload
        workload = WebsiteWorkload()
        a = workload.generate_signals("google.com", np.random.default_rng(5),
                                      duration_s=0.5, slice_s=0.01)
        b = workload.generate_signals("google.com", np.random.default_rng(5),
                                      duration_s=0.5, slice_s=0.01)
        assert all(np.allclose(x, y)
                   for x, y in zip(a, b))

    def test_different_rng_different_trace(self):
        from repro.workloads import WebsiteWorkload
        workload = WebsiteWorkload()
        a = workload.generate_signals("google.com", np.random.default_rng(5),
                                      duration_s=0.5, slice_s=0.01)
        b = workload.generate_signals("google.com", np.random.default_rng(6),
                                      duration_s=0.5, slice_s=0.01)
        assert not all(np.allclose(x, y)
                       for x, y in zip(a, b))
