"""Tests for repro.utils: RNG handling, clock, validation."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import SimClock, ensure_rng, require, spawn_rng
from repro.utils import rng as rng_module
from repro.utils.rng import (BATCH_MIN_STREAMS, SeedWords, _seed_state,
                             derive_seeds, derive_stream, derive_streams,
                             seeded_stream, stream_key)


class TestEnsureRng:
    def test_accepts_seed(self):
        gen = ensure_rng(7)
        assert isinstance(gen, np.random.Generator)

    def test_same_seed_same_stream(self):
        a = ensure_rng(7).random(5)
        b = ensure_rng(7).random(5)
        assert np.allclose(a, b)

    def test_passes_through_generator(self):
        gen = np.random.default_rng(1)
        assert ensure_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)


class TestSpawnRng:
    def test_children_are_independent_objects(self):
        children = spawn_rng(np.random.default_rng(0), 3)
        assert len(children) == 3
        assert len({id(c) for c in children}) == 3

    def test_children_deterministic(self):
        a = spawn_rng(np.random.default_rng(0), 2)
        b = spawn_rng(np.random.default_rng(0), 2)
        assert np.allclose(a[0].random(4), b[0].random(4))
        assert np.allclose(a[1].random(4), b[1].random(4))

    def test_children_streams_differ(self):
        a, b = spawn_rng(np.random.default_rng(0), 2)
        assert not np.allclose(a.random(8), b.random(8))

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            spawn_rng(np.random.default_rng(0), 0)


def numpy_derivation(entropy, *labels):
    """The derivation ``derive_stream`` must reproduce, spelled out."""
    return np.random.default_rng(np.random.SeedSequence(
        entropy, spawn_key=tuple(stream_key(label) for label in labels)))


#: Entropies at and around every 32-bit word boundary numpy's int
#: conversion handles, plus the pool-size padding edge (2**128 and up).
ENTROPIES = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**130]),
    st.integers(0, 2**70).map(lambda x: 2**64 + x),
    st.integers(0, 2**63 - 1))
LABELS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**80),
                   st.sampled_from(["", "interference", "noise", "mix"]),
                   st.text(max_size=12))


class TestDeriveStream:
    @settings(max_examples=300, deadline=None)
    @given(entropy=ENTROPIES,
           labels=st.lists(LABELS, min_size=1, max_size=4))
    def test_matches_numpy_derivation(self, entropy, labels):
        ours = derive_stream(entropy, *labels)
        reference = numpy_derivation(entropy, *labels)
        assert ours.random(5).tolist() == reference.random(5).tolist()
        assert ours.integers(2**63, size=3).tolist() \
            == reference.integers(2**63, size=3).tolist()
        assert ours.normal(size=4).tolist() \
            == reference.normal(size=4).tolist()
        assert ours.poisson(2.5, size=6).tolist() \
            == reference.poisson(2.5, size=6).tolist()

    def test_rejects_what_numpy_rejects(self):
        with pytest.raises(ValueError):
            derive_stream(-1, "noise")
        with pytest.raises(ValueError):
            derive_stream(1, -1)
        with pytest.raises(TypeError):
            derive_stream(1.5, "noise")
        with pytest.raises(ValueError):
            derive_stream(1)
        for bad in ((-1, "noise"), (1, -1)):
            with pytest.raises(ValueError):
                numpy_derivation(*bad)
        with pytest.raises(TypeError):
            numpy_derivation(1.5, "noise")


def first_draws(stream):
    """The draws ``test_matches_numpy_derivation`` compares."""
    return (stream.random(5).tolist(), stream.integers(2**63, size=3).tolist(),
            stream.normal(size=4).tolist(),
            stream.poisson(2.5, size=6).tolist())


#: Empty, one stream, either side of the scalar cutoff, a confirmation
#: call's 20 streams and a default screening shard's 256.
BATCH_SIZES = [0, 1, BATCH_MIN_STREAMS - 1, BATCH_MIN_STREAMS, 20, 256]
#: Roots at the word boundaries; the batch pads with random roots.
ROOTS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]
WORD = st.integers(0, 2**32 - 1)


def batch_roots(size):
    padding = np.random.default_rng(size).integers(2**63, size=size)
    return (ROOTS + padding.tolist())[:size]


class TestBatchedStreams:
    """``derive_streams`` and ``derive_seeds`` against ``derive_stream``,
    and their SeedSequence port against numpy's own."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_seed_state_matches_numpy_seed_sequence(self, data):
        count = data.draw(st.integers(1, 9), label="words per entropy")
        size = data.draw(st.integers(1, 12), label="streams")
        words = []
        for _ in range(count):
            if data.draw(st.booleans(), label="shared word"):
                words.append(data.draw(WORD))
            else:
                words.append(np.array(data.draw(
                    st.lists(WORD, min_size=size, max_size=size)), np.uint32))
        if all(isinstance(word, int) for word in words):
            size = 1
        state = _seed_state(words)
        assert state.shape == (size, 4) and state.dtype == np.uint64
        for column, row in enumerate(state):
            entropy = np.array([word if isinstance(word, int)
                                else word[column] for word in words],
                               np.uint32)
            expected = np.random.SeedSequence(entropy).generate_state(
                4, np.uint64)
            assert row.tolist() == expected.tolist()

    @pytest.mark.parametrize("labels", [("interference",), (7, "noise"),
                                        (2**40,)])
    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_derive_streams_matches_derive_stream(self, size, labels):
        roots = batch_roots(size)
        streams = derive_streams(roots, *labels)
        assert len(streams) == size
        for stream, root in zip(streams, roots):
            assert first_draws(stream) == first_draws(
                derive_stream(root, *labels))

    @pytest.mark.parametrize("entropy", [0, 5, 2**64 + 3, 2**128 - 1,
                                         2**130])
    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_derive_seeds_matches_derive_stream(self, size, entropy):
        indices = range(1000, 1000 + size)
        seeds = derive_seeds(entropy, indices)
        assert seeds.shape == (size, 4) and seeds.dtype == np.uint64
        for seed, index in zip(seeds, indices):
            assert first_draws(seeded_stream(seed)) == first_draws(
                derive_stream(entropy, index))

    def test_scalar_fallbacks_match(self):
        # Roots of 2**64 and up; index ranges crossing 2**32.
        roots = [2**64 - 1, 2**64, 2**70 + 5] + batch_roots(20)
        for stream, root in zip(derive_streams(roots, "interference"),
                                roots):
            assert first_draws(stream) == first_draws(
                derive_stream(root, "interference"))
        for start in (2**32 - 10, 2**32 - 20):
            indices = range(start, start + 20)
            for seed, index in zip(derive_seeds(9, indices), indices):
                assert first_draws(seeded_stream(seed)) == first_draws(
                    derive_stream(9, index))

    def test_array_pass_from_the_cutoff(self, monkeypatch):
        roots = batch_roots(BATCH_MIN_STREAMS)
        expected = [first_draws(derive_stream(root, "x")) for root in roots]
        scalar = pytest.fail
        monkeypatch.setattr(rng_module, "derive_stream",
                            lambda *args: scalar("derive_stream called"))
        monkeypatch.setattr(rng_module, "_seed_sequence",
                            lambda *args: scalar("SeedSequence built"))
        assert [first_draws(s) for s in derive_streams(roots, "x")] \
            == expected
        assert derive_seeds(3, range(BATCH_MIN_STREAMS)).shape \
            == (BATCH_MIN_STREAMS, 4)
        with pytest.raises(pytest.fail.Exception):
            derive_streams(roots[1:], "x")
        with pytest.raises(pytest.fail.Exception):
            derive_seeds(3, range(BATCH_MIN_STREAMS - 1))

    def test_numpy_integers_derive_the_integer_stream(self):
        for value in (0, 3, 2**31 + 5):
            expected = first_draws(derive_stream(5, value))
            for label in (np.int64(value), np.uint32(value)):
                assert stream_key(label) == value
                assert first_draws(derive_stream(5, label)) == expected
        # A numpy integer used to hash as its string.
        assert first_draws(derive_stream(5, np.int64(3))) \
            != first_draws(derive_stream(5, "3"))
        assert stream_key(True) is True
        roots = batch_roots(20)
        expected = [first_draws(s) for s in derive_streams(roots, 3)]
        for as_numpy in (np.int64, np.uint32):
            assert [first_draws(s) for s in derive_streams(
                np.array(roots, np.uint64), as_numpy(3))] == expected
        indices = range(100, 120)
        for dtype in (np.int64, np.uint32):
            assert derive_seeds(np.int64(5), np.arange(100, 120, dtype=dtype)
                                ).tolist() == derive_seeds(5, indices).tolist()

    @pytest.mark.parametrize("size", [1, 20])
    def test_rejects_what_derive_stream_rejects(self, size):
        with pytest.raises(ValueError):
            derive_streams([7] * (size - 1) + [-1], "noise")
        with pytest.raises(ValueError):
            derive_streams([7] * size, -1)
        with pytest.raises(ValueError):
            derive_streams([7] * size)
        with pytest.raises(TypeError):
            derive_streams([1.5] * size, "noise")
        with pytest.raises(ValueError):
            derive_seeds(-1, range(size))
        with pytest.raises(ValueError):
            derive_seeds(1, list(range(size - 1)) + [-1])
        with pytest.raises(TypeError):
            derive_seeds(1.5, range(size))
        with pytest.raises(TypeError):
            derive_seeds(1, [1.5] * size)

    def test_batched_stream_pickles_and_copies(self):
        stream = derive_streams(batch_roots(20), "interference")[3]
        stream.random(7)
        pickled = pickle.loads(pickle.dumps(stream))
        copied = copy.deepcopy(stream)
        reference = derive_stream(batch_roots(20)[3], "interference")
        reference.random(7)
        expected = first_draws(reference)
        for clone in (stream, pickled, copied):
            assert first_draws(clone) == expected

    def test_seed_words_serve_only_pcg64(self):
        seed = SeedWords(derive_seeds(5, range(20))[0])
        for request in ((4,), (4, np.uint32), (2, np.uint64), (8, np.uint64)):
            with pytest.raises(ValueError):
                seed.generate_state(*request)
        for other in (np.random.MT19937, np.random.SFC64, np.random.Philox):
            with pytest.raises(ValueError):
                other(seed)
        with pytest.raises(ValueError):
            np.random.PCG64(SeedWords(np.arange(3, dtype=np.uint64)))


class TestSimClock:
    def test_advance_accumulates(self):
        clock = SimClock(frequency_hz=1e9)
        clock.advance(500)
        clock.advance(500)
        assert clock.cycles == 1000
        assert clock.seconds == pytest.approx(1e-6)

    def test_reset(self):
        clock = SimClock()
        clock.advance(10)
        clock.reset()
        assert clock.cycles == 0

    def test_rejects_negative_advance(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-1)

    def test_rejects_bad_frequency(self):
        with pytest.raises(ValueError):
            SimClock(frequency_hz=0)


class TestRequire:
    def test_passes_when_true(self):
        require(True, "never raised")

    def test_raises_with_message(self):
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")
