"""Tests for repro.utils: RNG handling, clock, validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import SimClock, ensure_rng, require, spawn_rng
from repro.utils.rng import derive_stream, stream_key


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
