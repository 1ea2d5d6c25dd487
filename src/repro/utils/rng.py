"""Deterministic random-number handling.

Every stochastic component in the simulator accepts either a seed or a
``numpy.random.Generator``. Components that own long-lived state spawn
independent child generators so that adding randomness in one module does
not perturb another module's stream.
"""

from __future__ import annotations

import hashlib
import operator
from functools import lru_cache
from typing import Iterable

import numpy as np
from numpy.random.bit_generator import ISeedSequence

RngLike = "int | np.random.Generator | None"


@lru_cache(maxsize=256)
def _hashed_key(text: str) -> int:
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def stream_key(label: "int | str") -> int:
    """A deterministic non-negative integer key for a stream label.

    Integers, numpy's included, pass through unchanged; strings (tenant
    ids, stage names) hash through SHA-256 so the key does not depend
    on Python's per-process string-hash seed.
    """
    if isinstance(label, int):
        return label
    if isinstance(label, np.integer):
        return int(label)
    return _hashed_key(str(label))


def _words(value: int, count: int) -> bytes:
    """``value`` as little-endian 32-bit words, at least ``count``."""
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    return value.to_bytes(4 * max(count, -(-value.bit_length() // 32)),
                          "little")


def _key_words(labels: tuple) -> bytes:
    """The labels' ``stream_key`` words, as a spawn key assembles them."""
    if not labels:
        raise ValueError("derive_stream needs at least one label")
    return b"".join(_words(stream_key(label), 1) for label in labels)


def _seed_sequence(entropy: int, labels: tuple) -> np.random.SeedSequence:
    """The ``SeedSequence`` behind ``derive_stream(entropy, *labels)``."""
    keys = _key_words(labels)
    words = _words(operator.index(entropy), 4) + keys
    return np.random.SeedSequence(np.frombuffer(words, "<u4"))


def derive_stream(entropy: int, *labels: "int | str"
                  ) -> np.random.Generator:
    """The RNG stream owned by ``labels`` under root ``entropy``.

    Derived with the labels as a ``SeedSequence`` spawn key:
    statistically independent across label tuples, and — unlike
    drawing per-owner seeds from one sequential stream — independent
    of how many other streams exist or in which order they are
    created. This is what lets a fuzzing campaign re-derive gadget
    *i*'s stream regardless of sharding, and the fleet provisioner
    reproduce tenant T's noise sequence with no other tenant present.
    It is seeded with the words ``SeedSequence(entropy, spawn_key=...)``
    assembles (the root's, zero-padded to the pool's 4, then each
    key's): the same pool and draws, without numpy's per-int parsing.

    This is the reference derivation. :func:`derive_streams` (many
    roots, the same labels) and :func:`derive_seeds` (one entropy, many
    integer labels) reach the same streams in one array pass.
    """
    return np.random.Generator(np.random.PCG64(_seed_sequence(entropy,
                                                             labels)))


# -- many streams in one pass ---------------------------------------------
#
# An exact port of numpy's SeedSequence (numpy/random/bit_generator.pyx)
# over uint32 arrays, one column per stream. Every hashmix call of the
# mixing and of generate_state advances one running hash whose values
# are the same for every stream, so a batch is a fixed number of
# elementwise operations whatever its size.

_MASK32 = 0xFFFFFFFF
# 0-d arrays: cheaper numpy operands than scalars.
_MIX_MULT_L = np.array(0xca01f9dd, np.uint32)
_MIX_MULT_R = np.array(0x4973f715, np.uint32)
_XSHIFT = np.array(16, np.uint32)

#: Below this many streams the scalar ``derive_stream`` loop is faster.
#: On a 2-vCPU Xeon (numpy 2.4) the array pass costs about 55 µs plus
#: 3 µs a stream, a scalar stream about 14 µs: they cross at 4–5.
BATCH_MIN_STREAMS = 5


def _readonly(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only: cached constants are shared."""
    array.flags.writeable = False
    return array


def _hash_steps(init: int, mult: int, start: int, count: int
                ) -> "tuple[np.ndarray, np.ndarray]":
    """The xor and multiply constants of steps ``start`` to
    ``start + count - 1`` of a running hash, each ``(count, 1)``."""
    value = init
    for _ in range(start):
        value = value * mult & _MASK32
    xors, mults = [], []
    for _ in range(count):
        xors.append(value)
        value = value * mult & _MASK32
        mults.append(value)
    return (_readonly(np.array(xors, np.uint32)[:, None]),
            _readonly(np.array(mults, np.uint32)[:, None]))


@lru_cache(maxsize=64)
def _mix_steps(start: int, count: int) -> "tuple[np.ndarray, np.ndarray]":
    return _hash_steps(0x43b0d7e5, 0x931e8875, start, count)


def _cross_steps(src: int) -> "tuple[np.ndarray, np.ndarray]":
    """Steps ``4 + 3·src`` onwards hash pool word ``src`` once for each
    other word, in order; its own row gets a placeholder step, because
    :func:`_pool` keeps that word as it was."""
    xors = np.zeros((4, 1), np.uint32)
    mults = np.zeros((4, 1), np.uint32)
    others = [dst for dst in range(4) if dst != src]
    xors[others], mults[others] = _mix_steps(4 + 3 * src, 3)
    return xors, mults


# Mixing steps 0-3 hash the four pool words, 4-15 mix each pool word
# into the other three, and from 16 each further word takes four.
_POOL_STEPS = _mix_steps(0, 4)
_CROSS_STEPS = tuple(_cross_steps(src) for src in range(4))
#: ``generate_state(4, np.uint64)`` hashes the pool twice round, as
#: 8 uint32 words in one row per stream.
_STATE_STEPS = tuple(steps.T for steps in
                     _hash_steps(0x8b51f9dd, 0x58f38ded, 0, 8))


def _word_steps(position: int) -> "tuple[np.ndarray, np.ndarray]":
    """The steps of entropy word ``position`` ≥ 4, one per pool word."""
    return _mix_steps(4 * position, 4)


def _hashmix(values: np.ndarray, xors: np.ndarray,
             mults: np.ndarray) -> np.ndarray:
    """``values`` hashed at consecutive running-hash steps (one per row
    of ``xors`` and ``mults``, broadcast against ``values``)."""
    hashed = values ^ xors
    hashed *= mults
    hashed ^= hashed >> _XSHIFT
    return hashed


def _mix(pool: np.ndarray, scaled: np.ndarray) -> np.ndarray:
    """numpy's ``mix(pool, y)`` with ``scaled = y * MIX_MULT_R``."""
    mixed = pool * _MIX_MULT_L - scaled
    mixed ^= mixed >> _XSHIFT
    return mixed


def _pool(head: np.ndarray) -> np.ndarray:
    """The ``(4, N)`` pools after mixing in each stream's first four
    entropy words, ``head`` ``(4, N)`` uint32."""
    pool = _hashmix(head, *_POOL_STEPS)
    for src, steps in enumerate(_CROSS_STEPS):
        # Mix word src into all four rows at once, then put its own
        # row back: numpy skips it.
        kept = pool[src].copy()
        hashed = _hashmix(kept, *steps)
        hashed *= _MIX_MULT_R
        pool = _mix(pool, hashed)
        pool[src] = kept
    return pool


@lru_cache(maxsize=64)
def _premixed(head: "tuple[int, ...]") -> np.ndarray:
    """The ``(4, 1)`` pool of four entropy words every stream shares."""
    return _readonly(_pool(np.array(head, np.uint32)[:, None]))


@lru_cache(maxsize=256)
def _folded(word: int, position: int) -> np.ndarray:
    """What ``mix`` subtracts when every stream's word ``position`` is
    ``word``: its four hashes times the mix multiplier, ``(4, 1)``."""
    hashed = _hashmix(np.uint32(word), *_word_steps(position))
    return _readonly(hashed * _MIX_MULT_R)


def _seed_state(words: list) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` for a batch
    of entropies, as ``(N, 4)`` uint64.

    ``words`` lists the entropy words in order, at least one. Each is an
    ``(N,)`` uint32 array, one word per stream, or an ``int`` that every
    stream shares. Shared words are folded once and cached: a shared
    4-word head is premixed, and a shared later word's hashes are
    constants.
    """
    head = list(words[:4]) + [0] * (4 - len(words[:4]))
    if all(isinstance(word, int) for word in head):
        pool = _premixed(tuple(head))
    else:
        size = next(len(word) for word in head if not isinstance(word, int))
        rows = np.empty((4, size), np.uint32)
        for row, word in zip(rows, head):
            row[...] = word
        pool = _pool(rows)
    for position, word in enumerate(words[4:], start=4):
        if isinstance(word, int):
            scaled = _folded(word, position)
        else:
            scaled = _hashmix(word, *_word_steps(position))
            scaled *= _MIX_MULT_R
        pool = _mix(pool, scaled)
    state = np.empty((pool.shape[1], 8), np.uint32)
    state[:, :4] = state[:, 4:] = pool.T
    state = _hashmix(state, *_STATE_STEPS)
    # Little-endian pairs, as numpy joins them on any host.
    return state.astype("<u4", copy=False).view("<u8").astype(
        np.uint64, copy=False)


class SeedWords(ISeedSequence):
    """A stream's precomputed ``PCG64`` seed: the four 64-bit words its
    ``SeedSequence`` would generate, handed to numpy's own seeding.

    Top-level so that a stream built on one pickles.
    """

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or (dtype is not np.uint64
                            and np.dtype(dtype) != np.uint64):
            raise ValueError("precomputed seed words serve only "
                             "generate_state(4, np.uint64) (PCG64)")
        # A fresh array of exactly 4 words: PCG64 reads 4 from its data.
        words = np.array(self.words, dtype=np.uint64)
        if words.shape != (4,):
            raise ValueError(f"expected 4 seed words, got {words.shape}")
        return words


def seeded_stream(words: np.ndarray) -> np.random.Generator:
    """The stream of one row of :func:`derive_seeds`."""
    return np.random.Generator(np.random.PCG64(SeedWords(words)))


def derive_streams(roots: "Iterable[int]", *labels: "int | str"
                   ) -> "list[np.random.Generator]":
    """``[derive_stream(root, *labels) for root in roots]``, seeded in
    one array pass.

    Every draw is the same as :func:`derive_stream`'s. The labels' key
    words are folded in as constants; batches smaller than
    :data:`BATCH_MIN_STREAMS`, and roots of 2**64 or more, take the
    scalar loop.
    """
    roots = [operator.index(root) for root in roots]
    keys = np.frombuffer(_key_words(labels), "<u4").tolist()
    if (len(roots) < BATCH_MIN_STREAMS or min(roots) < 0
            or max(roots) >= 2**64):
        return [derive_stream(root, *labels) for root in roots]
    words = np.array(roots, "<u8").view("<u4").reshape(-1, 2).T
    return [seeded_stream(seed)
            for seed in _seed_state([*words, 0, 0, *keys])]


def derive_seeds(entropy: int, indices: "Iterable[int]") -> np.ndarray:
    """The ``PCG64`` seed words of ``derive_stream(entropy, i)`` for
    each index, as an ``(N, 4)`` uint64 array; :func:`seeded_stream`
    builds a row's stream (32 bytes kept per stream until then).

    One array pass: the entropy's four words are premixed once, and
    only the index word's mixing and ``generate_state`` vary across the
    batch. Batches smaller than :data:`BATCH_MIN_STREAMS`, entropies of
    2**128 or more and indices of 2**32 or more take ``derive_stream``'s
    scalar ``SeedSequence``.
    """
    head = np.frombuffer(_words(operator.index(entropy), 4), "<u4").tolist()
    indices = [operator.index(i) for i in indices]
    if (len(indices) < BATCH_MIN_STREAMS or len(head) > 4
            or min(indices) < 0 or max(indices) >= 2**32):
        seeds = [_seed_sequence(entropy, (i,)).generate_state(4, np.uint64)
                 for i in indices]
        return np.array(seeds, dtype=np.uint64).reshape(-1, 4)
    return _seed_state([*head, np.array(indices, np.uint32)])


def ensure_rng(rng: "int | np.random.Generator | None") -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for ``rng``.

    Accepts an existing generator (returned unchanged), an integer seed,
    or ``None`` (fresh OS-entropy generator).
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def spawn_rng(rng: np.random.Generator, n: int = 1) -> list[np.random.Generator]:
    """Spawn ``n`` statistically independent child generators from ``rng``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    seeds = rng.integers(0, 2**63 - 1, size=n, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]
