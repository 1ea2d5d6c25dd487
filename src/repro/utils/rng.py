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

import numpy as np

RngLike = "int | np.random.Generator | None"


@lru_cache(maxsize=256)
def _hashed_key(text: str) -> int:
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def stream_key(label: "int | str") -> int:
    """A deterministic non-negative integer key for a stream label.

    Integers pass through unchanged; strings (tenant ids, stage names)
    hash through SHA-256 so the key does not depend on Python's
    per-process string-hash seed.
    """
    if isinstance(label, int):
        return label
    return _hashed_key(str(label))


def _words(value: int, count: int) -> bytes:
    """``value`` as little-endian 32-bit words, at least ``count``."""
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    return value.to_bytes(4 * max(count, -(-value.bit_length() // 32)),
                          "little")


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
    """
    if not labels:
        raise ValueError("derive_stream needs at least one label")
    words = [_words(operator.index(entropy), 4)]
    words.extend(_words(stream_key(label), 1) for label in labels)
    seq = np.random.SeedSequence(np.frombuffer(b"".join(words), "<u4"))
    return np.random.Generator(np.random.PCG64(seq))


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
