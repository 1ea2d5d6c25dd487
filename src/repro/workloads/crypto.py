"""Cryptographic signing workload (paper §X future work).

The paper's future work asks whether Aegis can stop *fine-grained*
attacks such as cryptographic key extraction. This workload models the
classic victim: square-and-multiply RSA exponentiation whose per-bit
control flow is key-dependent — every key bit costs one squaring, and
a set bit adds a multiplication. The resulting HPC trace is a binary
waveform of the private exponent, the finest-grained secret in this
library (one secret bit per ~2 sampling slices instead of one secret
per window).
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import InstructionMix, Phase, PhaseProgram, Workload
from repro.utils.rng import ensure_rng

#: Modular squaring: multiplication-heavy bignum arithmetic.
_SQUARE = InstructionMix(
    ips=2.0e9, load_ratio=0.30, store_ratio=0.12, mul_ratio=0.18,
    bit_ratio=0.34, branch_ratio=0.08, l1d_miss_ratio=0.01)

#: Modular multiplication: same engine, slightly different footprint
#: (an extra operand stream raises the load share).
_MULTIPLY = InstructionMix(
    ips=2.0e9, load_ratio=0.38, store_ratio=0.14, mul_ratio=0.20,
    bit_ratio=0.30, branch_ratio=0.08, l1d_miss_ratio=0.015)


def random_key(num_bits: int,
               rng: "int | np.random.Generator | None" = None) -> tuple:
    """Draw a random private exponent as a tuple of bits (MSB first)."""
    gen = ensure_rng(rng)
    bits = gen.integers(0, 2, size=num_bits)
    bits[0] = 1  # normalized exponents have a leading 1
    return tuple(int(b) for b in bits)


class RsaSignWorkload(Workload):
    """Square-and-multiply exponentiation with a key-dependent schedule.

    Parameters
    ----------
    num_bits:
        Private-exponent length (default 64; real keys are 2048+, kept
        short so one signature fits the sampling window at the default
        per-operation duration).
    num_keys:
        How many distinct keys form the secret set.
    op_seconds:
        Duration of one modular squaring/multiplication.
    """

    def __init__(self, num_bits: int = 64, num_keys: int = 16,
                 op_seconds: float = 0.018, key_seed: int = 2024) -> None:
        if num_bits < 2:
            raise ValueError(f"num_bits must be >= 2, got {num_bits}")
        if num_keys < 2:
            raise ValueError(f"num_keys must be >= 2, got {num_keys}")
        if op_seconds <= 0:
            raise ValueError(f"op_seconds must be positive, got {op_seconds}")
        self.num_bits = num_bits
        self.op_seconds = op_seconds
        gen = np.random.default_rng(key_seed)
        keys = []
        while len(keys) < num_keys:
            key = random_key(num_bits, gen)
            if key not in keys:
                keys.append(key)
        self._keys = keys

    @property
    def secrets(self) -> list:
        return list(self._keys)

    @property
    def signature_seconds(self) -> float:
        """Worst-case single-signature duration (all bits set)."""
        return self.num_bits * 2 * self.op_seconds

    @staticmethod
    def _validate_key(secret, num_bits: int) -> None:
        if (not isinstance(secret, tuple) or len(secret) != num_bits
                or any(bit not in (0, 1) for bit in secret)):
            raise ValueError(
                f"key must be a tuple of {num_bits} bits, got {secret!r}")

    def program_for(self, secret, rng: np.random.Generator) -> PhaseProgram:
        # Any well-formed key schedules correctly; the generated secret
        # set only defines the experiment's sampling universe.
        self._validate_key(secret, self.num_bits)
        phases = []
        for index, bit in enumerate(secret):
            phases.append(Phase(f"square_{index}", _SQUARE,
                                self.op_seconds, duration_jitter=0.02,
                                intensity_jitter=0.01))
            if bit:
                phases.append(Phase(f"multiply_{index}", _MULTIPLY,
                                    self.op_seconds, duration_jitter=0.02,
                                    intensity_jitter=0.01))
        return PhaseProgram(phases=phases)
