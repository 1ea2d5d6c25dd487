"""The noise calculator with its precomputed buffer (paper Fig. 7).

To support high injection rates the daemon keeps a ring buffer of
precomputed Laplace draws (generated by direct transform of uniforms —
the paper found library APIs too slow) and refills it in the
background.

The calculator fails *closed*: if the refill path keeps failing (the
``daemon.noise_refill`` fault point models a wedged background refill
thread), a bounded retry loop gives up with :class:`NoiseExhausted`
rather than ever serving an un-noised or partially-noised window. Each
failed attempt is a *stall* — counted on the calculator, in the
``daemon.noise_stalls`` metric, and in the ε-ledger (a stalled release
spends no budget and leaks no value, which is the safe direction).
"""

from __future__ import annotations

import numpy as np

from repro.core.obfuscator.dp import laplace_sample
from repro.resilience import runtime as resilience
from repro.resilience.faults import InjectedFault
from repro.telemetry import runtime as telemetry
from repro.utils.rng import ensure_rng


class NoiseExhausted(RuntimeError):
    """The precomputed noise buffer could not be refilled.

    Raised instead of emitting an un-noised HPC value: callers must
    withhold the whole window (fail closed) and may retry the release
    after the daemon recovers.
    """


class NoiseCalculator:
    """Buffered Laplace noise source.

    Parameters
    ----------
    scale:
        Laplace scale b of the buffered distribution.
    buffer_size:
        Draws precomputed per refill.
    refill_retries:
        Failed refill attempts tolerated (with a stall each) before a
        draw gives up with :class:`NoiseExhausted`.
    """

    def __init__(self, scale: float, buffer_size: int = 4096,
                 rng: "int | np.random.Generator | None" = None,
                 refill_retries: int = 4) -> None:
        if scale < 0:
            raise ValueError(f"scale must be non-negative, got {scale}")
        if buffer_size < 1:
            raise ValueError(f"buffer_size must be >= 1, got {buffer_size}")
        if refill_retries < 0:
            raise ValueError(
                f"refill_retries must be >= 0, got {refill_retries}")
        self.scale = float(scale)
        self.buffer_size = buffer_size
        self.refill_retries = refill_retries
        self._rng = ensure_rng(rng)
        self._buffer = np.empty(0)
        self._cursor = 0
        self.refills = 0
        self.stalls = 0

    def _refill(self) -> None:
        """Refill the buffer, retrying injected failures a bounded
        number of times before failing closed."""
        last_fault: "InjectedFault | None" = None
        for attempt in range(self.refill_retries + 1):
            try:
                resilience.check("daemon.noise_refill", key=self.refills,
                                 attempt=attempt)
            except InjectedFault as exc:
                last_fault = exc
                self.stalls += 1
                telemetry.metrics().counter("daemon.noise_stalls").inc()
                continue
            self._buffer = laplace_sample(self.scale, self._rng,
                                          size=self.buffer_size)
            self._cursor = 0
            self.refills += 1
            return
        raise NoiseExhausted(
            f"noise buffer refill failed {self.refill_retries + 1} times; "
            f"withholding the release (fail closed)") from last_fault

    def next(self) -> float:
        """One precomputed Laplace draw."""
        if self._cursor >= len(self._buffer):
            self._refill()
        value = float(self._buffer[self._cursor])
        self._cursor += 1
        return value

    def take(self, count: int) -> np.ndarray:
        """``count`` precomputed draws, or :class:`NoiseExhausted`.

        All-or-nothing: on exhaustion the whole window is withheld
        (never a partially-noised array) and the ε-ledger records the
        ``count`` stalled slices.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        out = np.empty(count)
        try:
            for i in range(count):
                out[i] = self.next()
        except NoiseExhausted:
            telemetry.ledger().record_stall(count)
            raise
        return out

    def rescale(self, scale: float) -> None:
        """Change the buffered scale (drops the current buffer)."""
        if scale < 0:
            raise ValueError(f"scale must be non-negative, got {scale}")
        self.scale = float(scale)
        self._buffer = np.empty(0)
        self._cursor = 0
