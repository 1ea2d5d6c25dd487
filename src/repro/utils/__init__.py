"""Shared utilities: RNG handling, validation helpers, simulated clock,
configuration digests."""

from repro.utils.rng import ensure_rng, spawn_rng
from repro.utils.clock import SimClock
from repro.utils.digest import config_digest
from repro.utils.validation import require

__all__ = ["ensure_rng", "spawn_rng", "SimClock", "config_digest", "require"]
