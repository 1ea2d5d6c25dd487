"""Result confirmation (paper Section VI-E).

Three mechanisms remove gadgets whose reported effect is an artifact:

- **Multiple executions** — external factors (interrupts) disturb single
  measurements; the same gadget runs several times and the median is
  used (paper: 10 repetitions).
- **Repeated triggers** — distinguishes the trigger sequence's real
  effect from side effects of the reset sequence by comparing a cold
  path (reset only, repeated R times) with a hot path (reset + trigger,
  repeated R times). The gadget is accepted when
  ``V2 - V1 == (1 - lambda1) * R * (v2 - v1)`` within the lambda1
  tolerance and ``V2 > lambda2 * V1`` (paper: lambda1 in [-0.2, 0.2],
  lambda2 = 10).
- **Gadget reordering** — back-to-back fuzzing leaves dirty state
  (caches, predictors) to subsequent gadgets; re-running the survivors
  in random order and cross-validating removes order-dependent results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fuzzer.generator import ExecutionHarness
from repro.core.fuzzer.grammar import Gadget
from repro.utils.rng import ensure_rng


@dataclass
class ConfirmationResult:
    """Verdict for one (gadget, event) candidate."""

    gadget: Gadget
    event_index: int
    confirmed: bool
    per_iteration_delta: float
    cold_median: float
    hot_median: float
    reason: str = ""


class GadgetConfirmer:
    """Applies the paper's three confirmation mechanisms.

    Parameters
    ----------
    harness:
        Execution harness for the measurements.
    executions:
        Median-of-n repetitions (paper: 10).
    trigger_repeats:
        R in the repeated-triggers protocol.
    lambda1 / lambda2:
        Accept thresholds (paper: [-0.2, 0.2] and 10).
    """

    def __init__(self, harness: ExecutionHarness, executions: int = 10,
                 trigger_repeats: int = 16,
                 lambda1: tuple[float, float] = (-0.2, 0.2),
                 lambda2: float = 10.0,
                 rng: "int | np.random.Generator | None" = None) -> None:
        if executions < 1:
            raise ValueError(f"executions must be >= 1, got {executions}")
        if trigger_repeats < 2:
            raise ValueError(
                f"trigger_repeats must be >= 2, got {trigger_repeats}")
        if lambda1[0] >= lambda1[1]:
            raise ValueError(f"lambda1 bounds must be ordered: {lambda1}")
        self.harness = harness
        self.executions = executions
        self.trigger_repeats = trigger_repeats
        self.lambda1 = lambda1
        self.lambda2 = lambda2
        self._rng = ensure_rng(rng)

    # -- mechanism 1: multiple executions --------------------------------

    def median_delta(self, gadget: Gadget, event_index: int,
                     cold: bool = False) -> tuple[float, float]:
        """(median per-iteration delta v, median cumulative delta V).

        One execution repeats the path R times with the counter read
        between iterations (Fig. 6); v is the median per-iteration
        change, V the cumulative change. The whole execution is
        repeated ``executions`` times (mechanism 1) and the medians of
        v and V across executions are returned.
        """
        event = np.array([event_index])
        body = (list(gadget.reset) if cold
                else list(gadget.reset) + list(gadget.trigger))
        per_iteration = self.harness.measure_executions(
            body, event, self.trigger_repeats, self.executions)[:, :, 0]
        v_samples = np.median(per_iteration, axis=1)
        big_v_samples = per_iteration.sum(axis=1)
        return float(np.median(v_samples)), float(np.median(big_v_samples))

    # -- mechanism 2: repeated triggers -----------------------------------

    def confirm(self, gadget: Gadget, event_index: int) -> ConfirmationResult:
        """Cold-vs-hot repeated-trigger validation of one candidate."""
        v1, big_v1 = self.median_delta(gadget, event_index, cold=True)
        v2, big_v2 = self.median_delta(gadget, event_index, cold=False)
        r = self.trigger_repeats
        per_iteration = v2 - v1
        expected = r * per_iteration
        observed = big_v2 - big_v1
        if per_iteration <= 0:
            return ConfirmationResult(gadget, event_index, False,
                                      per_iteration, big_v1, big_v2,
                                      reason="trigger adds no counts")
        # V2 - V1 = (1 - lambda1) R (v2 - v1), lambda1 in [-0.2, 0.2]:
        # the cumulative effect must scale linearly with R, i.e. the
        # reset sequence really returns the event to S0 every iteration.
        lo = (1.0 - self.lambda1[1]) * expected
        hi = (1.0 - self.lambda1[0]) * expected
        if not lo <= observed <= hi:
            return ConfirmationResult(gadget, event_index, False,
                                      per_iteration, big_v1, big_v2,
                                      reason="effect does not scale with R")
        # V2 > lambda2 * V1: the trigger dominates reset side effects.
        if big_v2 <= self.lambda2 * big_v1:
            return ConfirmationResult(gadget, event_index, False,
                                      per_iteration, big_v1, big_v2,
                                      reason="reset side effects dominate")
        return ConfirmationResult(gadget, event_index, True, per_iteration,
                                  big_v1, big_v2)

    # -- mechanism 3: gadget reordering ------------------------------------

    def reorder_validate(self, candidates: list[ConfirmationResult],
                         tolerance: float = 0.5) -> list[ConfirmationResult]:
        """Re-measure confirmed candidates in random order.

        Keeps candidates whose per-iteration delta stays within
        ``tolerance`` (relative) of the original measurement — the
        cross-validation that removes inherited-dirty-state artifacts.
        """
        confirmed = [c for c in candidates if c.confirmed]
        order = self._rng.permutation(len(confirmed))
        survivors: list[ConfirmationResult] = []
        for i in order:
            candidate = confirmed[int(i)]
            event = np.array([candidate.event_index])
            hot = list(candidate.gadget.reset) + list(candidate.gadget.trigger)
            hot_cumulative = self.harness.measure_executions(
                hot, event, self.trigger_repeats, 1)[0].sum(axis=0)
            cold_cumulative = self.harness.measure_executions(
                list(candidate.gadget.reset), event, self.trigger_repeats,
                1)[0].sum(axis=0)
            per_iteration = (hot_cumulative[0] - cold_cumulative[0]) \
                / self.trigger_repeats
            original = candidate.per_iteration_delta
            if original > 0 and abs(per_iteration - original) \
                    <= tolerance * original:
                survivors.append(candidate)
        survivors.sort(key=lambda c: -c.per_iteration_delta)
        return survivors
