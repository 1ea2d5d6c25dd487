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

    # -- mechanisms 1 and 2: multiple executions, repeated triggers -----

    def confirm(self, gadget: Gadget, event_index: int) -> ConfirmationResult:
        """Cold-vs-hot repeated-trigger validation of one candidate.

        The cold (reset) and hot (reset + trigger) paths run
        ``executions`` times each (mechanism 1) in one measurement, R
        iterations per execution (Fig. 6); v and V are the medians over
        executions of the per-iteration median and the cumulative sum.
        """
        reset = list(gadget.reset)
        measured = self.harness.measure_executions(
            [reset, reset + list(gadget.trigger)], np.array([event_index]),
            self.trigger_repeats, self.executions)[..., 0]
        samples = np.stack([np.median(measured, axis=2),
                            measured.sum(axis=2)])
        (v1, v2), (big_v1, big_v2) = np.median(samples, axis=2).tolist()
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
            reset = list(candidate.gadget.reset)
            hot_cumulative, cold_cumulative = self.harness.measure_executions(
                [reset + list(candidate.gadget.trigger), reset],
                np.array([candidate.event_index]), self.trigger_repeats,
                1)[:, 0].sum(axis=1)
            per_iteration = (hot_cumulative[0] - cold_cumulative[0]) \
                / self.trigger_repeats
            original = candidate.per_iteration_delta
            if original > 0 and abs(per_iteration - original) \
                    <= tolerance * original:
                survivors.append(candidate)
        survivors.sort(key=lambda c: -c.per_iteration_delta)
        return survivors
