"""The shard supervisor: retries, timeouts, bisection, quarantine.

Campaign shards and coverage-search chunks fan out through it, so
worker failures are a *degraded state*, not an abort:

- every shard failure (raised exception, lost worker process, blown
  per-shard timeout) is retried up to ``max_retries`` times with
  exponential backoff and seeded jitter — deterministic, so a chaos
  run's retry schedule is reproducible;
- a shard that exhausts its retries is *bisected*: both halves re-enter
  the queue with a fresh retry budget, converging on the offending
  gadget, which is finally **quarantined** — recorded, reported, and
  replaced by the caller's empty result (or failing closed, if that
  raises) — instead of poisoning the run;
- a ``kill``-mode fault (or any real worker death) breaks the
  ``ProcessPoolExecutor``; the supervisor rebuilds the pool and
  re-queues everything that was in flight, up to ``max_pool_restarts``;
- the pool lives until :meth:`ShardSupervisor.close`, across runs;
- ``KeyboardInterrupt``/``SystemExit`` are never treated as shard
  failures: the pool is shut down *without waiting* and the exception
  re-raised immediately, so Ctrl-C still checkpoints promptly.

Every attempt runs through :func:`run_task`. Tasks are pure in their
arguments, so retries and bisection cannot change results — a
supervised chaos run merges to the same result as a fault-free run,
minus only quarantined gadgets.
"""

from __future__ import annotations

import logging
import math
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.resilience import runtime as resilience
from repro.resilience.faults import FaultPlan, _hash01
from repro.telemetry import runtime as telemetry

logger = logging.getLogger(__name__)


class SupervisorError(RuntimeError):
    """The supervisor itself gave up (e.g. the pool kept dying)."""


@dataclass(frozen=True)
class SupervisorPolicy:
    """Retry/timeout policy for supervised shard screening.

    Parameters
    ----------
    shard_timeout:
        Wall-clock seconds one shard attempt may run on a pool worker
        before the supervisor abandons it (``None`` disables; only
        enforceable in pool mode — an in-process shard cannot be
        interrupted).
    max_retries:
        Failed attempts re-queued per shard before bisection kicks in.
    backoff_base / backoff_cap:
        Exponential backoff: retry *n* waits
        ``min(cap, base * 2**(n-1))`` seconds before resubmission.
    backoff_jitter:
        Fractional seeded jitter added on top (0.25 = up to +25%),
        deterministic per (seed, shard, attempt).
    seed:
        Jitter seed; campaigns reuse the fault plan's seed so a chaos
        run's whole schedule derives from one number.
    max_pool_restarts:
        Worker-pool rebuilds tolerated before the run is declared
        unsupervisable.
    """

    shard_timeout: "float | None" = None
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    backoff_jitter: float = 0.25
    seed: int = 0
    max_pool_restarts: int = 32

    def __post_init__(self) -> None:
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError(f"shard_timeout must be positive, "
                             f"got {self.shard_timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, "
                             f"got {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff_base/backoff_cap must be >= 0")
        if self.backoff_jitter < 0:
            raise ValueError(f"backoff_jitter must be >= 0, "
                             f"got {self.backoff_jitter}")
        if self.max_pool_restarts < 0:
            raise ValueError(f"max_pool_restarts must be >= 0, "
                             f"got {self.max_pool_restarts}")

    def backoff_seconds(self, shard_start: int, attempt: int) -> float:
        """Deterministic backoff before retry ``attempt`` of a shard."""
        base = min(self.backoff_cap,
                   self.backoff_base * (2.0 ** max(0, attempt - 1)))
        jitter = _hash01(self.seed, "backoff",
                         shard_start * 1_000_003 + attempt)
        return base * (1.0 + self.backoff_jitter * jitter)


@dataclass(frozen=True)
class ShardFailure:
    """One failed shard attempt, as observed by the supervisor."""

    shard_start: int
    shard_count: int
    attempt: int
    kind: str  # "error" | "timeout" | "worker-lost"
    detail: str


@dataclass(frozen=True)
class QuarantineRecord:
    """A single gadget whose screening could not be completed."""

    gadget_index: int
    attempts: int
    detail: str


@dataclass
class _Pending:
    """A shard waiting to (re)run."""

    shard: Any
    attempt: int
    not_before: float = 0.0


@dataclass
class SupervisorReport:
    """Everything the supervisor observed while screening."""

    failures: list[ShardFailure] = field(default_factory=list)
    quarantined: list[QuarantineRecord] = field(default_factory=list)
    retries: int = 0
    bisections: int = 0
    pool_restarts: int = 0

    @property
    def timeouts(self) -> int:
        return sum(1 for f in self.failures if f.kind == "timeout")


def run_task(fn: Callable, args: tuple, point: str, key: int, label: str,
             attempt: int, sacrificial: bool,
             fault_plan: "FaultPlan | None" = None,
             trace_dir: "str | None" = None,
             span: "tuple[int, int] | None" = None) -> Any:
    """One supervised task attempt, on a pool worker or in-process.

    1. Arms ``fault_plan``: always on a pool worker (``sacrificial``; a
       forked worker inherits the parent's non-sacrificial injector,
       which would demote ``kill`` to ``raise``), in-process only when
       nothing is armed yet.
    2. With a ``trace_dir``, opens the task's telemetry session
       ``label`` (``-rN`` on retry N): the same files in any process.
    3. Hits ``point`` at ``key`` with the supervisor's ``attempt``.
    4. Returns ``fn(*args)``.
    """
    if attempt:
        label = f"{label}-r{attempt}"
    faults = (resilience.session(fault_plan, sacrificial=sacrificial)
              if fault_plan is not None
              and (sacrificial or not resilience.armed()) else nullcontext())
    traced = (telemetry.session(trace_dir=trace_dir, process=label)
              if trace_dir is not None else nullcontext())
    with faults, traced:
        # Inside the session: an injected fault's telemetry is flushed
        # by the session teardown even when it raises.
        resilience.check(point, key=key, attempt=attempt, span=span)
        return fn(*args)


class ShardSupervisor:
    """Supervised execution of shard-shaped tasks.

    Parameters
    ----------
    fn:
        The picklable top-level task function; the campaign and the
        coverage search both pass :func:`run_task`.
    args:
        ``args(shard, attempt, sacrificial) -> tuple`` building the
        picklable argument tuple for one attempt. ``sacrificial`` is
        True only for pool workers (licenses ``kill``-mode faults).
    on_result:
        Callback receiving each completed shard result exactly once
        (checkpointing + bookkeeping in the campaign).
    empty_result:
        ``empty_result(shard) -> result`` standing in for a quarantined
        single-gadget shard, keeping the merge total (or raising, to
        fail closed).
    policy / workers:
        Retry policy and pool width.
    """

    def __init__(self, fn: Callable, args: Callable[[Any, int, bool], tuple],
                 on_result: Callable[[Any], None],
                 empty_result: Callable[[Any], Any],
                 policy: "SupervisorPolicy | None" = None,
                 workers: int = 1) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.fn = fn
        self.args = args
        self.on_result = on_result
        self.empty_result = empty_result
        self.policy = policy or SupervisorPolicy()
        self.workers = workers
        self.report = SupervisorReport()
        self._pool: "ProcessPoolExecutor | None" = None

    # -- public entry points -------------------------------------------

    def run(self, shards: list) -> SupervisorReport:
        """Run every shard to completion (or quarantine).

        Returns this call's report; the pool stays up until :meth:`close`.
        """
        self.report = SupervisorReport()
        if self.workers > 1 and len(shards) > 1:
            self._run_pool(list(shards))
        else:
            self._run_inline(list(shards))
        return self.report

    def close(self) -> None:
        """Shut the worker pool down (a later run builds a new one)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ShardSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- in-process mode -----------------------------------------------

    def _run_inline(self, shards: list) -> None:
        queue = [_Pending(shard, 0) for shard in shards]
        while queue:
            item = queue.pop(0)
            delay = item.not_before - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            try:
                result = self.fn(*self.args(item.shard, item.attempt, False))
            except Exception as exc:
                # KeyboardInterrupt/SystemExit are BaseException: they
                # propagate and abort promptly instead of being retried.
                self._failed(item, "error", repr(exc), queue)
            else:
                self.on_result(result)

    # -- pool mode -----------------------------------------------------

    def _abandon_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _run_pool(self, shards: list) -> None:
        queue = [_Pending(shard, 0) for shard in shards]
        inflight: "dict[Any, tuple[_Pending, float]]" = {}
        try:
            while queue or inflight:
                now = time.monotonic()
                ready = [p for p in queue if p.not_before <= now]
                queue = [p for p in queue if p.not_before > now]
                if self._pool is None:
                    self._pool = ProcessPoolExecutor(max_workers=self.workers)
                for item in sorted(ready, key=lambda p: (p.shard.start,
                                                         p.attempt)):
                    future = self._pool.submit(
                        self.fn, *self.args(item.shard, item.attempt, True))
                    deadline = (now + self.policy.shard_timeout
                                if self.policy.shard_timeout else math.inf)
                    inflight[future] = (item, deadline)
                if not inflight:
                    time.sleep(max(0.0, min(p.not_before for p in queue)
                                   - time.monotonic()))
                    continue

                horizon = min(min(d for _, d in inflight.values()),
                              min((p.not_before for p in queue),
                                  default=math.inf))
                timeout = (None if horizon == math.inf
                           else max(0.0, horizon - time.monotonic()))
                done, _ = wait(set(inflight), timeout=timeout,
                               return_when=FIRST_COMPLETED)

                broken = False
                for future in done:
                    item, _ = inflight.pop(future)
                    try:
                        result = future.result()
                    except BrokenExecutor as exc:
                        broken = True
                        self._failed(item, "worker-lost", repr(exc), queue)
                    except Exception as exc:
                        self._failed(item, "error", repr(exc), queue)
                    else:
                        self.on_result(result)

                now = time.monotonic()
                expired = [f for f, (_, d) in inflight.items() if d <= now]
                if broken or expired:
                    # The pool is unusable (dead worker) or holds a task
                    # we cannot interrupt (hung worker): abandon it and
                    # requeue everything that was in flight.
                    for future, (item, deadline) in list(inflight.items()):
                        kind = ("timeout" if deadline <= now
                                else "worker-lost")
                        self._failed(item, kind,
                                     f"{kind} after pool abandon", queue)
                    inflight.clear()
                    self._abandon_pool()
                    self.report.pool_restarts += 1
                    registry = telemetry.metrics()
                    if registry.enabled:
                        registry.counter("retry.pool_restarts").inc()
                    if self.report.pool_restarts > \
                            self.policy.max_pool_restarts:
                        raise SupervisorError(
                            f"worker pool died "
                            f"{self.report.pool_restarts} times "
                            f"(max_pool_restarts="
                            f"{self.policy.max_pool_restarts}); "
                            f"giving up")
                    logger.warning(
                        "supervisor: worker pool abandoned "
                        "(restart %d/%d), %d shard(s) requeued",
                        self.report.pool_restarts,
                        self.policy.max_pool_restarts, len(queue))
        except BaseException:
            # Ctrl-C (and any other abort) must not wait for running
            # shards: drop the pool and surface the exception so the
            # campaign's already-checkpointed shards are preserved.
            self._abandon_pool()
            raise

    # -- failure handling ----------------------------------------------

    def _failed(self, item: _Pending, kind: str, detail: str,
                queue: "list[_Pending]") -> None:
        shard, attempt = item.shard, item.attempt
        self.report.failures.append(ShardFailure(
            shard_start=shard.start, shard_count=shard.count,
            attempt=attempt, kind=kind, detail=detail))
        registry = telemetry.metrics()
        if registry.enabled:
            registry.counter("retry.shard_failures").inc()
            registry.counter(f"retry.failures.{kind}").inc()
        if attempt < self.policy.max_retries:
            delay = self.policy.backoff_seconds(shard.start, attempt + 1)
            self.report.retries += 1
            if registry.enabled:
                registry.counter("retry.shards").inc()
                registry.histogram("retry.backoff_seconds").observe(delay)
            logger.warning(
                "shard @%d (%d gadgets) failed attempt %d (%s); "
                "retrying in %.3fs", shard.start, shard.count, attempt,
                kind, delay)
            queue.append(_Pending(shard, attempt + 1,
                                  time.monotonic() + delay))
        elif shard.count > 1:
            half = shard.count // 2
            shard_type = type(shard)
            left = shard_type(index=-1, start=shard.start, count=half)
            right = shard_type(index=-1, start=shard.start + half,
                               count=shard.count - half)
            self.report.bisections += 1
            if registry.enabled:
                registry.counter("retry.bisections").inc()
            logger.warning(
                "shard @%d (%d gadgets) exhausted %d retries (%s); "
                "bisecting into @%d+%d / @%d+%d", shard.start, shard.count,
                self.policy.max_retries, kind, left.start, left.count,
                right.start, right.count)
            queue.append(_Pending(left, 0))
            queue.append(_Pending(right, 0))
        else:
            empty = self.empty_result(shard)  # may raise: fail closed
            self.report.quarantined.append(QuarantineRecord(
                gadget_index=shard.start, attempts=attempt + 1,
                detail=detail))
            if registry.enabled:
                registry.counter("fault.quarantined").inc()
            logger.error(
                "gadget %d quarantined after %d failed attempts (%s); "
                "continuing without it", shard.start, attempt + 1, detail)
            self.on_result(empty)
