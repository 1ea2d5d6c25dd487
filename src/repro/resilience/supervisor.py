"""The shard supervisor: retries, timeouts, bisection, one worker pool.

Campaign shards, coverage-search chunks and fleet shard waves fan out
through it, so worker failures are a *degraded state*, not an abort:

- every task failure (raised exception, lost worker process, blown
  timeout) is retried up to ``max_retries`` times with exponential
  backoff and seeded jitter — deterministic, so a chaos run's retry
  schedule is reproducible;
- a task that exhausts its retries is *bisected*: both halves re-enter
  the queue with a fresh retry budget, converging on the offending
  unit, whose final failure the caller's ``empty_result`` answers for
  (the campaign quarantines the gadget; raising fails closed);
- each forked worker runs one task at a time over its own pipe, so a
  death or a timeout fails only that task and stops only that worker;
  workers live until :meth:`ShardSupervisor.close`, across runs;
- ``KeyboardInterrupt``/``SystemExit`` in this process are never task
  failures: every worker is stopped and the exception re-raised at
  once, so Ctrl-C still checkpoints promptly.

Tasks are pure in their arguments, so retries and bisection cannot
change results — a supervised chaos run merges to the same result as a
fault-free run, minus only what ``empty_result`` stood in for.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import signal
import time
from contextlib import nullcontext, suppress
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Any, Callable

from repro.resilience import runtime as resilience
from repro.resilience.faults import FaultPlan, _hash01
from repro.telemetry import runtime as telemetry

logger = logging.getLogger(__name__)

#: Forked workers inherit what the parent built before the first
#: dispatch (the search's evaluator), so they need no initializer.
_FORK = multiprocessing.get_context("fork")


@dataclass(frozen=True)
class ShardSpec:
    """One contiguous slice of a fan-out's units (gadgets, evaluations,
    or a single fleet shard); bisection halves it."""

    index: int
    start: int
    count: int

    @property
    def stop(self) -> int:
        return self.start + self.count


@dataclass(frozen=True)
class SupervisorPolicy:
    """Retry/timeout policy for supervised tasks.

    Parameters
    ----------
    shard_timeout:
        Wall-clock seconds one task attempt may run on a worker process
        before the supervisor stops that worker (``None`` disables;
        only enforceable on workers — an in-process task cannot be
        interrupted).
    max_retries:
        Failed attempts re-queued per task before bisection kicks in.
    backoff_base / backoff_cap:
        Exponential backoff: retry *n* waits
        ``min(cap, base * 2**(n-1))`` seconds before resubmission.
    backoff_jitter:
        Fractional seeded jitter added on top (0.25 = up to +25%),
        deterministic per (seed, shard, attempt).
    seed:
        Jitter seed; campaigns reuse the fault plan's seed so a chaos
        run's whole schedule derives from one number.
    """

    shard_timeout: "float | None" = None
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    backoff_jitter: float = 0.25
    seed: int = 0

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


@dataclass
class _Pending:
    """A shard waiting to (re)run."""

    shard: Any
    attempt: int
    not_before: float = 0.0


@dataclass
class SupervisorReport:
    """Everything the supervisor observed during one run
    (``pool_restarts``: workers replaced after a death or timeout)."""

    failures: list[ShardFailure] = field(default_factory=list)
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


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _serve(conn, parent_conn, fn: Callable) -> None:
    """A worker's loop: run each task it is sent until told to stop,
    replying ``("ok", result)`` or ``("error", "Type: message")``."""
    parent_conn.close()  # so that the parent's death reads as EOF
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's
    with suppress(EOFError):
        for args in iter(conn.recv, None):
            try:
                reply = ("ok", fn(*args))
            except Exception as exc:
                reply = ("error", _describe(exc))
            try:
                conn.send(reply)
            except Exception as exc:  # a result that will not pickle
                conn.send(("error", _describe(exc)))


@dataclass
class _Worker:
    """A forked worker, the parent's end of its pipe, and its task."""

    process: Any
    conn: Any
    task: "_Pending | None" = None
    deadline: float = math.inf


class ShardSupervisor:
    """Supervised execution of shard-shaped tasks.

    Parameters
    ----------
    fn:
        The top-level task function, inherited by forked workers; the
        campaign and the coverage search pass :func:`run_task`.
    args:
        ``args(shard, attempt, sacrificial) -> tuple`` building the
        picklable argument tuple for one attempt. ``sacrificial`` is
        True only on worker processes (licenses ``kill``-mode faults).
    on_result:
        Callback receiving each completed shard result exactly once
        (checkpointing + bookkeeping in the campaign).
    empty_result:
        ``empty_result(failure) -> result`` receiving the final
        :class:`ShardFailure` of a single-unit shard that used up its
        retries; its return value goes to ``on_result`` in the shard's
        place, keeping the merge total (or it raises, to fail closed).
    policy / workers:
        Retry policy and pool width.
    """

    def __init__(self, fn: Callable, args: Callable[[Any, int, bool], tuple],
                 on_result: Callable[[Any], None],
                 empty_result: Callable[[ShardFailure], Any],
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
        self._workers: list[_Worker] = []

    # -- public entry points -------------------------------------------

    def run(self, shards: list, processes: bool = False) -> SupervisorReport:
        """Run every shard to completion (or to its ``empty_result``), on
        the worker processes with ``processes``, else one after another
        in this process; returns this call's report."""
        self.report = SupervisorReport()
        queue = [_Pending(shard, 0) for shard in shards]
        if processes:
            self._run_pool(queue)
        else:
            self._run_inline(queue)
        return self.report

    def close(self) -> None:
        """Stop every worker (idle ones are told to, busy ones are
        terminated at once) and join them all."""
        workers, self._workers = self._workers, []
        for worker in workers:
            if worker.task is not None:
                worker.process.terminate()
            else:
                with suppress(OSError):  # already dead
                    worker.conn.send(None)
        for worker in workers:
            worker.process.join()
            worker.conn.close()

    def __enter__(self) -> "ShardSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- in-process mode -----------------------------------------------

    def _run_inline(self, queue: "list[_Pending]") -> None:
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
                self._failed(item, "error", _describe(exc), queue)
            else:
                self.on_result(result)

    # -- worker processes ----------------------------------------------

    def _free_worker(self) -> "_Worker | None":
        """An idle worker, a newly forked one, or ``None`` at capacity."""
        for worker in self._workers:
            if worker.task is None:
                return worker
        if len(self._workers) >= self.workers:
            return None
        conn, child_conn = _FORK.Pipe()
        process = _FORK.Process(target=_serve,
                                args=(child_conn, conn, self.fn),
                                daemon=True)
        process.start()
        child_conn.close()
        worker = _Worker(process, conn)
        self._workers.append(worker)
        return worker

    def _run_pool(self, queue: "list[_Pending]") -> None:
        timeout = self.policy.shard_timeout
        try:
            while True:
                now = time.monotonic()
                ready = sorted((p for p in queue if p.not_before <= now),
                               key=lambda p: (p.shard.start, p.attempt))
                for item in ready:
                    worker = self._free_worker()
                    if worker is None:
                        break
                    args = self.args(item.shard, item.attempt, True)
                    queue.remove(item)
                    worker.task = item
                    worker.deadline = now + timeout if timeout else math.inf
                    with suppress(OSError):  # a dead worker reads as lost
                        worker.conn.send(args)
                busy = [w for w in self._workers if w.task is not None]
                if not busy and not queue:
                    return
                # A backoff end wakes the loop only while a worker is free.
                ends = [w.deadline for w in busy]
                if len(busy) < self.workers:
                    ends += [p.not_before for p in queue]
                horizon = min(ends)
                for conn in wait([w.conn for w in busy],
                                 None if horizon == math.inf
                                 else max(0.0, horizon - time.monotonic())):
                    worker = next(w for w in busy if w.conn is conn)
                    try:
                        status, payload = conn.recv()
                    except (EOFError, OSError):
                        self._stop(worker, "worker-lost", queue)
                        continue
                    item, worker.task = worker.task, None
                    if status == "ok":
                        self.on_result(payload)
                    else:
                        self._failed(item, "error", payload, queue)
                now = time.monotonic()
                for worker in busy:
                    if worker.task is not None and worker.deadline <= now:
                        self._stop(worker, "timeout", queue)
        except BaseException:  # Ctrl-C, or a callback failing closed
            self.close()
            raise

    def _stop(self, worker: _Worker, kind: str,
              queue: "list[_Pending]") -> None:
        """Stop a worker whose task died with it or overran, and fail
        that task; nothing else in flight is touched."""
        item, worker.task = worker.task, None
        self._workers.remove(worker)
        worker.process.terminate()
        worker.process.join()
        worker.conn.close()
        self.report.pool_restarts += 1
        registry = telemetry.metrics()
        if registry.enabled:
            registry.counter("retry.pool_restarts").inc()
        detail = (f"worker exited with status {worker.process.exitcode}"
                  if kind == "worker-lost" else
                  f"no result within {self.policy.shard_timeout}s")
        self._failed(item, kind, detail, queue)

    # -- failure handling ----------------------------------------------

    def _failed(self, item: _Pending, kind: str, detail: str,
                queue: "list[_Pending]") -> None:
        shard, attempt = item.shard, item.attempt
        failure = ShardFailure(shard_start=shard.start,
                               shard_count=shard.count, attempt=attempt,
                               kind=kind, detail=detail)
        self.report.failures.append(failure)
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
            left = ShardSpec(index=-1, start=shard.start, count=half)
            right = ShardSpec(index=-1, start=shard.start + half,
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
            self.on_result(self.empty_result(failure))  # may raise
