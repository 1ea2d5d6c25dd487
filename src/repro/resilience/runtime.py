"""Process-global fault-injection runtime.

Mirrors :mod:`repro.telemetry.runtime`:
instrumented sites never own an injector, they call :func:`check` and
get the process-global one. Until :func:`arm` installs a plan the
shared no-op injector answers, so every fault point costs one function
call and an attribute read in production. The slot is a
:class:`repro.utils.runtime.ProcessGlobal`, the helper all three
runtime modules (telemetry, resilience, observability) share.

Campaign worker processes arm their own injector (the supervisor ships
the :class:`~repro.resilience.faults.FaultPlan` with each shard task)
flagged *sacrificial*, which is what licenses ``kill``-mode faults to
``os._exit`` — the campaign's own process always demotes kills to
raises so chaos plans cannot take down the supervisor.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.resilience.faults import (
    NOOP_INJECTOR,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    NoopFaultInjector,
)
from repro.utils.runtime import ProcessGlobal

_slot: "ProcessGlobal[FaultInjector | NoopFaultInjector]" = \
    ProcessGlobal(NOOP_INJECTOR)


def arm(plan: FaultPlan, sacrificial: bool = False,
        attempt_bias: int = 0) -> FaultInjector:
    """Install a live injector for ``plan``; returns it."""
    return _slot.install(FaultInjector(plan, sacrificial=sacrificial,
                                       attempt_bias=attempt_bias))


def disarm() -> None:
    """Restore the no-op injector."""
    _slot.reset()


def armed() -> bool:
    return _slot.enabled()


def active() -> "FaultInjector | NoopFaultInjector":
    return _slot.active()


def check(point: str, key: int = 0, attempt: "int | None" = None,
          span: "tuple[int, int] | None" = None) -> "FaultSpec | None":
    """Hit one fault point on the process-global injector."""
    return _slot.active().check(point, key=key, attempt=attempt, span=span)


@contextmanager
def session(plan: "FaultPlan | None", sacrificial: bool = False,
            attempt_bias: int = 0):
    """Scoped arming: arm, yield the injector, restore the previous one.

    ``plan=None`` yields the currently armed injector unchanged, so
    call sites can pass an optional plan straight through.
    ``attempt_bias`` shifts implicit attempt counts — fleet-shard
    replacements pass their recovery generation here.
    """
    if plan is None:
        yield _slot.active()
        return
    with _slot.scoped(FaultInjector(plan, sacrificial=sacrificial,
                                    attempt_bias=attempt_bias)) \
            as injector:
        yield injector
