"""The process-global runtime slot shared by every subsystem.

Telemetry, fault injection and the observability plane all follow
the same pattern: hot-path code never owns the subsystem object, it
asks a module-level accessor for the process-global one, and until
something is configured the accessor hands back a shared no-op default
so the disabled path costs one function call and an attribute read.

This module is that pattern, written once. Each subsystem's
``runtime`` module owns one :class:`ProcessGlobal` and keeps its
public ``configure`` / ``disable`` / ``enabled`` / ``active`` /
``session`` API as thin wrappers, so call sites (and tests) see no
difference from the previous per-module implementations.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Generic, TypeVar

T = TypeVar("T")


class ProcessGlobal(Generic[T]):
    """One process-global slot with a shared no-op default.

    Parameters
    ----------
    default:
        The disabled-state object handed back until :meth:`install` is
        called. Identity against this object is what :meth:`enabled`
        reports, so the default should be a shared singleton.
    """

    def __init__(self, default: T) -> None:
        self._default = default
        self._active = default

    @property
    def default(self) -> T:
        return self._default

    def install(self, value: T) -> T:
        """Make ``value`` the process-global instance; returns it."""
        self._active = value
        return value

    def reset(self) -> None:
        """Restore the no-op default."""
        self._active = self._default

    def enabled(self) -> bool:
        """Whether something other than the default is installed."""
        return self._active is not self._default

    def active(self) -> T:
        return self._active

    @contextmanager
    def scoped(self, value: T,
               on_exit: "Callable[[T], object] | None" = None):
        """Install ``value`` for the duration of a ``with`` block.

        The previously active instance — the default, or an outer
        scope's — is restored on exit. ``on_exit`` runs first (even
        when the body raises), which is where the telemetry runtime
        hangs its flush-on-close behaviour.
        """
        previous = self._active
        self._active = value
        try:
            yield value
        finally:
            if on_exit is not None:
                on_exit(value)
            self._active = previous
