"""Deterministic fault injection for chaos runs.

A :class:`FaultPlan` arms named fault points scattered through the
campaign and obfuscator hot paths. Every firing decision is a pure
function of ``(plan seed, fault point, site key, attempt)`` — no
process-local randomness — so a chaos run is exactly reproducible:
re-running the same plan against the same campaign injects the same
faults at the same sites, no matter how many worker processes are
involved or in which order shards execute.

The instrumented fault points:

========================  ==================================================
``campaign.shard``        a shard screening task (worker side)
``checkpoint.write``      a shard checkpoint write (torn-write simulation;
                          also the shard store behind ``cache_dir``)
``daemon.noise_refill``   the obfuscator daemon's noise-buffer refill
``fleet.admit``           the fleet admission controller's decision path
``fleet.policy``          the adaptive defense engine's per-tenant
                          decision path (fail-closed: exhausted
                          retries quarantine, never relax)
``fleet.provision``       a fleet noise-provisioner refill
``fleet.shard``           a fleet shard worker's replay loop (kill =
                          shard crash; the supervisor reassigns and
                          replays its tenants)
``kernel_module.read``    an RDPMC read inside the in-guest kernel module
``search.chunk``          a coverage-search chunk evaluation (worker side;
                          key = the chunk's first evaluation index; a
                          chunk that keeps failing fails the search
                          closed, never drops evaluations)
``search.corpus.write``   a coverage-search corpus entry write (corrupt =
                          damaged on-disk entry; the loader treats it as
                          a miss, never a crash)
========================  ==================================================

Fault modes:

- ``raise``   — raise :class:`InjectedFault` at the site.
- ``hang``    — sleep ``hang_seconds`` at the site, then proceed
  (trips per-shard timeouts without leaving state behind).
- ``corrupt`` — hand the site a spec it applies via
  :func:`corrupt_text` (truncated/poisoned payload, i.e. a torn write
  or a damaged on-disk object).
- ``kill``    — ``os._exit`` the process, but only when the armed
  injector marks the process *sacrificial* (a pool worker); in the
  campaign's own process the kill is demoted to ``raise`` so a chaos
  plan can never take down the supervisor it is testing.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.telemetry import runtime as telemetry

#: Every site instrumented with :func:`repro.resilience.runtime.check`.
FAULT_POINTS = ("campaign.shard", "checkpoint.write", "daemon.noise_refill",
                "fleet.admit", "fleet.policy", "fleet.provision",
                "fleet.shard", "kernel_module.read", "search.chunk",
                "search.corpus.write")

#: Supported failure modes.
FAULT_MODES = ("raise", "hang", "corrupt", "kill")

#: Exit status of a ``kill``-mode fault (distinctive in worker logs).
KILL_EXIT_STATUS = 113


class InjectedFault(RuntimeError):
    """The exception a ``raise``-mode (or demoted ``kill``) fault raises."""

    def __init__(self, point: str, key: int, note: str = "") -> None:
        detail = f"injected fault at {point} (key={key})"
        if note:
            detail = f"{detail}: {note}"
        super().__init__(detail)
        self.point = point
        self.key = key


def _hash01(seed: int, label: str, key: int) -> float:
    """Deterministic uniform draw in [0, 1) for one (seed, label, key)."""
    digest = hashlib.sha256(f"{seed}:{label}:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def stable_key(text: str) -> int:
    """A deterministic integer site key for a string identifier."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def corrupt_text(text: str, seed: int = 0, key: int = 0) -> str:
    """Deterministically damage a payload string (torn-write model).

    Keeps a seed-dependent prefix and appends a NUL byte, so the result
    is never valid JSON: readers detect the damage and fall back
    (checkpoint rollback, corpus miss) instead of parsing garbage.
    """
    if not text:
        return "\x00"
    keep = 1 + int(_hash01(seed, "corrupt", key) * max(1, len(text) - 1))
    return text[:keep] + "\x00"


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: where it fires, how, and for which hits.

    Parameters
    ----------
    point:
        One of :data:`FAULT_POINTS`.
    mode:
        One of :data:`FAULT_MODES`.
    probability:
        Seeded per-key Bernoulli: the fault arms only for site keys
        whose deterministic draw falls below this (1.0 = every key).
    times:
        Attempts faulted per armed key — attempts ``0..times-1`` fail,
        later retries succeed. ``0`` means *persistent*: every attempt
        fails (what the poison-shard bisection tests use).
    match:
        Explicit site keys to arm (empty = probabilistic over all).
    gadgets:
        ``campaign.shard`` only: poison gadget indices. The fault fires
        persistently for any shard whose span contains one of them, so
        bisection converges on exactly the offending gadget.
    hang_seconds:
        Stall duration for ``hang`` mode.
    """

    point: str
    mode: str
    probability: float = 1.0
    times: int = 1
    match: tuple[int, ...] = ()
    gadgets: tuple[int, ...] = ()
    hang_seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ValueError(f"unknown fault point {self.point!r}; "
                             f"choose from {FAULT_POINTS}")
        if self.mode not in FAULT_MODES:
            raise ValueError(f"unknown fault mode {self.mode!r}; "
                             f"choose from {FAULT_MODES}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], "
                             f"got {self.probability}")
        if self.times < 0:
            raise ValueError(f"times must be >= 0, got {self.times}")
        if self.hang_seconds < 0:
            raise ValueError(f"hang_seconds must be >= 0, "
                             f"got {self.hang_seconds}")
        if self.gadgets and self.point != "campaign.shard":
            raise ValueError("gadgets= targets only 'campaign.shard'")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serializable set of :class:`FaultSpec` to arm.

    Plans are plain frozen dataclasses: they pickle across the
    process-pool boundary unchanged and round-trip through JSON for the
    ``--fault-plan`` CLI flag and the CI chaos job.
    """

    seed: int = 0
    faults: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def decide(self, point: str, key: int = 0, attempt: int = 0,
               span: "tuple[int, int] | None" = None) -> FaultSpec | None:
        """The spec firing at this site hit, or ``None``.

        Pure in its arguments and the plan: the same (point, key,
        attempt, span) always yields the same decision.
        """
        for spec in self.faults:
            if spec.point != point:
                continue
            if spec.gadgets:
                if span is None or not any(span[0] <= g < span[1]
                                           for g in spec.gadgets):
                    continue
                return spec  # poison gadgets fault persistently
            if spec.match and key not in spec.match:
                continue
            if spec.times and attempt >= spec.times:
                continue
            if spec.probability < 1.0 and _hash01(
                    self.seed, f"{point}:{spec.mode}",
                    key) >= spec.probability:
                continue
            return spec
        return None

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {"seed": self.seed,
                "faults": [asdict(spec) for spec in self.faults]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        specs = []
        for raw in payload.get("faults", ()):
            raw = dict(raw)
            for name in ("match", "gadgets"):
                if name in raw:
                    raw[name] = tuple(int(v) for v in raw[name])
            specs.append(FaultSpec(**raw))
        return cls(seed=int(payload.get("seed", 0)), faults=tuple(specs))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def parse(cls, source: str) -> "FaultPlan":
        """Build a plan from a JSON file path or an inline JSON string."""
        text = source.strip()
        if not text.startswith("{"):
            path = Path(source)
            if not path.is_file():
                raise ValueError(
                    f"--fault-plan expects a JSON object or a JSON file, "
                    f"got {source!r}")
            text = path.read_text(encoding="utf-8")
        try:
            return cls.from_json(text)
        except (TypeError, ValueError, KeyError) as exc:
            raise ValueError(f"invalid fault plan: {exc}") from exc


class FaultInjector:
    """The armed runtime that fault points consult.

    Tracks per-``(point, key)`` hit counts so sites without a natural
    retry counter (checkpoint writes, refills) get an implicit
    ``attempt`` — their first ``times`` hits fault, later hits pass —
    while sites with an explicit supervisor-managed attempt
    (shard screening) stay deterministic across process boundaries.

    ``attempt_bias`` shifts every *implicit* attempt: a replacement
    fleet-shard worker arms with its recovery generation as the bias so
    the replayed hits land past the ``times`` budget an earlier
    generation already consumed — without it, a ``times: 1`` kill at an
    implicitly-counted point (admission, refill) would re-fire against
    every replacement and crash-loop the supervisor.
    """

    enabled = True

    def __init__(self, plan: FaultPlan, sacrificial: bool = False,
                 attempt_bias: int = 0) -> None:
        if attempt_bias < 0:
            raise ValueError(f"attempt_bias must be >= 0, got "
                             f"{attempt_bias}")
        self.plan = plan
        self.sacrificial = sacrificial
        self.attempt_bias = attempt_bias
        self.fired: Counter = Counter()
        self._hits: Counter = Counter()

    def check(self, point: str, key: int = 0, attempt: "int | None" = None,
              span: "tuple[int, int] | None" = None) -> FaultSpec | None:
        """Consult the plan at one site hit; act on the firing mode.

        Returns the firing spec for ``corrupt``/``hang`` modes (the
        site applies/ignores it), raises for ``raise``, exits the
        process for ``kill`` (sacrificial processes only), and returns
        ``None`` when nothing fires.
        """
        if attempt is None:
            attempt = self.attempt_bias + self._hits[(point, key)]
        self._hits[(point, key)] += 1
        spec = self.plan.decide(point, key=key, attempt=attempt, span=span)
        if spec is None:
            return None
        self.fired[point] += 1
        registry = telemetry.metrics()
        if registry.enabled:
            registry.counter("fault.injected").inc()
            registry.counter(f"fault.{point}").inc()
        if spec.mode == "hang":
            time.sleep(spec.hang_seconds)
            return spec
        if spec.mode == "kill":
            if self.sacrificial:
                # Export what this process recorded (including the
                # fault counter itself) before dying without cleanup.
                telemetry.flush()
                os._exit(KILL_EXIT_STATUS)
            raise InjectedFault(point, key,
                                "kill demoted to raise outside a "
                                "sacrificial worker process")
        if spec.mode == "raise":
            raise InjectedFault(point, key)
        return spec  # corrupt: the site applies corrupt_text


class NoopFaultInjector:
    """Disarmed injector: every site check is a cheap no-op."""

    enabled = False
    sacrificial = False

    def check(self, point: str, key: int = 0, attempt: "int | None" = None,
              span: "tuple[int, int] | None" = None) -> None:
        return None


NOOP_INJECTOR = NoopFaultInjector()
