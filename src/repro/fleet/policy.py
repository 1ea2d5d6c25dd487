"""The adaptive defense plane: detection-driven escalation per tenant.

PR 7 gave the fleet eyes — host-read attack-signal detectors — but the
control plane kept serving every tenant the same static noise policy.
This module closes the loop, in the spirit of "Fight Hardware with
Hardware": a deterministic per-tenant state machine

    ``NORMAL -> SUSPECT -> ESCALATED -> QUARANTINED``

driven by :class:`~repro.observability.detectors.DetectorRegistry`
alerts, whose actions are

- **ε reallocation** (SUSPECT and above): the tenant's per-slice ε is
  reallocated *downward* through the
  :class:`~repro.fleet.ledger.FleetLedger` — more noise per released
  slice, slower budget burn — while the multi-rate accountant keeps
  proving composed ε ≤ the originally registered cap (reallocation is
  monotone-down, so an escalated run can never spend faster than the
  static policy it replaced);
- **noise-mode escalation** (ESCALATED): the tenant's precomputed plan
  switches Laplace → d* through the provisioner's mode-tagged buffers.
  The d* additive noise ``noisy[t] − x[t]`` telescopes to a pure
  path-sum of tree draws (paper Eq. 4/5), so the escalated plan is
  still value-independent and precomputable — escalation never touches
  a guest value and replays bit-identically;
- **quarantine** (fail closed): once escalation is exhausted, reads
  are denied at admission (``quarantined``), every withheld window
  counted under ``privacy.stalled_slices``; a quarantined tenant spends
  nothing and leaks nothing.

Every transition is a pure function of the tenant's own alert
subsequence and its seeded policy stream (``derive_stream(seed,
"policy", tenant_id)`` supplies the cooldown jitter) — no wall clock,
no global alert interleaving — so policy decisions are bit-identical
at any shard count, which the PR-8 digest machinery asserts.

Chaos: the ``fleet.policy`` fault point sits in the decision path.
A fault absorbed by the bounded retry budget leaves every decision
(and therefore every digest) bit-identical to a fault-free run; a
fault that exhausts retries — or a ``corrupt`` that damages the
decision payload — degrades the tenant to the *most* restrictive mode
(QUARANTINED), never the least. A crashed policy engine can only ever
withhold reads, not leak them.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from repro.observability import runtime as observability
from repro.observability.detectors import SEVERITY_RANK, Alert
from repro.resilience import runtime as resilience
from repro.resilience.faults import InjectedFault, corrupt_text, stable_key
from repro.telemetry import runtime as telemetry
from repro.utils.rng import derive_stream

#: Defense states, least to most restrictive. List order is rank order.
DEFENSE_STATES = ("NORMAL", "SUSPECT", "ESCALATED", "QUARANTINED")

#: Numeric rank per state (``policy.tenant.<id>.state`` gauge values).
STATE_RANK = {state: rank for rank, state in enumerate(DEFENSE_STATES)}

#: Noise-plan modes a state may select (mirrors the provisioner's tags).
ESCALATED_MODES = ("laplace", "dstar")

#: Retries of a faulted ``fleet.policy`` decision before it fails
#: closed to QUARANTINED.
POLICY_FAULT_RETRIES = 4


@dataclass(frozen=True)
class EscalationProfile:
    """How aggressively alerts move a tenant up (and down) the ladder.

    Alert weight is severity-based: a ``critical`` alert counts
    ``critical_weight`` hits, anything else 1; alerts below
    ``min_severity`` are ignored entirely. A tenant whose accumulated
    hits reach ``suspect_after`` / ``escalate_after`` /
    ``quarantine_after`` moves to the matching state. Quiet tenants
    decay one level at a time after ``cooldown_ticks`` plus a seeded
    jitter draw (hysteresis: fresh alerts refresh the hold, and decay
    resets the hit count to the floor of the level decayed *to*, so a
    single stray alert cannot re-quarantine a recovered tenant).
    """

    name: str = "balanced"
    suspect_after: int = 1
    escalate_after: int = 2
    quarantine_after: int = 4
    critical_weight: int = 2
    min_severity: str = "medium"
    suspect_epsilon_factor: float = 0.5
    escalated_epsilon_factor: float = 0.25
    escalated_mode: str = "dstar"
    cooldown_ticks: int = 6
    cooldown_jitter: int = 3

    def __post_init__(self) -> None:
        if not (1 <= self.suspect_after <= self.escalate_after
                <= self.quarantine_after):
            raise ValueError(
                "need 1 <= suspect_after <= escalate_after <= "
                f"quarantine_after, got {self.suspect_after}/"
                f"{self.escalate_after}/{self.quarantine_after}")
        if self.critical_weight < 1:
            raise ValueError(f"critical_weight must be >= 1, got "
                             f"{self.critical_weight}")
        if self.min_severity not in SEVERITY_RANK:
            raise ValueError(f"unknown min_severity "
                             f"{self.min_severity!r}; choose from "
                             f"{sorted(SEVERITY_RANK)}")
        for label, factor in (
                ("suspect_epsilon_factor", self.suspect_epsilon_factor),
                ("escalated_epsilon_factor",
                 self.escalated_epsilon_factor)):
            if not 0.0 < factor <= 1.0:
                raise ValueError(f"{label} must be in (0, 1] — ε only "
                                 f"reallocates downward, got {factor}")
        if self.escalated_epsilon_factor > self.suspect_epsilon_factor:
            raise ValueError("escalated_epsilon_factor must be <= "
                             "suspect_epsilon_factor (escalation "
                             "tightens, never loosens)")
        if self.escalated_mode not in ESCALATED_MODES:
            raise ValueError(f"escalated_mode must be one of "
                             f"{ESCALATED_MODES}, got "
                             f"{self.escalated_mode!r}")
        if self.cooldown_ticks < 1:
            raise ValueError(f"cooldown_ticks must be >= 1, got "
                             f"{self.cooldown_ticks}")
        if self.cooldown_jitter < 0:
            raise ValueError(f"cooldown_jitter must be >= 0, got "
                             f"{self.cooldown_jitter}")

    # -- per-state actions --------------------------------------------

    def epsilon_factor(self, state: str) -> float:
        """The per-slice ε multiplier this state serves at."""
        if state in ("ESCALATED", "QUARANTINED"):
            return self.escalated_epsilon_factor
        if state == "SUSPECT":
            return self.suspect_epsilon_factor
        return 1.0

    def plan_mode(self, state: str) -> str:
        """The provisioner plan mode this state serves with."""
        if state in ("ESCALATED", "QUARANTINED"):
            return self.escalated_mode
        return "laplace"

    def entry_hits(self, state: str) -> int:
        """The hit floor a tenant decaying *to* ``state`` keeps."""
        return {"NORMAL": 0, "SUSPECT": self.suspect_after,
                "ESCALATED": self.escalate_after,
                "QUARANTINED": self.quarantine_after}[state]

    def target_state(self, hits: int) -> str:
        """The state ``hits`` accumulated alert weight maps to."""
        if hits >= self.quarantine_after:
            return "QUARANTINED"
        if hits >= self.escalate_after:
            return "ESCALATED"
        if hits >= self.suspect_after:
            return "SUSPECT"
        return "NORMAL"

    # -- serialization (CLI --escalation-profile) ----------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "EscalationProfile":
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown escalation-profile field(s): "
                             f"{unknown}; choose from {sorted(known)}")
        return cls(**payload)

    @classmethod
    def parse(cls, source: str) -> "EscalationProfile":
        """Build a profile from a JSON file path or inline JSON."""
        text = source.strip()
        if not text.startswith("{"):
            path = Path(source)
            if not path.is_file():
                raise ValueError(
                    f"--escalation-profile expects a JSON object or a "
                    f"JSON file, got {source!r}")
            text = path.read_text(encoding="utf-8")
        try:
            return cls.from_dict(json.loads(text))
        except (TypeError, ValueError, KeyError) as exc:
            raise ValueError(f"invalid escalation profile: {exc}") from exc


#: The named profiles ``--defense-policy`` accepts.
ESCALATION_PROFILES = {
    "balanced": EscalationProfile(),
    "aggressive": EscalationProfile(
        name="aggressive", suspect_after=1, escalate_after=1,
        quarantine_after=3, suspect_epsilon_factor=0.5,
        escalated_epsilon_factor=0.2, cooldown_ticks=10),
    "conservative": EscalationProfile(
        name="conservative", suspect_after=2, escalate_after=4,
        quarantine_after=8, min_severity="high",
        suspect_epsilon_factor=0.75, escalated_epsilon_factor=0.5,
        cooldown_ticks=4),
}


def resolve_profile(policy) -> "EscalationProfile | None":
    """``None``/named-profile/instance → an :class:`EscalationProfile`.

    The single resolution point the control plane, shard workers and
    CLI share, so ``--defense-policy balanced`` means the same machine
    everywhere.
    """
    if policy is None:
        return None
    if isinstance(policy, EscalationProfile):
        return policy
    try:
        return ESCALATION_PROFILES[policy]
    except KeyError as exc:
        raise ValueError(
            f"unknown defense policy {policy!r}; choose from "
            f"{sorted(ESCALATION_PROFILES)} or pass an "
            f"EscalationProfile") from exc


@dataclass
class TenantDefenseState:
    """One tenant's position on the escalation ladder."""

    tenant_id: str
    state: str = "NORMAL"
    hits: int = 0
    alerts_seen: int = 0
    decay_at: "int | None" = None
    transitions: list = field(default_factory=list)
    quarantined_windows: int = 0
    fault_forced: bool = False

    def snapshot(self) -> dict:
        return {
            "state": self.state,
            "hits": self.hits,
            "alerts_seen": self.alerts_seen,
            "decay_at": self.decay_at,
            "transitions": [dict(t) for t in self.transitions],
            "quarantined_windows": self.quarantined_windows,
            "fault_forced": self.fault_forced,
        }


class DefensePolicyEngine:
    """Per-tenant defense state machine over the fleet's alert stream.

    Parameters
    ----------
    profile:
        The :class:`EscalationProfile` (or registered name) governing
        thresholds, ε factors and cooldowns.
    ledger / provisioner:
        The fleet's accounting and provisioning planes the engine's
        actions apply to.
    seed:
        The *fleet root* seed. Cooldown jitter derives per tenant as
        ``derive_stream(seed, "policy", tenant_id)`` — never anything
        shard-local — which is what keeps decisions reshard-invariant.
    base_epsilon:
        The artifact's per-slice ε every factor multiplies.
    fault_attempt_bias:
        The shard recovery generation added to every explicit
        ``fleet.policy`` attempt, so a replayed worker does not re-fire
        an already-absorbed fault.
    """

    def __init__(self, profile, ledger, provisioner, seed: int,
                 base_epsilon: float, fault_attempt_bias: int = 0) -> None:
        resolved = resolve_profile(profile)
        if resolved is None:
            raise ValueError("DefensePolicyEngine needs a profile; got "
                             "None (leave the plane's policy unset "
                             "instead)")
        self.profile = resolved
        self.ledger = ledger
        self.provisioner = provisioner
        self.seed = int(seed)
        self.base_epsilon = float(base_epsilon)
        self.fault_attempt_bias = int(fault_attempt_bias)
        self.min_rank = SEVERITY_RANK[resolved.min_severity]
        self.tenants: dict[str, TenantDefenseState] = {}
        self.policy_faults = 0
        self._rngs: dict = {}
        self._consumed_alerts = 0

    # -- tenant lifecycle ---------------------------------------------

    def register_tenant(self, tenant_id: str) -> TenantDefenseState:
        if tenant_id in self.tenants:
            raise ValueError(f"tenant {tenant_id!r} already registered "
                             f"with the policy engine")
        state = TenantDefenseState(tenant_id=tenant_id)
        self.tenants[tenant_id] = state
        self._rngs[tenant_id] = derive_stream(self.seed, "policy",
                                              tenant_id)
        self._sync_gauge(state)
        return state

    def state_of(self, tenant_id: str) -> str:
        return self.tenants[tenant_id].state

    # -- admission hook -----------------------------------------------

    def deny_reason(self, tenant_id: str) -> "str | None":
        """Why this tenant's window must be withheld, or ``None``.

        Quarantine is the only denying state: SUSPECT/ESCALATED serve
        (at tighter ε / d* plans); QUARANTINED fails closed.
        """
        tenant = self.tenants.get(tenant_id)
        if tenant is None or tenant.state != "QUARANTINED":
            return None
        tenant.quarantined_windows += 1
        registry = telemetry.metrics()
        if registry.enabled:
            registry.counter("policy.quarantined_windows").inc()
        return "quarantined"

    # -- the decision tick --------------------------------------------

    def on_tick(self, tick: int,
                alerts: "list[Alert] | None" = None) -> list[dict]:
        """Consume new alerts and run every pending decision.

        ``alerts=None`` pulls the fresh tail of the active
        observability plane's registry (the control plane's path);
        tests pass explicit alert lists. Returns the transitions made
        this tick (also recorded per tenant).
        """
        if alerts is None:
            alerts = self._pull_alerts()
        fresh: dict[str, list[Alert]] = {}
        for alert in alerts:
            if alert.tenant_id not in self.tenants:
                continue
            if SEVERITY_RANK.get(alert.severity, -1) < self.min_rank:
                continue
            fresh.setdefault(alert.tenant_id, []).append(alert)
        transitions: list[dict] = []
        for tenant_id in sorted(self.tenants):
            tenant = self.tenants[tenant_id]
            new_alerts = fresh.get(tenant_id, [])
            decay_due = (tenant.decay_at is not None
                         and tick >= tenant.decay_at
                         and tenant.state != "NORMAL")
            if not new_alerts and not decay_due:
                continue
            if not self._guard_decision(tenant, tick):
                transitions.extend(tenant.transitions[-1:])
                continue
            made = self._decide(tenant, new_alerts, tick)
            transitions.extend(made)
        return transitions

    def _pull_alerts(self) -> "list[Alert]":
        obs = observability.active()
        if not obs.enabled or obs.detectors is None:
            return []
        stream = obs.detectors.alerts()
        fresh = stream[self._consumed_alerts:]
        self._consumed_alerts = len(stream)
        return fresh

    def _guard_decision(self, tenant: TenantDefenseState,
                        tick: int) -> bool:
        """Hit the ``fleet.policy`` fault point for one pending
        decision; ``False`` means the engine failed closed (the tenant
        is already quarantined).

        ``raise``/demoted-``kill`` faults are retried up to the
        budget; a retry-absorbed fault changes nothing downstream. A
        ``corrupt`` fault damages the serialized decision input — the
        engine detects the damage instead of acting on garbage. Both
        exhausted retries and corruption degrade to QUARANTINED: a
        crashed policy engine may only ever *withhold* reads.
        """
        key = stable_key(tenant.tenant_id) & 0xFFFF
        for attempt in range(POLICY_FAULT_RETRIES + 1):
            try:
                spec = resilience.check(
                    "fleet.policy", key=key,
                    attempt=self.fault_attempt_bias + attempt)
            except InjectedFault:
                self.policy_faults += 1
                registry = telemetry.metrics()
                if registry.enabled:
                    registry.counter("policy.faults").inc()
                continue
            if spec is not None and spec.mode == "corrupt":
                payload = json.dumps({"tenant": tenant.tenant_id,
                                      "state": tenant.state,
                                      "hits": tenant.hits})
                try:
                    json.loads(corrupt_text(payload, seed=self.seed,
                                            key=key))
                except json.JSONDecodeError:
                    self.policy_faults += 1
                    self._force_quarantine(tenant, tick,
                                           reason="policy-corrupt")
                    return False
            return True
        self._force_quarantine(tenant, tick, reason="policy-fault")
        return False

    def _decide(self, tenant: TenantDefenseState,
                new_alerts: "list[Alert]", tick: int) -> list[dict]:
        transitions: list[dict] = []
        if new_alerts:
            weight = sum(
                self.profile.critical_weight
                if alert.severity == "critical" else 1
                for alert in new_alerts)
            tenant.hits += weight
            tenant.alerts_seen += len(new_alerts)
            target = self.profile.target_state(tenant.hits)
            if STATE_RANK[target] > STATE_RANK[tenant.state]:
                transitions.append(self._transition(
                    tenant, target, tick,
                    reason=f"{len(new_alerts)} alert(s), weight "
                           f"{weight}, hits {tenant.hits}"))
            elif tenant.state != "NORMAL":
                # Hysteresis: activity at (or below) the current level
                # refreshes the hold instead of thrashing the ladder.
                tenant.decay_at = self._hold_until(tenant, tick)
            return transitions
        # Quiet past the hold: decay exactly one level.
        lower = DEFENSE_STATES[STATE_RANK[tenant.state] - 1]
        tenant.hits = self.profile.entry_hits(lower)
        transitions.append(self._transition(
            tenant, lower, tick, reason="cooldown"))
        return transitions

    def _hold_until(self, tenant: TenantDefenseState, tick: int) -> int:
        jitter = 0
        if self.profile.cooldown_jitter:
            jitter = int(self._rngs[tenant.tenant_id].integers(
                0, self.profile.cooldown_jitter + 1))
        return tick + self.profile.cooldown_ticks + jitter

    def _transition(self, tenant: TenantDefenseState, to_state: str,
                    tick: int, reason: str) -> dict:
        from_state = tenant.state
        tenant.state = to_state
        tenant.decay_at = (None if to_state == "NORMAL"
                           else self._hold_until(tenant, tick))
        self._apply_actions(tenant)
        record = {"tick": tick, "from": from_state, "to": to_state,
                  "reason": reason}
        tenant.transitions.append(record)
        registry = telemetry.metrics()
        if registry.enabled:
            registry.counter("policy.transitions").inc()
            if STATE_RANK[to_state] > STATE_RANK[from_state]:
                registry.counter("policy.escalations").inc()
            if to_state == "QUARANTINED":
                registry.counter("policy.quarantines").inc()
        self._sync_gauge(tenant)
        return record

    def _force_quarantine(self, tenant: TenantDefenseState, tick: int,
                          reason: str) -> None:
        """Fail closed: a faulted decision path degrades to the most
        restrictive mode, never the least."""
        tenant.fault_forced = True
        tenant.hits = max(tenant.hits, self.profile.quarantine_after)
        if tenant.state != "QUARANTINED":
            self._transition(tenant, "QUARANTINED", tick, reason=reason)
        else:
            tenant.decay_at = self._hold_until(tenant, tick)

    def _apply_actions(self, tenant: TenantDefenseState) -> None:
        """Reallocate ε and retag the noise plan for the new state."""
        factor = self.profile.epsilon_factor(tenant.state)
        self.ledger.reallocate(tenant.tenant_id,
                               self.base_epsilon * factor)
        # Tighter ε means a larger Laplace scale b = Δ/ε: factor f on ε
        # is 1/f on scale. The provisioner flushes the stale plan tail
        # and draws the next refill under the new (mode, scale).
        self.provisioner.set_profile(
            tenant.tenant_id, mode=self.profile.plan_mode(tenant.state),
            scale_factor=1.0 / factor)

    def _sync_gauge(self, tenant: TenantDefenseState) -> None:
        registry = telemetry.metrics()
        if registry.enabled:
            registry.gauge(
                f"policy.tenant.{tenant.tenant_id}.state").set(
                STATE_RANK[tenant.state])

    # -- introspection -------------------------------------------------

    def health_reasons(self) -> list[str]:
        """Fault-forced quarantines are degraded health (the engine
        itself crashed); alert-driven escalation is the plane working."""
        reasons = []
        for tenant_id in sorted(self.tenants):
            tenant = self.tenants[tenant_id]
            if tenant.fault_forced:
                reasons.append(
                    f"tenant {tenant_id}: policy decision path faulted "
                    f"past retries — failed closed to QUARANTINED")
        return reasons

    def snapshot(self) -> dict:
        """JSON-ready view for ``fleet status`` / the status file."""
        counts = {state: 0 for state in DEFENSE_STATES}
        for tenant in self.tenants.values():
            counts[tenant.state] += 1
        return {
            "profile": self.profile.to_dict(),
            "states": counts,
            "policy_faults": self.policy_faults,
            "tenants": {tenant_id: self.tenants[tenant_id].snapshot()
                        for tenant_id in sorted(self.tenants)},
        }


def profile_with(name: str, **overrides) -> EscalationProfile:
    """A named profile with field overrides (bench/test convenience)."""
    return replace(resolve_profile(name), **overrides)
