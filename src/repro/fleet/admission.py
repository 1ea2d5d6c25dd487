"""Admission control: quota and backpressure before a window is served.

Every serving request passes through here first. The controller answers
one question — *may this window be released?* — and fails closed on
every path:

- **Budget**: a window that would push the tenant's composed ε past its
  quota is rejected permanently (``budget-exhausted``), mirroring
  :class:`~repro.core.obfuscator.budget.BudgetExhausted`. The check
  uses the quota projection, so the rejected window spends nothing.
- **Backpressure**: a window larger than the tenant's live precomputed
  noise triggers an on-demand refill; if provisioning is stalled
  (``fleet.provision`` faults past the retry budget) the window is
  rejected as retryable — the caller may re-submit once the
  provisioner recovers. No partial windows, ever.
- **Faults**: the ``fleet.admit`` point models a wedged admission
  service itself; an injected fault rejects the window (retryable)
  rather than letting it bypass the checks, and is counted per tenant
  in ``faulted_windows`` so fleet health can name it.
- **Quarantine**: with a defense policy armed
  (:class:`~repro.fleet.policy.DefensePolicyEngine`), a tenant the
  policy holds in QUARANTINED is denied outright (``quarantined``,
  retryable once it de-escalates); the withheld window is counted
  under ``privacy.stalled_slices`` and spends nothing.

A rejected window consumes *no* noise draws and *no* budget, so
rejection is invisible to every other tenant's sequence — the property
the tenant-isolation tests pin down bit-for-bit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.core.obfuscator.noise import NoiseExhausted
from repro.fleet.ledger import FleetLedger
from repro.fleet.provisioner import NoiseProvisioner
from repro.resilience import runtime as resilience
from repro.resilience.faults import InjectedFault, stable_key
from repro.telemetry import runtime as telemetry


@dataclass(frozen=True)
class AdmissionDecision:
    """The controller's answer for one window."""

    tenant_id: str
    slices: int
    admitted: bool
    reason: str
    retryable: bool = False

    def __bool__(self) -> bool:
        return self.admitted


class AdmissionController:
    """Gates windows on per-tenant ε-quota and noise availability."""

    def __init__(self, ledger: FleetLedger,
                 provisioner: NoiseProvisioner,
                 policy=None) -> None:
        self.ledger = ledger
        self.provisioner = provisioner
        self.policy = policy
        self.admitted_windows = 0
        self.rejected_windows = 0
        self.faulted_windows: Counter[str] = Counter()

    def admit(self, tenant_id: str, slices: int) -> AdmissionDecision:
        """Decide one window. Never raises for policy outcomes —
        callers branch on the decision; infrastructure bugs (unknown
        tenant, oversized window) still raise."""
        if slices < 1:
            raise ValueError(f"slices must be >= 1, got {slices}")
        accountant = self.ledger.accountant(tenant_id)
        try:
            resilience.check("fleet.admit",
                             key=stable_key(tenant_id) & 0xFFFF)
        except InjectedFault:
            self.faulted_windows[tenant_id] += 1
            return self._reject(tenant_id, slices, "admission-fault",
                                retryable=True)
        if self.policy is not None:
            denial = self.policy.deny_reason(tenant_id)
            if denial is not None:
                self.ledger.record_stall(tenant_id, slices)
                return self._reject(tenant_id, slices, denial,
                                    retryable=True)
        if accountant.would_exceed(slices):
            return self._reject(tenant_id, slices, "budget-exhausted",
                                retryable=False)
        buffer = self.provisioner.buffer(tenant_id)
        if slices > buffer.available:
            try:
                self.provisioner.refill(buffer)
            except NoiseExhausted:
                self.ledger.record_stall(tenant_id, slices)
                return self._reject(tenant_id, slices, "backpressure",
                                    retryable=True)
            if slices > buffer.available:
                self.ledger.record_stall(tenant_id, slices)
                return self._reject(tenant_id, slices, "backpressure",
                                    retryable=True)
        self.admitted_windows += 1
        return AdmissionDecision(tenant_id=tenant_id, slices=slices,
                                 admitted=True, reason="ok")

    def _reject(self, tenant_id: str, slices: int, reason: str,
                retryable: bool) -> AdmissionDecision:
        self.rejected_windows += 1
        self.ledger.record_rejection(tenant_id)
        registry = telemetry.metrics()
        if registry.enabled:
            registry.counter("fleet.rejected_windows").inc()
            registry.counter(f"fleet.rejected.{reason}").inc()
        return AdmissionDecision(tenant_id=tenant_id, slices=slices,
                                 admitted=False, reason=reason,
                                 retryable=retryable)
