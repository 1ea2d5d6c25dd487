"""The honest-but-curious hypervisor.

It follows the service agreement (launches guests, reports correct
register values) but exploits every observation channel it legitimately
has. With SEV enabled it cannot read guest memory or registers — but it
*can* read the HPC registers mapped to a victim vCPU, which is the whole
attack surface of the paper.
"""

from __future__ import annotations

import numpy as np

from repro.cpu.signals import Signal, zero_signals
from repro.utils.rng import ensure_rng, spawn_rng
from repro.vm.guest import GuestVM
from repro.vm.sev import AttestationReport, SevPolicy, launch_measurement


class GuestMemoryProtectedError(PermissionError):
    """Raised when the host tries to read plaintext from an SEV guest."""


class Hypervisor:
    """Host-side virtual machine monitor.

    Parameters
    ----------
    processor_model:
        The physical processor model (and thus HPC event catalog).
    host_load:
        Scale of background host activity (other tenants, kernel work);
        contributes to unfiltered HPC measurements.
    """

    def __init__(self, processor_model: str = "amd-epyc-7252",
                 host_load: float = 1.0,
                 rng: "int | np.random.Generator | None" = None) -> None:
        root = ensure_rng(rng)
        self._guest_rng, self._noise_rng = spawn_rng(root, 2)
        self.processor_model = processor_model
        self.host_load = float(host_load)
        self.guests: dict[str, GuestVM] = {}
        self._read_tap = None

    # -- lifecycle ----------------------------------------------------

    def launch_guest(self, name: str, num_vcpus: int = 4,
                     memory_mb: int = 8192,
                     policy: SevPolicy | None = None) -> GuestVM:
        """Launch an encrypted guest on this host."""
        if name in self.guests:
            raise ValueError(f"guest {name!r} already running")
        guest = GuestVM(name, processor_model=self.processor_model,
                        num_vcpus=num_vcpus, memory_mb=memory_mb,
                        policy=policy,
                        rng=np.random.default_rng(
                            int(self._guest_rng.integers(2**63))))
        self.guests[name] = guest
        return guest

    def attest(self, guest_name: str) -> AttestationReport:
        """Produce the PSP attestation report for a running guest."""
        guest = self._guest(guest_name)
        return AttestationReport(
            guest_name=guest.name,
            processor_model=self.processor_model,
            policy=guest.policy,
            measurement=launch_measurement(guest.name, self.processor_model,
                                           guest.policy),
        )

    def _guest(self, name: str) -> GuestVM:
        try:
            return self.guests[name]
        except KeyError as exc:
            raise KeyError(f"no such guest {name!r}") from exc

    # -- what SEV blocks ----------------------------------------------

    def read_guest_memory(self, guest_name: str, address: int) -> bytes:
        """Attempt to read guest memory; SEV yields only ciphertext."""
        guest = self._guest(guest_name)
        raise GuestMemoryProtectedError(
            f"guest {guest.name!r} memory is SEV-encrypted; mapping "
            f"{address:#x} yields ciphertext only "
            f"(use read_guest_memory_ciphertext)")

    def read_guest_memory_ciphertext(self, guest_name: str,
                                     address: int) -> bytes:
        """The ciphertext view the host actually gets."""
        return self._guest(guest_name).read_memory_ciphertext(address)

    def read_guest_registers(self, guest_name: str, vcpu_index: int) -> dict:
        """Attempt to read vCPU register state (blocked by SEV-ES+)."""
        guest = self._guest(guest_name)
        if guest.policy.registers_encrypted:
            raise GuestMemoryProtectedError(
                f"guest {guest.name!r} runs {guest.policy.version.value}: "
                "vCPU register state is encrypted on world switches")
        return {"rip": 0, "rsp": 0}  # legacy SEV would leak these

    # -- what SEV does NOT block: the HPC side channel ------------------

    def install_read_tap(self, tap) -> None:
        """Observe every HPC read: ``tap(guest, vcpu, slot, at)``.

        The tap sees exactly what the read path sees — which guest,
        which register, and the caller-supplied logical timestamp — and
        never the counter value, so an observer cannot become a second
        side channel. One tap at a time; ``None`` uninstalls.
        """
        self._read_tap = tap

    def read_vcpu_hpc(self, guest_name: str, vcpu_index: int,
                      slot: int, at: "float | None" = None) -> int:
        """Read an HPC register mapped to a victim vCPU.

        This is the leak: HPC registers are shared hardware outside the
        SEV protection boundary, so the host reads them freely.
        ``at`` is an optional logical timestamp forwarded to the read
        tap (defense-side observability); it does not affect the value.
        """
        guest = self._guest(guest_name)
        if not 0 <= vcpu_index < len(guest.vcpus):
            raise IndexError(f"vcpu_index {vcpu_index} out of range")
        value = guest.vcpus[vcpu_index].core.hpc.rdpmc(slot)
        if self._read_tap is not None:
            self._read_tap(guest_name, vcpu_index, slot, at)
        return value

    def program_vcpu_hpc(self, guest_name: str, vcpu_index: int, slot: int,
                         event: "int | str") -> None:
        """Program an HPC register for a victim vCPU from the host side."""
        guest = self._guest(guest_name)
        guest.vcpus[vcpu_index].core.hpc.program(slot, event)

    # -- host background activity ---------------------------------------

    def host_background_signals(self, duration_s: float) -> np.ndarray:
        """Signals generated by the host kernel and co-tenants.

        These pollute HPC measurements taken *without* pid filtering and
        drive the tracepoint/software events of the catalog.
        """
        if duration_s < 0:
            raise ValueError(f"duration_s must be non-negative, got {duration_s}")
        rng = self._noise_rng
        scale = self.host_load * duration_s
        signals = zero_signals()
        signals[Signal.SYSCALLS] = rng.poisson(4000 * scale)
        signals[Signal.IO_OPS] = rng.poisson(800 * scale)
        signals[Signal.CONTEXT_SWITCHES] = rng.poisson(1000 * scale)
        signals[Signal.INTERRUPTS] = rng.poisson(950 * scale)
        signals[Signal.PAGE_FAULTS] = rng.poisson(120 * scale)
        signals[Signal.INSTRUCTIONS] = rng.poisson(2_000_000 * scale)
        signals[Signal.UOPS] = signals[Signal.INSTRUCTIONS] * 1.7
        signals[Signal.CYCLES] = signals[Signal.INSTRUCTIONS] * 1.1
        signals[Signal.LOADS] = signals[Signal.INSTRUCTIONS] * 0.28
        signals[Signal.STORES] = signals[Signal.INSTRUCTIONS] * 0.12
        signals[Signal.L1D_ACCESS] = signals[Signal.LOADS] + signals[Signal.STORES]
        signals[Signal.L1D_MISS] = signals[Signal.L1D_ACCESS] * 0.03
        signals[Signal.BRANCHES] = signals[Signal.INSTRUCTIONS] * 0.18
        signals[Signal.BRANCH_MISS] = signals[Signal.BRANCHES] * 0.02
        return signals
