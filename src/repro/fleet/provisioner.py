"""Batched noise provisioning for a fleet of Event Obfuscators.

The paper's daemon precomputes Laplace draws because drawing at release
time is too slow; a fleet takes the same idea one level up. For the
Laplace mechanism the *entire injection plan* is value-independent:
noise draw, Dirichlet component mix, and per-component gadget
repetitions ``rint(clip(noise) · mix / counts_per_rep)`` depend only on
the RNG stream — never on the guest's HPC values. So the provisioner
precomputes, per tenant and in large vectorized batches, both the raw
draws (to back a stock daemon's calculator via its ``supplier`` hook)
and the finished per-component repetition plan (for the control
plane's batched serving path). Serving a slice then costs one matmul
row and an add.

Every tenant's sequence comes from one seeded RNG tree
(:func:`repro.utils.rng.derive_stream` with the tenant id as the spawn
key), with *separate* noise and mix child streams, which buys two
reproducibility guarantees:

- any tenant's sequence can be regenerated in isolation — no other
  tenant, and no particular admission order, needs to exist;
- the sequence is invariant to batch sizes: drawing 2×4096 or 1×8192
  consumes the streams identically.

Refills are watermark-driven and guarded by the ``fleet.provision``
fault point, checked *before* any stream is touched: a fault absorbed
by the bounded retry loop leaves every tenant's noise sequence
bit-identical to a fault-free run. When retries are exhausted the
provisioner fails closed with
:class:`~repro.core.obfuscator.noise.NoiseExhausted` — mirroring the
single-daemon refill contract — and admission turns that into
backpressure, never an un-noised read.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.obfuscator.dp import dstar_parent, laplace_sample
from repro.core.obfuscator.noise import NoiseExhausted
from repro.resilience import runtime as resilience
from repro.resilience.faults import InjectedFault
from repro.telemetry import runtime as telemetry
from repro.utils.rng import derive_stream

#: Modes a tenant's precomputed plan can be tagged with. ``laplace``
#: is the paper's per-slice mechanism; ``dstar`` serves the cumulative
#: d*-tree noise ``c[t] = c[parent(t)] + r_t`` — still value-independent
#: (the additive noise telescopes to a pure path-sum of tree draws), so
#: the escalated plan precomputes and replays exactly like the default.
PLAN_MODES = ("laplace", "dstar")

#: Default per-tenant buffer capacity (slices). Three paper windows.
DEFAULT_CAPACITY = 12288

#: Default refill watermark: top up once fewer slices remain.
DEFAULT_WATERMARK = 4096


class TenantNoiseBuffer:
    """One tenant's precomputed noise: raw draws + injection plan.

    Rows ``[cursor, fill)`` of ``noise`` (raw Laplace draws) and
    ``per_comp`` (per-component repetitions, ``(capacity, K)``) are
    live and correspond one-to-one; consumption advances the shared
    cursor so the supplier path and the batched serving path can never
    double-spend a draw.
    """

    def __init__(self, tenant_id: str, capacity: int, watermark: int,
                 num_components: int,
                 noise_rng: np.random.Generator,
                 mix_rng: np.random.Generator) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if not 0 <= watermark <= capacity:
            raise ValueError(
                f"watermark must be in [0, {capacity}], got {watermark}")
        self.tenant_id = tenant_id
        self.capacity = capacity
        self.watermark = watermark
        self.noise = np.empty(capacity)
        self.per_comp = np.empty((capacity, num_components))
        self.cursor = 0
        self.fill = 0
        self.refills = 0
        self.stalls = 0
        self.mode = "laplace"
        self.scale_factor = 1.0
        self.flushed_slices = 0
        self.dstar_t = 0
        # d* tree sums c[t], at most dstar_t.bit_length() + 1 of them.
        self._dstar_cum = {0: 0.0}
        self._noise_rng = noise_rng
        self._mix_rng = mix_rng

    def release(self) -> None:
        """Drop the array references."""
        self.noise = None
        self.per_comp = None

    @property
    def available(self) -> int:
        """Live precomputed slices."""
        return self.fill - self.cursor

    @property
    def below_watermark(self) -> bool:
        return self.available < self.watermark

    def compact(self) -> None:
        """Move the unconsumed tail to the front to make refill room."""
        if self.cursor == 0:
            return
        live = self.available
        if live:
            self.noise[:live] = self.noise[self.cursor:self.fill]
            self.per_comp[:live] = self.per_comp[self.cursor:self.fill]
        self.cursor = 0
        self.fill = live

    def consume(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of the next ``count`` plan rows and raw draws.

        The views alias buffer storage and stay valid until the next
        :meth:`compact` (i.e. the next refill) — callers use them
        within the serving tick, which is exactly their lifetime.
        """
        if count > self.available:
            raise NoiseExhausted(
                f"tenant {self.tenant_id!r} buffer has {self.available} "
                f"precomputed slices, needs {count}")
        lo = self.cursor
        self.cursor += count
        return (self.per_comp[lo:self.cursor], self.noise[lo:self.cursor])


class NoiseProvisioner:
    """Precomputes per-tenant noise buffers from one seeded RNG tree.

    Parameters
    ----------
    entropy:
        Root seed of the fleet's RNG tree.
    scale:
        Laplace scale b = Δ/ε of the mechanism being served.
    components:
        ``(K, NUM_SIGNALS)`` per-repetition gadget-group profiles.
    reference_weights:
        The reference event's catalog weight row; fixes the
        counts-per-repetition conversion, as in the stock injector.
    clip_bound:
        B_u applied to the noise counts before planning repetitions.

    Reshard invariance: ``entropy`` must be the *fleet root* seed, not
    anything shard-local. Tenant streams derive as ``(entropy, "noise"
    | "mix", tenant_id)``, so two provisioners on different shards —
    or one fleet resharded from 1 to 4 workers — produce bit-identical
    plans for the same tenant.
    """

    def __init__(self, entropy: int, scale: float,
                 components: np.ndarray, reference_weights: np.ndarray,
                 clip_bound: float = np.inf,
                 capacity: int = DEFAULT_CAPACITY,
                 watermark: int = DEFAULT_WATERMARK,
                 refill_retries: int = 4,
                 fault_attempt_bias: int = 0) -> None:
        if scale < 0:
            raise ValueError(f"scale must be non-negative, got {scale}")
        if refill_retries < 0:
            raise ValueError(
                f"refill_retries must be >= 0, got {refill_retries}")
        if fault_attempt_bias < 0:
            raise ValueError(
                f"fault_attempt_bias must be >= 0, got "
                f"{fault_attempt_bias}")
        components = np.asarray(components, dtype=np.float64)
        if components.ndim == 1:
            components = components[None, :]
        counts = components @ np.asarray(reference_weights,
                                         dtype=np.float64)
        if np.any(counts <= 0):
            raise ValueError(
                "a gadget component does not move the reference event")
        self.entropy = int(entropy)
        self.scale = float(scale)
        self.components = components
        self.clip_bound = float(clip_bound)
        self.capacity = capacity
        self.watermark = watermark
        self.refill_retries = refill_retries
        # A replacement shard worker passes its recovery generation so
        # replayed refill attempts land past fault budgets an earlier
        # generation already consumed (see FaultInjector.attempt_bias).
        self.fault_attempt_bias = int(fault_attempt_bias)
        self._inv_counts = 1.0 / counts
        self.buffers: dict[str, TenantNoiseBuffer] = {}

    @property
    def num_components(self) -> int:
        return len(self.components)

    # -- tenant lifecycle ---------------------------------------------

    def create_buffer(self, tenant_id: str) -> TenantNoiseBuffer:
        """Allocate tenant ``tenant_id``'s buffer (streams derived,
        nothing drawn yet)."""
        if tenant_id in self.buffers:
            raise ValueError(
                f"tenant {tenant_id!r} already has a noise buffer")
        buffer = TenantNoiseBuffer(
            tenant_id, self.capacity, self.watermark,
            self.num_components,
            noise_rng=derive_stream(self.entropy, "noise", tenant_id),
            mix_rng=derive_stream(self.entropy, "mix", tenant_id))
        self.buffers[tenant_id] = buffer
        return buffer

    def close(self) -> None:
        """Release every buffer. Idempotent."""
        for buffer in self.buffers.values():
            buffer.release()
        self.buffers.clear()

    def buffer(self, tenant_id: str) -> TenantNoiseBuffer:
        try:
            return self.buffers[tenant_id]
        except KeyError as exc:
            raise KeyError(f"no noise buffer for tenant "
                           f"{tenant_id!r}") from exc

    # -- plan profile (defense-plane escalation) -----------------------

    def set_profile(self, tenant_id: str, mode: str = "laplace",
                    scale_factor: float = 1.0) -> int:
        """Retag one tenant's plan ``(mode, scale factor)``; returns
        the live slices flushed.

        The defense plane's noise action. An unchanged profile is a
        no-op. A change flushes the unconsumed precomputed tail —
        those rows were drawn under the old profile and serving them
        would leak the weaker guarantee — so the next refill draws
        under the new one. ``scale_factor`` multiplies the Laplace
        scale b = Δ/ε: a tenant reallocated to ε·f serves at factor
        1/f ≥ 1 (escalation only ever adds noise). Entering ``dstar``
        restarts the tenant's d* tree at t=0: each escalation episode
        is a fresh, deterministic cumulative sequence.
        """
        if mode not in PLAN_MODES:
            raise ValueError(f"mode must be one of {PLAN_MODES}, got "
                             f"{mode!r}")
        if scale_factor < 1.0:
            raise ValueError(
                f"scale_factor must be >= 1.0 (escalation only adds "
                f"noise), got {scale_factor:g}")
        buffer = self.buffer(tenant_id)
        if mode == buffer.mode and scale_factor == buffer.scale_factor:
            return 0
        flushed = buffer.available
        buffer.cursor = buffer.fill
        buffer.flushed_slices += flushed
        if mode == "dstar" and buffer.mode != "dstar":
            buffer.dstar_t = 0
            buffer._dstar_cum = {0: 0.0}
        buffer.mode = mode
        buffer.scale_factor = float(scale_factor)
        registry = telemetry.metrics()
        if registry.enabled:
            registry.counter("fleet.plan_retags").inc()
            if flushed:
                registry.counter("fleet.flushed_slices").inc(flushed)
        return flushed

    # -- refill --------------------------------------------------------

    def refill(self, buffer: TenantNoiseBuffer) -> int:
        """Top ``buffer`` up to capacity; returns slices provisioned.

        The ``fleet.provision`` fault point is consulted *before* the
        RNG streams are touched, so a retry-absorbed fault leaves the
        tenant's sequence bit-identical; exhausted retries fail closed
        with :class:`NoiseExhausted` after recording the stall.
        """
        need = buffer.capacity - buffer.available
        if need <= 0:
            return 0
        buffer.compact()
        last_fault: "InjectedFault | None" = None
        with telemetry.tracer().span("fleet.provision",
                                     tenant=buffer.tenant_id,
                                     slices=need):
            for attempt in range(self.refill_retries + 1):
                try:
                    resilience.check(
                        "fleet.provision", key=buffer.refills,
                        attempt=self.fault_attempt_bias + attempt)
                except InjectedFault as exc:
                    last_fault = exc
                    buffer.stalls += 1
                    telemetry.metrics().counter(
                        "fleet.provision_stalls").inc()
                    continue
                self._draw_into(buffer, need)
                buffer.refills += 1
                registry = telemetry.metrics()
                if registry.enabled:
                    registry.counter("fleet.refills").inc()
                    registry.counter("fleet.provisioned_slices").inc(need)
                return need
        raise NoiseExhausted(
            f"provisioning for tenant {buffer.tenant_id!r} failed "
            f"{self.refill_retries + 1} times; buffer stays at "
            f"{buffer.available} slices (fail closed)") from last_fault

    def _draw_into(self, buffer: TenantNoiseBuffer, count: int) -> None:
        """Draw ``count`` slices of noise + finished injection plan.

        Consumes exactly ``count`` draws from each stream in row-major
        order, which is what makes the sequence independent of how
        refills are batched. Both plan modes consume exactly one noise
        draw per slice, so mode history never desynchronizes the
        stream: in ``laplace`` mode the draw *is* the slice's noise
        (at the profile-scaled b); in ``dstar`` mode unit-scale draws
        become the tree residuals r_t and each slice serves the
        cumulative path-sum ``c[t] = c[parent(t)] + r_t`` at the
        slice-dependent d* scale.
        """
        lo = buffer.fill
        hi = lo + count
        if buffer.mode == "dstar":
            unit = np.asarray(laplace_sample(1.0, buffer._noise_rng,
                                             size=count))
            base_scale = self.scale * buffer.scale_factor
            draws = np.empty(count)
            cum = buffer._dstar_cum
            for i in range(count):
                t = buffer.dstar_t + 1 + i
                mult = 1.0 if t == (t & -t) else float(
                    math.floor(math.log2(t)))
                cum[t] = cum[dstar_parent(t)] + \
                    unit[i] * base_scale * mult
                draws[i] = cum[t]
            buffer.dstar_t += count
            # Every later slice's parent is 0 or dstar_t with its lowest
            # set bits cleared one at a time: keep only those entries,
            # so the tree holds O(log t) sums instead of one per slice.
            t = buffer.dstar_t
            kept = {0: 0.0}
            while t:
                kept[t] = cum[t]
                t &= t - 1
            buffer._dstar_cum = kept
        else:
            draws = np.asarray(laplace_sample(
                self.scale * buffer.scale_factor, buffer._noise_rng,
                size=count))
        buffer.noise[lo:hi] = draws
        k = self.num_components
        plan = buffer.per_comp[lo:hi]
        if k == 1:
            mix = np.ones((count, 1))
        else:
            # Dirichlet(1, ..., 1) via normalized exponentials, drawn
            # from the dedicated mix stream so plan shapes never
            # perturb the noise draws.
            mix = buffer._mix_rng.standard_exponential((count, k))
            mix /= mix.sum(axis=1, keepdims=True)
        np.multiply(mix, self._inv_counts, out=plan)
        clipped = np.clip(draws, 0.0, self.clip_bound)
        np.multiply(plan, clipped[:, None], out=plan)
        np.rint(plan, out=plan)
        buffer.fill = hi

    # -- consumption ---------------------------------------------------

    def take(self, tenant_id: str,
             count: int) -> tuple[np.ndarray, np.ndarray]:
        """``count`` (plan rows, raw draws) for one tenant, refilling
        on demand; raises :class:`NoiseExhausted` when refill fails."""
        buffer = self.buffer(tenant_id)
        if count > buffer.available:
            if count > buffer.capacity:
                raise ValueError(
                    f"window of {count} slices exceeds the buffer "
                    f"capacity {buffer.capacity}")
            self.refill(buffer)
        return buffer.consume(count)

    def supplier(self, tenant_id: str):
        """A ``supplier(count) -> ndarray`` backing a stock daemon.

        Hands out copies of the tenant's raw draws so a
        :class:`~repro.core.obfuscator.noise.NoiseCalculator` can own
        its buffer; the shared cursor still advances, keeping the
        supplier and plan paths mutually exclusive per draw.
        """
        def pull(count: int) -> np.ndarray:
            _, noise = self.take(tenant_id, count)
            return noise.copy()
        return pull

    def top_up(self, only: "list[str] | None" = None) -> int:
        """Refill buffers below their watermark; returns slices
        provisioned. ``only`` restricts the sweep to the named tenants
        (the event-driven scheduler passes the tick's due set so the
        cost is O(due), not O(fleet)); ``None`` sweeps everyone.
        Tenants are visited in sorted order so the schedule is
        deterministic.

        Best-effort: a tenant whose refill stays stalled past its
        retries is skipped (the stall is already counted) — the next
        serving attempt fails closed at admission as backpressure.
        A wedged provisioner must never take the scheduler down with
        it."""
        tenant_ids = sorted(self.buffers) if only is None \
            else sorted(set(only) & self.buffers.keys())
        provisioned = 0
        for tenant_id in tenant_ids:
            buffer = self.buffers[tenant_id]
            if buffer.below_watermark:
                try:
                    provisioned += self.refill(buffer)
                except NoiseExhausted:
                    continue
        return provisioned
