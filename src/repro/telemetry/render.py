"""Render a merged telemetry run as a terminal report.

Reuses the benchmark suite's ASCII chart helpers: stage timings as a
bar chart, shard load balance as a sparkline plus imbalance ratio, and
the ε-ledger's composed guarantee as a closing statement.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.ascii_chart import bar_chart, sparkline
from repro.telemetry.aggregate import RunTelemetry, load_run
from repro.telemetry.metrics import slo_readouts


def _fmt_seconds(seconds: float) -> float:
    return round(seconds, 4)


def render_run(run: RunTelemetry) -> str:
    """The full text report for one merged run."""
    lines: list[str] = ["# Aegis run telemetry", ""]

    stages = run.stage_seconds()
    if stages:
        lines.append("## Stage timings (wall seconds)")
        lines.append(bar_chart(
            [(name, _fmt_seconds(seconds))
             for name, seconds in stages.items()], unit="s"))
        lines.append("")

    shard_seconds = run.shard_seconds()
    if shard_seconds:
        total = sum(shard_seconds)
        mean = total / len(shard_seconds)
        peak = max(shard_seconds)
        balance = peak / mean if mean > 0 else 1.0
        lines.append("## Shard balance")
        lines.append(f"{len(shard_seconds)} shards, "
                     f"{total:.2f}s total screening work")
        lines.append(f"per-shard seconds: {sparkline(shard_seconds)} "
                     f"(mean {mean:.3f}s, max {peak:.3f}s, "
                     f"imbalance {balance:.2f}x)")
        lines.append("")

    counters = run.metrics.get("counters", {})
    faults = {name: value for name, value in counters.items()
              if name.startswith(("fault.", "retry.", "checkpoint.",
                                  "daemon.", "kernel.restarts"))}
    stalled = counters.get("privacy.stalled_slices", 0)
    if faults or stalled:
        lines.append("## Resilience")
        injected = faults.get("fault.injected", 0)
        if injected:
            points = ", ".join(
                f"{name.removeprefix('fault.')} x{value:,.0f}"
                for name, value in sorted(faults.items())
                if name.startswith("fault.") and name != "fault.injected"
                and name != "fault.quarantined")
            lines.append(f"{injected:,.0f} faults injected"
                         + (f" ({points})" if points else ""))
        retries = faults.get("retry.shards", 0)
        if retries:
            lines.append(
                f"{retries:,.0f} shard retries "
                f"({faults.get('retry.shard_failures', 0):,.0f} failures, "
                f"{faults.get('retry.bisections', 0):,.0f} bisections, "
                f"{faults.get('retry.pool_restarts', 0):,.0f} workers "
                f"replaced)")
        quarantined = faults.get("fault.quarantined", 0)
        if quarantined:
            lines.append(f"{quarantined:,.0f} gadgets quarantined")
        rollbacks = faults.get("checkpoint.rollbacks", 0)
        if rollbacks:
            lines.append(f"{rollbacks:,.0f} checkpoint rollbacks to the "
                         f"previous generation")
        stalls = faults.get("daemon.noise_stalls", 0)
        if stalls or stalled:
            lines.append(f"noise refill stalls: {stalls:,.0f}; "
                         f"slices withheld fail-closed: {stalled:,.0f} "
                         f"(zero un-noised values released)")
        restarts = faults.get("kernel.restarts", 0)
        if restarts:
            lines.append(f"kernel module restarts: {restarts:,.0f}")
        lines.append("")

    slo = slo_readouts(run.metrics.get("histograms", {}))
    alerts = counters.get("obs.alerts", 0)
    if slo or alerts:
        lines.append("## Observability")
        for operation, readout in slo.items():
            lines.append(
                f"{operation}: "
                f"p50 {readout['p50'] * 1e3:.3f}ms, "
                f"p95 {readout['p95'] * 1e3:.3f}ms, "
                f"p99 {readout['p99'] * 1e3:.3f}ms "
                f"over {readout['count']:,d} observations")
        if alerts:
            per_detector = ", ".join(
                f"{name.removeprefix('obs.alert.')} x{value:,.0f}"
                for name, value in sorted(counters.items())
                if name.startswith("obs.alert."))
            lines.append(f"attack-signal alerts: {alerts:,.0f}"
                         + (f" ({per_detector})" if per_detector else ""))
        lines.append("")

    interesting = {name: value for name, value in counters.items()
                   if not name.startswith(("privacy.", "obs."))}
    if interesting:
        lines.append("## Counters")
        width = max(len(name) for name in interesting)
        for name in sorted(interesting):
            lines.append(f"{name:<{width}s} {interesting[name]:,.0f}")
        lines.append("")

    epsilon = run.epsilon()
    if epsilon["slices_released"] == 0 \
            and epsilon["per_slice_epsilon"] > 0:
        lines.append("## Privacy budget (ε-ledger)")
        lines.append(
            f"obfuscator armed at eps={epsilon['per_slice_epsilon']:g} "
            f"per slice; no slices released yet (budget untouched)")
        lines.append("")
    elif epsilon["slices_released"] > 0:
        lines.append("## Privacy budget (ε-ledger)")
        lines.append(
            f"released {epsilon['slices_released']:,.0f} slices over "
            f"{epsilon['windows']:,.0f} windows at "
            f"eps={epsilon['per_slice_epsilon']:g} per slice")
        tightest = min(epsilon["epsilon_basic"],
                       epsilon["epsilon_advanced"])
        bound = ("advanced" if tightest == epsilon["epsilon_advanced"]
                 else "basic")
        lines.append(
            f"composed guarantee: basic {epsilon['epsilon_basic']:.4g}, "
            f"advanced {epsilon['epsilon_advanced']:.4g} -> "
            f"eps_spent {tightest:.4g} via {bound} composition")
        lines.append("")

    if len(lines) == 2:
        lines.append("(no telemetry recorded)")
    return "\n".join(lines).rstrip() + "\n"


def render_trace_dir(trace_dir: "str | Path") -> str:
    """Load (or merge) ``trace_dir`` and render the report."""
    return render_run(load_run(Path(trace_dir)))
