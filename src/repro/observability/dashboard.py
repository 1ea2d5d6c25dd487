"""Terminal dashboards: fleet status frames and ``repro top``.

Pure functions from snapshots to text, so the ``--watch`` loop and the
tests share one renderer and a frame is reproducible from its inputs.
"""

from __future__ import annotations

from repro.analysis.ascii_chart import bar_chart
from repro.telemetry.metrics import slo_readouts

#: Counter namespaces the ``top`` panel hides (rendered elsewhere).
_TOP_HIDDEN_PREFIXES = ("privacy.", "obs.alert")


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}ms"


def _slo_lines(slo: dict) -> list[str]:
    lines = []
    width = max((len(name) for name in slo), default=0)
    for name in sorted(slo):
        readout = slo[name]
        lines.append(
            f"{name:<{width}s}  p50 {_fmt_ms(readout['p50'])}  "
            f"p95 {_fmt_ms(readout['p95'])}  "
            f"p99 {_fmt_ms(readout['p99'])}  "
            f"(n={readout['count']})")
    return lines


def _alert_lines(alerts: list, limit: int = 5) -> list[str]:
    lines = []
    for alert in alerts[:limit]:
        lines.append(
            f"[{alert['severity']:>8s}] #{alert['seq']} "
            f"{alert['detector']} tenant={alert['tenant_id']} "
            f"score={alert['score']:.6g} — {alert['detail']}")
    if len(alerts) > limit:
        lines.append(f"... {len(alerts) - limit} more")
    return lines


def render_status_frame(status: dict,
                        frame: "int | None" = None) -> str:
    """One ``fleet status`` frame from a control-plane snapshot."""
    title = f"# Fleet status — tick {status.get('ticks', 0)}"
    if frame is not None:
        title += f" (frame {frame})"
    lines = [title]
    health = status.get("health")
    summary = (f"windows: {status.get('admitted_windows', 0)} admitted, "
               f"{status.get('rejected_windows', 0)} rejected")
    if health is not None:
        summary += " | health: " + ("OK" if health.get("healthy")
                                    else "DEGRADED")
    lines.append(summary)
    if health is not None:
        for reason in health.get("reasons", []):
            lines.append(f"  !! {reason}")
    tenants = status.get("tenants", {})
    if tenants:
        rows = [("tenant", "workload", "buffer", "windows", "slices",
                 "hpc", "stalls")]
        for tenant_id in sorted(tenants):
            tenant = tenants[tenant_id]
            rows.append((
                tenant_id, tenant["workload"],
                f"{tenant['buffer_available']}/{tenant['buffer_capacity']}",
                str(tenant["windows_served"]),
                str(tenant["slices_served"]),
                str(tenant["hpc_reads"]),
                str(tenant["provision_stalls"])))
        widths = [max(len(row[i]) for row in rows)
                  for i in range(len(rows[0]))]
        lines.append("")
        for row in rows:
            lines.append("  ".join(cell.ljust(width)
                                   for cell, width in zip(row, widths))
                         .rstrip())
    observability = status.get("observability")
    if observability is not None:
        slo = observability.get("slo", {})
        if slo:
            lines.append("")
            lines.append("## SLO latency")
            lines.extend(_slo_lines(slo))
        alerts = observability.get("alerts", [])
        lines.append("")
        lines.append(f"## Alerts ({len(alerts)})")
        if alerts:
            lines.extend(_alert_lines(alerts))
        else:
            lines.append("(none)")
    defense = status.get("defense")
    if defense is not None:
        states = defense.get("states", {})
        lines.append("")
        lines.append("## Defense ("
                     + defense.get("profile", {}).get("name", "?") + ")")
        lines.append("  ".join(f"{state}={count}"
                               for state, count in states.items())
                     + f"  faults={defense.get('policy_faults', 0)}")
        for tenant_id, row in sorted(defense.get("tenants", {}).items()):
            if row["state"] == "NORMAL" and not row["transitions"]:
                continue
            lines.append(
                f"[{row['state']:>11s}] {tenant_id} "
                f"alerts={row['alerts_seen']} "
                f"transitions={len(row['transitions'])} "
                f"quarantined={row['quarantined_windows']}"
                + (" FAULT-FORCED" if row.get("fault_forced") else ""))
    return "\n".join(lines).rstrip() + "\n"


def render_top(snapshot: dict, alerts: "list[dict] | None" = None,
               profile: "list[dict] | None" = None,
               top: int = 8) -> str:
    """A ``repro top`` frame from a metrics snapshot.

    SLO quantiles come from the merged ``slo.*.seconds`` histograms
    (the readout ``fleet status`` shows, so the panel works across
    process boundaries), the busiest-counter chart from everything not
    already shown elsewhere.
    """
    lines = ["# repro top"]
    slo = slo_readouts(snapshot.get("histograms", {}))
    if slo:
        lines.append("")
        lines.append("## SLO latency")
        lines.extend(_slo_lines(slo))
    counters = {name: value
                for name, value in snapshot.get("counters", {}).items()
                if not name.startswith(_TOP_HIDDEN_PREFIXES) and value}
    if counters:
        busiest = sorted(counters.items(),
                         key=lambda item: (-item[1], item[0]))[:top]
        lines.append("")
        lines.append("## Busiest counters")
        lines.append(bar_chart([(name, value)
                                for name, value in busiest]))
    alert_count = snapshot.get("counters", {}).get("obs.alerts", 0)
    if alert_count or alerts:
        lines.append("")
        lines.append(f"## Alerts ({int(alert_count or len(alerts))})")
        if alerts:
            lines.extend(_alert_lines(alerts))
    if profile:
        lines.append("")
        lines.append("## Profile (sampled)")
        width = max(len(entry["span"]) for entry in profile)
        for entry in profile:
            lines.append(f"{entry['span']:<{width}s}  "
                         f"{entry['site']}  x{entry['samples']}")
    if len(lines) == 1:
        lines.append("(no metrics recorded)")
    return "\n".join(lines).rstrip() + "\n"
