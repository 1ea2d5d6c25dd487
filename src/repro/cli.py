"""Command-line interface: the Aegis workflow end to end.

Subcommands mirror the paper's workflow::

    repro-aegis profile --workload website          # offline stage 1
    repro-aegis fuzz --budget 2000                  # offline stage 2
    repro-aegis fuzz --strategy coverage --corpus-dir corpus/
    repro-aegis search --budget 4000 --digest-out digests.json
    repro-aegis deploy --epsilon 0.5 -o aegis.json  # full offline pipeline
    repro-aegis attack --attack wfa                 # undefended attack
    repro-aegis attack --attack wfa --artifact aegis.json  # defended
    repro-aegis deploy --workers 4 --trace-dir out/ # traced pipeline
    repro-aegis report --trace out/                 # render the telemetry

Every command accepts ``--seed`` for reproducibility; human-readable
summaries go through the ``repro`` logger to stdout (``-v`` for
shard-level progress, ``-q`` to silence summaries). ``--trace-dir``
exports a merged span trace + metrics snapshot; ``--metrics`` logs the
metrics snapshot after the command. ``fuzz``/``deploy`` accept
``--cache-dir``, a shard store shared across runs: a re-run of the same
campaign screens nothing and reports bit for bit the same.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import sys

import numpy as np

from repro.utils.logging import configure_cli_logging

# Named explicitly (not __name__) so summaries still route through the
# "repro" logger tree when invoked as ``python -m repro.cli``.
logger = logging.getLogger("repro.cli")


def _say(message: str) -> None:
    """A user-facing summary line (suppressed by ``-q``)."""
    logger.info(message)


def _build_workload(name: str):
    from repro.workloads import DnnWorkload, KeystrokeWorkload, WebsiteWorkload
    workloads = {
        "website": WebsiteWorkload,
        "keystroke": KeystrokeWorkload,
        "dnn": DnnWorkload,
    }
    try:
        return workloads[name]()
    except KeyError as exc:
        raise SystemExit(
            f"unknown workload {name!r}; choose from {sorted(workloads)}"
        ) from exc


def _add_logging(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="debug logging (shard-level progress)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress summaries; warnings only")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0,
                        help="root RNG seed (default 0)")
    parser.add_argument("--processor", default="amd-epyc-7252",
                        help="processor model (default amd-epyc-7252)")
    _add_logging(parser)


def _add_telemetry_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-dir", default="",
                        help="directory for span traces + metrics "
                             "snapshots (merged into trace.jsonl / "
                             "metrics.json after the run)")
    parser.add_argument("--metrics", action="store_true",
                        help="log the metrics snapshot after the command")


def _add_obs_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--obs", action="store_true",
                        help="enable the observability plane (SLO "
                             "latency windows + attack-signal "
                             "detectors)")
    parser.add_argument("--obs-dir", default="",
                        help="directory for observability exports: "
                             "metrics-snapshots.jsonl (sequence-"
                             "numbered) and metrics.om (OpenMetrics); "
                             "implies --obs")
    parser.add_argument("--obs-profile", action="store_true",
                        help="also run the span-attributed sampling "
                             "profiler (opt-in; requires --obs)")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {value}")
    return value


def _add_campaign_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=_positive_int, default=1,
                        help="worker processes for shard screening "
                             "(default 1; results are identical for "
                             "any worker count)")
    parser.add_argument("--shard-size", type=_positive_int, default=None,
                        help="gadgets per screening shard (default "
                             f"{_default_shard_size()})")
    parser.add_argument("--checkpoint-dir", default="",
                        help="directory for per-shard JSON checkpoints")
    parser.add_argument("--resume", action="store_true",
                        help="resume from --checkpoint-dir instead of "
                             "re-screening completed shards")
    parser.add_argument("--cache-dir", default="",
                        help="shard store shared across runs: reuses "
                             "every screened shard of the same "
                             "configuration and shard size, so a re-run "
                             "or a larger budget screens only new "
                             "shards (conflicts with --checkpoint-dir)")
    parser.add_argument("--shard-timeout", type=_positive_float,
                        default=None, metavar="SECONDS",
                        help="per-shard wall-clock budget; a blown "
                             "deadline is retried like a failure "
                             "(default: no timeout)")
    parser.add_argument("--max-retries", type=_nonnegative_int, default=2,
                        help="retries per shard before bisection and "
                             "quarantine (default 2)")
    parser.add_argument("--fault-plan", default="", metavar="JSON",
                        help="arm deterministic fault injection: a JSON "
                             "fault-plan file or an inline JSON object "
                             "(chaos testing)")


def _default_shard_size() -> int:
    from repro.core.fuzzer.campaign import DEFAULT_SHARD_SIZE
    return DEFAULT_SHARD_SIZE


def _campaign_kwargs(args: argparse.Namespace) -> dict:
    """Validated campaign options shared by ``fuzz`` and ``deploy``."""
    if args.resume and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir")
    if args.cache_dir and args.checkpoint_dir:
        raise SystemExit("--cache-dir conflicts with --checkpoint-dir")
    fault_plan = None
    if getattr(args, "fault_plan", ""):
        from repro.resilience import FaultPlan
        try:
            fault_plan = FaultPlan.parse(args.fault_plan)
        except ValueError as exc:
            raise SystemExit(str(exc)) from exc
    return {"workers": args.workers,
            "checkpoint_dir": args.checkpoint_dir or None,
            "resume": args.resume,
            "cache_dir": args.cache_dir or None,
            "fault_plan": fault_plan,
            "shard_timeout": getattr(args, "shard_timeout", None),
            "max_retries": getattr(args, "max_retries", 2)}


def _log_metrics_snapshot(snapshot: dict) -> None:
    """Log every counter/gauge (the ``--metrics`` summary)."""
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    if not counters and not gauges:
        _say("metrics: nothing recorded")
        return
    _say("metrics snapshot:")
    for name in sorted(counters):
        _say(f"  {name} = {counters[name]:g}")
    for name in sorted(gauges):
        _say(f"  {name} = {gauges[name]:g}")


@contextlib.contextmanager
def _obs_scope(args: argparse.Namespace):
    """Activate the observability plane when its flags ask for it.

    Observability rides on the telemetry metrics registry (SLO
    histograms, ``obs.alert.*`` counters), so when telemetry is not
    otherwise configured this opens a memory-only telemetry session
    underneath the plane.
    """
    import pathlib
    obs_dir = getattr(args, "obs_dir", "") or None
    wanted = bool(getattr(args, "obs", False)) or obs_dir is not None
    if not wanted:
        if getattr(args, "obs_profile", False):
            raise SystemExit("--obs-profile requires --obs")
        yield
        return
    from repro import observability, telemetry
    with contextlib.ExitStack() as stack:
        if not telemetry.enabled():
            stack.enter_context(telemetry.session(trace_dir=None,
                                                  process="main"))
        export_path = (pathlib.Path(obs_dir) / "metrics-snapshots.jsonl"
                       if obs_dir else None)
        plane = stack.enter_context(observability.session(
            export_path=export_path,
            profile=bool(getattr(args, "obs_profile", False))))
        yield
        if obs_dir:
            path = observability.write_openmetrics(
                telemetry.metrics().snapshot(),
                pathlib.Path(obs_dir) / "metrics.om")
            _say(f"openmetrics exposition written to {path}")
        alerts = plane.detectors.alerts(ranked=True)
        if alerts:
            _say(f"observability: {len(alerts)} attack-signal alert(s)")
            for alert in alerts[:5]:
                _say(f"  [{alert.severity}] #{alert.seq} "
                     f"{alert.detector} tenant={alert.tenant_id} — "
                     f"{alert.detail}")
        if plane.profiler is not None:
            top = plane.profiler.report(top=3)
            detail = "; ".join(f"{entry['span']} ({entry['site']}) "
                               f"x{entry['samples']}" for entry in top)
            _say(f"profiler: {plane.profiler.total_samples} sample(s)"
                 + (f"; {detail}" if detail else ""))


@contextlib.contextmanager
def _telemetry_scope(args: argparse.Namespace):
    """Activate telemetry for one command when its flags ask for it."""
    trace_dir = getattr(args, "trace_dir", "") or None
    metrics_wanted = bool(getattr(args, "metrics", False))
    if trace_dir is None and not metrics_wanted:
        yield
        return
    from repro import telemetry
    with telemetry.session(trace_dir=trace_dir, process="main"):
        yield
        if metrics_wanted:
            _log_metrics_snapshot(telemetry.metrics().snapshot())
    if trace_dir is not None:
        run = telemetry.merge_run(trace_dir)
        _say(f"telemetry: {len(run.spans)} spans merged into "
             f"{trace_dir}/trace.jsonl (+ metrics.json)")


def cmd_profile(args: argparse.Namespace) -> int:
    """Run the Application Profiler and print the event ranking."""
    from repro.core.profiler import ApplicationProfiler
    workload = _build_workload(args.workload)
    secrets = workload.secrets[:args.secrets] if args.secrets else None
    profiler = ApplicationProfiler(
        workload, processor_model=args.processor,
        runs_per_secret=args.runs, rng=args.seed)
    report = profiler.profile(secrets=secrets)
    warmup = report.warmup
    _say(f"warm-up: {warmup.total_events} events -> "
         f"{warmup.surviving_count} responsive "
         f"({warmup.surviving_fraction:.1%})")
    _say(f"simulated profiling cost: "
         f"{report.total_simulated_hours:.2f} hours")
    _say(f"top {args.top} vulnerable events:")
    for name, mi in report.ranking.top(args.top):
        _say(f"  {name:<44s} I(Y;X) = {mi:.3f} bits")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Run an Event Fuzzer campaign and print the summary."""
    from repro.core.fuzzer import DEFAULT_SHARD_SIZE, EventFuzzer, FuzzingCampaign
    from repro.cpu.events import processor_catalog
    campaign_kwargs = _campaign_kwargs(args)
    if args.corpus_dir and args.strategy != "coverage":
        raise SystemExit("--corpus-dir requires --strategy coverage")
    if args.cache_dir and args.strategy != "grammar":
        raise SystemExit("--cache-dir requires --strategy grammar")
    catalog = processor_catalog(args.processor)
    events = np.flatnonzero(catalog.guest_sensitive)
    if args.events:
        events = events[:args.events]
    fuzzer = EventFuzzer(processor_model=args.processor,
                         gadget_budget=args.budget,
                         shard_size=args.shard_size or DEFAULT_SHARD_SIZE,
                         rng=args.seed)
    campaign = FuzzingCampaign(fuzzer, strategy=args.strategy,
                               corpus_dir=args.corpus_dir or None,
                               **campaign_kwargs)
    report = campaign.run(events)
    cstats = campaign.stats
    if campaign.search_result is not None:
        sres = campaign.search_result
        _say(f"coverage search: {sres.evals} evaluations over "
             f"{sres.rounds} rounds, {sres.coverage_features} coverage "
             f"features, corpus of {sres.corpus_size} seeds")
        _say(f"  corpus replay digest {sres.corpus_replay_digest[:16]}")
    _say(f"campaign: {cstats.num_shards} shards "
         f"({cstats.resumed_shards} resumed, "
         f"{cstats.screened_shards} screened) on {cstats.workers} worker(s)")
    if cstats.retries or cstats.quarantined or cstats.pool_restarts:
        _say(f"resilience: {cstats.retries} retries "
             f"({cstats.timeouts} timeouts), {cstats.bisections} "
             f"bisections, {cstats.pool_restarts} workers replaced, "
             f"{len(cstats.quarantined)} gadgets quarantined")
    for failure in cstats.quarantined:
        _say(f"  quarantined gadget {failure.shard_start} "
             f"after {failure.attempt + 1} attempts: {failure.detail}")
    _say(f"cleanup: {len(report.cleanup.legal)} of "
         f"{report.cleanup.total_variants} variants legal "
         f"({report.cleanup.legal_fraction:.1%})")
    _say(f"tested {report.gadgets_tested:,} gadgets over "
         f"{report.events_fuzzed} events "
         f"(space: {report.search_space_size:,})")
    for step, seconds in report.step_seconds.items():
        _say(f"  {step:<24s} {seconds:8.2f} s")
    stats = report.gadget_count_stats()
    _say(f"gadgets/event: mean {stats['mean']:.0f} "
         f"median {stats['median']:.0f} max {stats['max']:.0f}")
    _say(f"covering set: {len(report.covering_set)} gadgets cover "
         f"{sum(len(v) for v in report.covering_set.values())} events")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    """Run the coverage-guided gadget search standalone."""
    from repro.core.fuzzer import EventFuzzer
    from repro.cpu.events import processor_catalog
    from repro.search import CoverageSearch
    if args.resume and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir")
    fault_plan = None
    if args.fault_plan:
        from repro.resilience import FaultPlan
        try:
            fault_plan = FaultPlan.parse(args.fault_plan)
        except ValueError as exc:
            raise SystemExit(str(exc)) from exc
    catalog = processor_catalog(args.processor)
    events = np.flatnonzero(catalog.guest_sensitive)
    if args.events:
        events = events[:args.events]
    fuzzer = EventFuzzer(processor_model=args.processor,
                         gadget_budget=args.budget, rng=args.seed)
    search = CoverageSearch(
        fuzzer.search_config(events), max_evals=args.budget,
        workers=args.workers,
        corpus_dir=args.corpus_dir or None,
        checkpoint_dir=args.checkpoint_dir or None,
        resume=args.resume,
        target_events=args.target_events,
        minimize=not args.no_minimize,
        fault_plan=fault_plan)
    result = search.run()
    _say(f"search: {result.evals} evaluations over {result.rounds} "
         f"rounds on {args.workers} worker(s) "
         f"({result.elapsed_seconds:.2f} s)")
    _say(f"covered {result.covered_count} of {len(events)} events, "
         f"{result.coverage_features} coverage features")
    _say(f"corpus: {result.corpus_size} seeds "
         f"({result.minimize_evals} minimization measurements, "
         f"{result.corpus_misses} damaged entries skipped)")
    _say(f"corpus replay digest {result.corpus_replay_digest[:16]}, "
         f"coverage digest {result.coverage_digest[:16]}")
    if args.digest_out:
        import json
        import pathlib
        payload = {"corpus_replay_digest": result.corpus_replay_digest,
                   "coverage_digest": result.coverage_digest,
                   "evals": result.evals,
                   "rounds": result.rounds,
                   "covered_events": result.covered_count,
                   "coverage_features": result.coverage_features,
                   "corpus_size": result.corpus_size}
        pathlib.Path(args.digest_out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        _say(f"digests written to {args.digest_out}")
    return 0


def cmd_deploy(args: argparse.Namespace) -> int:
    """Run the full offline pipeline and save the deployment artifact."""
    from repro.core import Aegis
    from repro.core.artifacts import DeploymentArtifact
    campaign_kwargs = _campaign_kwargs(args)
    workload = _build_workload(args.workload)
    secrets = workload.secrets[:args.secrets] if args.secrets else None
    aegis = Aegis(workload, processor_model=args.processor,
                  mechanism=args.mechanism, epsilon=args.epsilon,
                  runs_per_secret=args.runs, gadget_budget=args.budget,
                  shard_size=args.shard_size, rng=args.seed,
                  **campaign_kwargs)
    deployment = aegis.deploy(secrets=secrets)
    artifact = DeploymentArtifact.from_deployment(deployment)
    artifact.save(args.output)
    _say(f"profiled {len(artifact.vulnerable_events)} vulnerable events")
    _say(f"covering set: {len(artifact.covering_gadgets)} gadgets")
    _say(f"calibrated sensitivity: {artifact.sensitivity:.4g} "
         f"counts/slice")
    _say(f"privacy guarantee: "
         f"{deployment.obfuscator.privacy_guarantee}")
    _say(f"artifact written to {args.output}")
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    """Mount one of the case-study attacks, optionally defended."""
    from repro.attacks import (
        KeystrokeSniffingAttack,
        ModelExtractionAttack,
        TraceCollector,
        WebsiteFingerprintingAttack,
    )
    obfuscator = None
    if args.artifact:
        from repro.core.artifacts import DeploymentArtifact
        obfuscator = DeploymentArtifact.load(args.artifact) \
            .build_obfuscator(rng=args.seed + 1)
    if args.attack == "wfa":
        workload = _build_workload("website")
        secrets = workload.secrets[:args.secrets or 10]
        collector = TraceCollector(workload, duration_s=3.0,
                                   slice_s=args.slice, rng=args.seed,
                                   obfuscator=obfuscator)
        dataset = collector.collect(args.runs, secrets=secrets)
        attack = WebsiteFingerprintingAttack(
            num_sites=len(secrets), downsample=2, epochs=args.epochs,
            batch_size=16, rng=args.seed + 2)
        accuracy = attack.run(dataset).test_accuracy
        guess = 1.0 / len(secrets)
    elif args.attack == "ksa":
        workload = _build_workload("keystroke")
        collector = TraceCollector(workload, duration_s=3.0,
                                   slice_s=args.slice, rng=args.seed,
                                   obfuscator=obfuscator)
        dataset = collector.collect(args.runs)
        attack = KeystrokeSniffingAttack(downsample=2, epochs=args.epochs,
                                         rng=args.seed + 2)
        accuracy = attack.run(dataset).test_accuracy
        guess = 0.1
    elif args.attack == "mea":
        workload = _build_workload("dnn")
        secrets = workload.secrets[:args.secrets or 10]
        collector = TraceCollector(workload, duration_s=3.0,
                                   slice_s=min(args.slice, 0.004),
                                   rng=args.seed, obfuscator=obfuscator)
        dataset = collector.collect(args.runs, secrets=secrets,
                                    with_frames=True)
        attack = ModelExtractionAttack(downsample=2, epochs=args.epochs,
                                       rng=args.seed + 2)
        accuracy = attack.run(dataset).test_sequence_accuracy
        guess = 0.0
    else:
        raise SystemExit(f"unknown attack {args.attack!r}")
    label = "defended" if obfuscator else "undefended"
    if obfuscator is not None:
        _say(f"privacy budget: {obfuscator.accountant.statement()}")
    _say(f"{args.attack.upper()} {label} accuracy: {accuracy:.3f} "
         f"(random guess: {guess:.3f})")
    return 0


def _fleet_artifact(args: argparse.Namespace):
    """Resolve the deployment artifact for a fleet command.

    ``--artifact`` loads a plain artifact JSON; ``--registry`` loads
    the latest compatible version from an artifact registry; with
    neither, a synthetic default calibration stands in (demos, smoke
    tests).
    """
    from repro.fleet import check_compatible, default_artifact
    if args.artifact and args.registry:
        raise SystemExit("--artifact conflicts with --registry")
    if args.artifact:
        from repro.core.artifacts import DeploymentArtifact
        artifact = DeploymentArtifact.load(args.artifact)
    elif args.registry:
        from repro.fleet import ArtifactRegistry
        artifact = ArtifactRegistry(args.registry).load(
            args.processor, args.workload)
    else:
        return default_artifact(args.processor)
    try:
        check_compatible(artifact, args.processor)
    except Exception as exc:
        raise SystemExit(str(exc)) from exc
    return artifact


def _parse_attackers(text: str) -> dict:
    """``t02=burst-poll,t03=single-step`` -> attacker profiles."""
    from repro.fleet import AttackerProfile
    profiles = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        tenant, sep, kind = part.partition("=")
        if not sep or not tenant.strip() or not kind.strip():
            raise SystemExit("--attackers entries look like "
                             f"tenant=kind, got {part!r}")
        try:
            profiles[tenant.strip()] = AttackerProfile(kind=kind.strip())
        except ValueError as exc:
            raise SystemExit(str(exc)) from exc
    return profiles


def _fleet_fault_plan(args: argparse.Namespace):
    if not getattr(args, "fault_plan", ""):
        return None
    from repro.resilience import FaultPlan
    try:
        return FaultPlan.parse(args.fault_plan)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def _fleet_defense_profile(args: argparse.Namespace):
    """Resolve ``--defense-policy`` / ``--escalation-profile``.

    ``--escalation-profile`` (inline JSON or a JSON file) wins over a
    named ``--defense-policy``; ``None`` means the static policy.
    """
    profile_json = getattr(args, "escalation_profile", "")
    if profile_json:
        from repro.fleet import EscalationProfile
        try:
            return EscalationProfile.parse(profile_json)
        except ValueError as exc:
            raise SystemExit(str(exc)) from exc
    name = getattr(args, "defense_policy", "")
    if name:
        from repro.fleet import resolve_profile
        try:
            return resolve_profile(name)
        except ValueError as exc:
            raise SystemExit(str(exc)) from exc
    return None


def _fleet_specs(args: argparse.Namespace):
    import math

    from repro.fleet import default_specs
    cap = args.epsilon_cap if args.epsilon_cap is not None else math.inf
    return default_specs(args.tenants, workload=args.workload,
                         epsilon_cap=cap)


def _fleet_run(args: argparse.Namespace):
    """Build a fresh control plane and replay one load-generation run."""
    from contextlib import nullcontext

    from repro.fleet import FleetControlPlane, LoadGenerator
    from repro.observability import runtime as observability
    from repro.resilience import runtime as resilience
    artifact = _fleet_artifact(args)
    fault_plan = _fleet_fault_plan(args)
    policy = _fleet_defense_profile(args)
    try:
        plane = FleetControlPlane(artifact, seed=args.seed,
                                  defense_policy=policy)
        specs = _fleet_specs(args)
        generator = LoadGenerator(
            plane, specs, windows=args.windows,
            slices_per_window=args.slices,
            concurrency=args.concurrency or None,
            attackers=_parse_attackers(getattr(args, "attackers", "")))
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    # The defense plane decides on detector alerts, so an armed policy
    # needs an observability plane even without --obs.
    obs_scope = observability.session() \
        if policy is not None and not observability.enabled() \
        else nullcontext()
    with obs_scope:
        with resilience.session(fault_plan):
            report = generator.run()
        status = plane.status()
    return status, report


def _fleet_run_sharded(args: argparse.Namespace):
    """Replay one load across ``--shards`` worker processes."""
    from repro.fleet import ShardCrashed, ShardedFleet
    if getattr(args, "obs_dir", ""):
        raise SystemExit("--obs-dir needs the single-process fleet; "
                         "omit --shards (plain --obs sums per-shard "
                         "SLO histograms into the status file)")
    artifact = _fleet_artifact(args)
    fleet = ShardedFleet(
        artifact, shards=args.shards, seed=args.seed,
        fault_plan=_fleet_fault_plan(args),
        max_tenants_per_shard=args.max_tenants_per_shard or None,
        overflow_policy=args.overflow_policy,
        defense_policy=_fleet_defense_profile(args))
    try:
        report = fleet.run(
            _fleet_specs(args), windows=args.windows,
            slices_per_window=args.slices, mode=args.shard_mode,
            concurrency=args.concurrency or None,
            observe=bool(getattr(args, "obs", False)),
            attackers=_parse_attackers(
                getattr(args, "attackers", "")) or None)
    except (ValueError, ShardCrashed) as exc:
        raise SystemExit(str(exc)) from exc
    return fleet.status(report), report


def _write_fleet_status(args: argparse.Namespace, status: dict,
                        report) -> None:
    if not getattr(args, "state_dir", ""):
        return
    import pathlib

    from repro.fleet import write_json_atomic
    state_dir = pathlib.Path(args.state_dir)
    status = dict(status)
    status["replay"] = report.to_dict()
    path = write_json_atomic(state_dir / "fleet-status.json", status)
    _say(f"fleet status written to {path}")


def _say_fleet_summary(report) -> None:
    _say(f"fleet: {len(report.tenants)} tenants x {report.windows} "
         f"windows of {report.slices_per_window} slices")
    _say(f"served {report.served_windows} windows "
         f"({report.served_slices:,} slices) at "
         f"{report.slices_per_second:,.0f} noised slices/s; "
         f"{report.rejected_windows} rejected")
    for tenant_id, reasons in sorted(report.rejections.items()):
        _say(f"  {tenant_id}: rejected {len(reasons)} "
             f"({', '.join(sorted(set(reasons)))})")


def _say_sharding_summary(report) -> None:
    _say(f"sharding: {report.shards} shard(s), {report.mode} mode, "
         f"{len(report.crashes)} crash(es) recovered")
    _say(f"  dropped tenants: {len(report.dropped_tenants)}, "
         f"queued tenants: {len(report.queued_tenants)}")


def cmd_fleet_serve(args: argparse.Namespace) -> int:
    """Serve a replayed multi-tenant load and persist fleet status."""
    if getattr(args, "shards", None):
        status, report = _fleet_run_sharded(args)
        _say_fleet_summary(report)
        _say_sharding_summary(report)
    else:
        status, report = _fleet_run(args)
        _say_fleet_summary(report)
    exhausted = [tid for tid, row in report.budgets.items()
                 if row["exhausted"]]
    if exhausted:
        _say(f"budget-exhausted tenants: {', '.join(exhausted)}")
    _write_fleet_status(args, status, report)
    return 0


def cmd_fleet_replay(args: argparse.Namespace) -> int:
    """Replay the same load twice and verify bit-identity."""
    if args.repeat < 2:
        raise SystemExit("--repeat must be >= 2 to compare replays")
    runner = _fleet_run_sharded if getattr(args, "shards", None) \
        else _fleet_run
    reference = None
    status = report = None
    for _ in range(args.repeat):
        status, report = runner(args)
        fingerprint = report.fingerprint()
        if reference is None:
            reference = fingerprint
        elif fingerprint != reference:
            _say("replay DIVERGED: noised reads or ledgers differ "
                 "across repeats")
            return 1
    _say_fleet_summary(report)
    if getattr(args, "shards", None):
        _say_sharding_summary(report)
    _say(f"replay bit-identical across {args.repeat} runs "
         f"(per-tenant noise sequences and ledgers)")
    _write_fleet_status(args, status, report)
    return 0


def _read_status_with_retry(path, retries: int = 5,
                            backoff_base: float = 0.02) -> dict:
    """Read fleet-status.json, riding out the atomic-rename gap.

    ``fleet serve`` writes the status file with tmp+rename and sweeps
    stale tmp files; a watcher polling at exactly the wrong moment can
    see the path momentarily absent (or half-swept on filesystems
    without atomic rename visibility). Retry with bounded, seeded
    backoff — deterministic jitter from the attempt number, like the
    shard supervisor's — instead of crashing the dashboard.
    """
    import json
    import time

    from repro.resilience.faults import _hash01
    for attempt in range(retries + 1):
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (FileNotFoundError, json.JSONDecodeError):
            if attempt == retries:
                raise
            backoff = min(0.25, backoff_base * 2 ** attempt)
            time.sleep(backoff * (1.0 + 0.5 * _hash01(
                0, "status-watch", attempt)))
    raise AssertionError("unreachable")  # pragma: no cover


def _health_exit(status: dict) -> int:
    """Exit code from the status health block: say why when degraded."""
    health = status.get("health")
    if health is None or health.get("healthy", True):
        return 0
    for reason in health.get("reasons", []):
        _say(f"UNHEALTHY: {reason}")
    return 1


def cmd_fleet_status(args: argparse.Namespace) -> int:
    """Render a fleet-status.json written by ``fleet serve``.

    Exits non-zero when the control plane reports degraded health
    (provisioning stalls, watchdog-restarted daemons), so scripts and
    CI can gate on it.
    """
    import json
    import pathlib
    import time
    path = pathlib.Path(args.state_dir) / "fleet-status.json"
    if not path.is_file():
        raise SystemExit(f"no fleet status at {path}; run "
                         f"'fleet serve --state-dir {args.state_dir}' first")
    if args.watch:
        from repro.observability import render_status_frame
        status = None
        for frame in range(args.frames):
            if frame:
                time.sleep(args.interval)
            status = _read_status_with_retry(path)
            _say(render_status_frame(status, frame=frame).rstrip())
        return _health_exit(status)
    status = json.loads(path.read_text(encoding="utf-8"))
    _say(f"fleet on {status['processor_model']} "
         f"({status['mechanism']}, eps={status['epsilon']:g}/slice), "
         f"seed {status['seed']}, {status['ticks']} ticks")
    _say(f"windows: {status['admitted_windows']} admitted, "
         f"{status['rejected_windows']} rejected")
    for tenant_id in sorted(status["tenants"]):
        row = status["tenants"][tenant_id]
        budget = status["budgets"][tenant_id]
        cap = budget["epsilon_cap"]
        cap_text = "uncapped" if cap is None else (
            f"{budget['epsilon_spent']:g}/{cap:g} eps")
        _say(f"  {tenant_id}: {row['windows_served']} windows "
             f"({row['slices_served']:,} slices), buffer "
             f"{row['buffer_available']}/{row['buffer_capacity']}, "
             f"{row['refills']} refills, {row['daemon_restarts']} "
             f"restarts, budget {cap_text}"
             + (" [EXHAUSTED]" if budget["exhausted"] else ""))
    observability = status.get("observability")
    if observability is not None:
        alerts = observability.get("alerts", [])
        _say(f"alerts: {len(alerts)}")
        for alert in alerts[:5]:
            _say(f"  [{alert['severity']}] #{alert['seq']} "
                 f"{alert['detector']} tenant={alert['tenant_id']}")
    defense = status.get("defense")
    if defense is not None:
        states = defense["states"]
        _say(f"defense: profile {defense['profile']['name']}, "
             + ", ".join(f"{state}={count}"
                         for state, count in states.items())
             + f", {defense['policy_faults']} policy fault(s)")
        for tenant_id, row in sorted(defense["tenants"].items()):
            if row["state"] == "NORMAL" and not row["transitions"]:
                continue
            _say(f"  {tenant_id}: {row['state']}"
                 + (" [fault-forced]" if row["fault_forced"] else "")
                 + f", {row['alerts_seen']} alert(s), "
                 f"{len(row['transitions'])} transition(s), "
                 f"{row['quarantined_windows']} window(s) quarantined")
    sharding = status.get("sharding")
    if sharding is not None:
        _say(f"sharding: {sharding['shards']} shard(s), "
             f"{sharding['mode']} mode, "
             f"{len(sharding['crashes'])} crash(es) recovered, "
             f"{len(sharding['dropped_tenants'])} dropped, "
             f"{len(sharding['queued_tenants'])} queued")
        for row in sharding["per_shard"]:
            _say(f"  shard {row['shard_id']} gen {row['generation']}: "
                 f"{len(row['tenants'])} tenants, "
                 f"{row['served_windows']} windows")
    return _health_exit(status)


def cmd_top(args: argparse.Namespace) -> int:
    """Render the ``repro top`` dashboard from a metrics directory."""
    import json
    import pathlib
    import time

    from repro.observability import render_top
    from repro.telemetry import merge_run, read_snapshot
    trace_dir = pathlib.Path(args.trace)

    def _snapshot() -> dict:
        merged = trace_dir / "metrics.json"
        if merged.is_file():
            return read_snapshot(merged)
        if any(trace_dir.glob("metrics-*.json")):
            return merge_run(trace_dir, write=False).metrics
        raise SystemExit(f"no metrics snapshots under {trace_dir}")

    def _alerts() -> "list | None":
        if not args.state_dir:
            return None
        status_path = pathlib.Path(args.state_dir) / "fleet-status.json"
        if not status_path.is_file():
            return None
        status = json.loads(status_path.read_text(encoding="utf-8"))
        return status.get("observability", {}).get("alerts")

    for frame in range(args.frames):
        if frame:
            time.sleep(args.interval)
        _say(render_top(_snapshot(), alerts=_alerts(),
                        top=args.top).rstrip())
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Render a deployment artifact and/or a telemetry run."""
    if not args.artifact and not args.trace:
        raise SystemExit("report requires --artifact and/or --trace")
    parts = []
    if args.artifact:
        from repro.analysis.report import deployment_report
        from repro.core.artifacts import DeploymentArtifact
        artifact = DeploymentArtifact.load(args.artifact)
        parts.append(deployment_report(
            artifact, window_slices=args.window_slices))
    if args.trace:
        from repro.telemetry import render_trace_dir
        parts.append(render_trace_dir(args.trace))
    text = "\n".join(parts)
    if args.output:
        import pathlib
        pathlib.Path(args.output).write_text(text, encoding="utf-8")
        _say(f"report written to {args.output}")
    else:
        _say(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-aegis",
        description="Aegis: HPC side-channel attacks and the DP defense "
                    "on a simulated SEV platform")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="run the Application Profiler")
    _add_common(p)
    p.add_argument("--workload", default="website",
                   choices=("website", "keystroke", "dnn"))
    p.add_argument("--secrets", type=_nonnegative_int, default=8,
                   help="number of secrets to profile (0 = all)")
    p.add_argument("--runs", type=_positive_int, default=6,
                   help="profiling runs per secret")
    p.add_argument("--top", type=_positive_int, default=8,
                   help="vulnerable events to print")
    _add_telemetry_options(p)
    _add_obs_options(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("fuzz", help="run an Event Fuzzer campaign")
    _add_common(p)
    p.add_argument("--budget", type=_positive_int, default=2000,
                   help="gadget pairs to sample")
    p.add_argument("--events", type=_nonnegative_int, default=0,
                   help="limit fuzzed events (0 = all guest-sensitive)")
    p.add_argument("--strategy", default="grammar",
                   choices=("grammar", "coverage"),
                   help="screening strategy: blind grammar sampling "
                        "(grammar, default) or the coverage-guided "
                        "corpus search (coverage)")
    p.add_argument("--corpus-dir", default="",
                   help="on-disk corpus directory for --strategy "
                        "coverage (persists minimized seeds + coverage "
                        "signatures across runs)")
    _add_campaign_options(p)
    _add_telemetry_options(p)
    _add_obs_options(p)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("search",
                       help="standalone coverage-guided gadget search")
    _add_common(p)
    p.add_argument("--budget", type=_positive_int, default=2000,
                   help="evaluation budget (default 2000; counts "
                        "bootstrap samples, mutants, probes, and "
                        "minimization measurements)")
    p.add_argument("--events", type=_nonnegative_int, default=0,
                   help="limit target events (0 = all guest-sensitive)")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="worker processes for chunk evaluation "
                        "(default 1; results are bit-identical for "
                        "any worker count)")
    p.add_argument("--corpus-dir", default="",
                   help="directory mirroring corpus admissions on disk")
    p.add_argument("--checkpoint-dir", default="",
                   help="directory for the round-granular search "
                        "checkpoint")
    p.add_argument("--resume", action="store_true",
                   help="resume from --checkpoint-dir instead of "
                        "restarting the search")
    p.add_argument("--target-events", type=_positive_int, default=None,
                   help="stop early once this many events are covered")
    p.add_argument("--no-minimize", action="store_true",
                   help="skip greedy seed minimization at admission")
    p.add_argument("--fault-plan", default="", metavar="JSON",
                   help="arm deterministic fault injection (e.g. the "
                        "search.corpus.write chaos point)")
    p.add_argument("--digest-out", default="", metavar="FILE",
                   help="write corpus replay + coverage digests and "
                        "eval counts as JSON (worker-invariance "
                        "comparisons in CI)")
    _add_telemetry_options(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("deploy",
                       help="full offline pipeline -> artifact JSON")
    _add_common(p)
    p.add_argument("--workload", default="website",
                   choices=("website", "keystroke", "dnn"))
    p.add_argument("--mechanism", default="laplace",
                   choices=("laplace", "dstar"))
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--secrets", type=_nonnegative_int, default=8,
                   help="number of secrets to profile (0 = all)")
    p.add_argument("--runs", type=_positive_int, default=6)
    p.add_argument("--budget", type=_positive_int, default=1000)
    p.add_argument("-o", "--output", default="aegis-artifact.json")
    _add_campaign_options(p)
    _add_telemetry_options(p)
    _add_obs_options(p)
    p.set_defaults(func=cmd_deploy)

    p = sub.add_parser("attack", help="mount a case-study attack")
    _add_common(p)
    p.add_argument("--attack", default="wfa",
                   choices=("wfa", "ksa", "mea"))
    p.add_argument("--artifact", default="",
                   help="deployment artifact JSON; enables the defense")
    p.add_argument("--secrets", type=_nonnegative_int, default=0,
                   help="number of secrets (0 = attack default)")
    p.add_argument("--runs", type=_positive_int, default=16,
                   help="traces per secret")
    p.add_argument("--epochs", type=_positive_int, default=30)
    p.add_argument("--slice", type=float, default=0.01,
                   help="monitor sampling interval in seconds")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("fleet",
                       help="multi-tenant fleet control plane "
                            "(serve/replay/status)")
    fleet_sub = p.add_subparsers(dest="fleet_command", required=True)

    def _add_fleet_load_options(fp: argparse.ArgumentParser) -> None:
        _add_common(fp)
        fp.add_argument("--tenants", type=_positive_int, default=4,
                        help="tenant guests to admit (default 4)")
        fp.add_argument("--windows", type=_positive_int, default=4,
                        help="replayed windows per tenant (default 4)")
        fp.add_argument("--slices", type=_positive_int, default=3000,
                        help="slices per window (default 3000, the "
                             "paper's 3 s at 1 ms)")
        fp.add_argument("--concurrency", type=_nonnegative_int, default=0,
                        help="tenants interleaved per scheduling round "
                             "(0 = all)")
        fp.add_argument("--workload", default="website",
                        choices=("website", "keystroke", "dnn", "rsa"))
        fp.add_argument("--epsilon-cap", type=_positive_float, default=None,
                        help="per-tenant composed-eps quota "
                             "(default: uncapped)")
        fp.add_argument("--artifact", default="",
                        help="deployment artifact JSON calibrating the "
                             "fleet (default: synthetic calibration)")
        fp.add_argument("--registry", default="",
                        help="artifact registry directory; loads the "
                             "latest version for (processor, workload)")
        fp.add_argument("--shards", type=_positive_int, default=None,
                        help="shard the fleet across N worker "
                             "processes (consistent-hash tenant "
                             "placement; per-tenant digests are "
                             "bit-identical at any shard count)")
        fp.add_argument("--shard-mode", default="process",
                        choices=("process", "inline"),
                        help="run shards in forked workers (process, "
                             "default) or sequentially in-process "
                             "(inline)")
        fp.add_argument("--max-tenants-per-shard", type=_nonnegative_int,
                        default=0, metavar="N",
                        help="per-shard tenant cap (0 = uncapped); "
                             "overflow follows --overflow-policy")
        fp.add_argument("--overflow-policy", default="queue",
                        choices=("queue", "drop"),
                        help="over-cap tenants: serve later on their "
                             "own shard (queue, default) or reject "
                             "loudly (drop)")
        fp.add_argument("--fault-plan", default="", metavar="JSON",
                        help="arm deterministic fault injection "
                             "(fleet.provision / fleet.admit / "
                             "fleet.policy / fleet.shard chaos)")
        fp.add_argument("--state-dir", default="",
                        help="directory for fleet-status.json")
        fp.add_argument("--attackers", default="", metavar="SPEC",
                        help="inject attack read traces: comma-"
                             "separated tenant=kind pairs, kinds "
                             "single-step (SEV-Step cadence) and "
                             "burst-poll (register-rotating burst); "
                             "needs --obs or --defense-policy to be "
                             "detected (works with --shards: the "
                             "alert stream is per-tenant "
                             "deterministic at any shard count)")
        fp.add_argument("--defense-policy", default="",
                        choices=("", "balanced", "aggressive",
                                 "conservative"),
                        help="arm the adaptive defense plane with a "
                             "named escalation profile: detector "
                             "alerts drive per-tenant eps "
                             "reallocation, Laplace->d* plan "
                             "escalation, and fail-closed quarantine")
        fp.add_argument("--escalation-profile", default="",
                        metavar="JSON",
                        help="custom escalation profile (inline JSON "
                             "or a JSON file); overrides "
                             "--defense-policy")
        _add_telemetry_options(fp)
        _add_obs_options(fp)

    fp = fleet_sub.add_parser("serve",
                              help="serve a replayed multi-tenant load")
    _add_fleet_load_options(fp)
    fp.set_defaults(func=cmd_fleet_serve)

    fp = fleet_sub.add_parser("replay",
                              help="replay the same load repeatedly and "
                                   "verify bit-identity")
    _add_fleet_load_options(fp)
    fp.add_argument("--repeat", type=_positive_int, default=2,
                    help="independent replays to compare (default 2)")
    fp.set_defaults(func=cmd_fleet_replay)

    fp = fleet_sub.add_parser("status",
                              help="render fleet-status.json (exits "
                                   "non-zero on degraded health)")
    _add_logging(fp)
    fp.add_argument("--state-dir", required=True,
                    help="directory holding fleet-status.json")
    fp.add_argument("--watch", action="store_true",
                    help="render live dashboard frames instead of the "
                         "one-shot summary")
    fp.add_argument("--frames", type=_positive_int, default=1,
                    help="frames to render with --watch (default 1)")
    fp.add_argument("--interval", type=_positive_float, default=2.0,
                    help="seconds between --watch frames (default 2)")
    fp.set_defaults(func=cmd_fleet_status)

    p = sub.add_parser("top",
                       help="terminal dashboard over a metrics "
                            "directory: SLO latencies, busiest "
                            "counters, attack-signal alerts")
    _add_logging(p)
    p.add_argument("--trace", required=True,
                   help="telemetry directory holding metrics.json or "
                        "per-process metrics-*.json snapshots")
    p.add_argument("--state-dir", default="",
                   help="fleet state directory; adds the alert stream "
                        "from fleet-status.json")
    p.add_argument("--top", type=_positive_int, default=8,
                   help="busiest counters to chart (default 8)")
    p.add_argument("--frames", type=_positive_int, default=1,
                   help="frames to render (default 1)")
    p.add_argument("--interval", type=_positive_float, default=2.0,
                   help="seconds between frames (default 2)")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser("report",
                       help="render a deployment artifact and/or a "
                            "telemetry run as markdown")
    _add_logging(p)
    p.add_argument("--artifact", default="",
                   help="deployment artifact JSON")
    p.add_argument("--trace", default="",
                   help="telemetry directory from --trace-dir; renders "
                        "stage timings, shard balance, and the "
                        "composed ε spent")
    p.add_argument("--window-slices", type=int, default=3000,
                   help="slices per monitoring window for the budget "
                        "composition statement")
    p.add_argument("-o", "--output", default="",
                   help="write to a file instead of stdout")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_cli_logging(verbose=getattr(args, "verbose", 0),
                          quiet=getattr(args, "quiet", False))
    with _telemetry_scope(args), _obs_scope(args):
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
