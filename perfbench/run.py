"""Pipeline benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from ``src/``
of the same checkout. With ``--trace 0`` an untraced pass measures the
end-to-end metrics; with ``--trace 1`` an untraced pass, then a traced
pass with span wrappers (and, on the offline workloads, the program's
own telemetry), give the per-layer metrics and the tracing overhead.
Metric names and units come from ``BENCHMARK.json``. The last line of
stdout is the result as JSON; each run is also appended to
``perfbench/results/BENCH_pipeline.json``.
Exits non-zero without a result line when the run cannot complete, and
with ``"correct": false`` when an output check fails.

Set-up is what a fresh interpreter does before its first result:
import the program, build the workload's inputs from the seed, run
one operation. This process times it once and ``SETUP_PROBES`` child
processes (``--setup-probe``) once each; ``setup_s`` is the median.
Each child costs as much as the set-up it times (``rescreen`` fills a
measurement cache, about 5 s), and the run must stay within its share
of the time every run of the benchmark gets, so there is one.
Every time is scaled by the host speed sampled while it was measured
(``harness.Speedometer``).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from multiprocessing import resource_tracker
from pathlib import Path

from harness import (
    MIN_OPS,
    Speedometer,
    append_record,
    host_fingerprint,
    log,
    make_record,
    peak_rss_mb,
    relative_iqr,
    summarize,
    timed_ops,
)
from tracing import SpanTracer, attributed_seconds, rollup

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
#: Set-ups timed in child processes, besides the one this process does.
SETUP_PROBES = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    return {"workloads": names,
            "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def import_program():
    """Put this checkout's ``src`` first on the path; fail if absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no program sources at {src}")
    sys.path.insert(0, str(src))
    import repro
    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, not {src}")


def prepare(args, workdir):
    """Import, set up, run one operation: ``(bench, state, result, s)``."""
    start = time.perf_counter()
    import_program()
    import workloads

    bench = workloads.WORKLOADS[args.workload](
        workers=workloads.default_workers(), workdir=workdir)
    state = bench.setup(args.seed)
    result = bench.op(state)
    return bench, state, result, time.perf_counter() - start


def probe_setup(args) -> tuple[float, float]:
    """One set-up in a child process: ``(wall seconds, scale)``."""
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if child.returncode:
        raise SystemExit(f"set-up probe failed ({child.returncode}):\n"
                         f"{child.stderr[-2000:]}")
    probe = json.loads(child.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["scale"]


class Run:
    """The outcome of every operation of a run, warm-up included."""

    def __init__(self, bench, state) -> None:
        self.bench = bench
        self.state = state
        self.outcomes = []

    def account(self, result):
        """Reduce one operation's result to its outcome and record it."""
        outcome = self.bench.account(self.state, result)
        self.outcomes.append(outcome)
        return outcome


def traced_pass(run, tracer, seconds, workdir):
    """Operations under span wrappers (and the program's telemetry).

    Where the workload reads the program's counters, its per-process
    telemetry files are merged after each operation, outside the timed
    region, so counters from worker processes are included. Returns
    the wall seconds of each operation, the scale of the host speed
    sampled meanwhile, and the counters.
    """
    from repro.telemetry import runtime as telemetry
    from repro.telemetry.aggregate import merge_run

    bench = run.bench
    durations, counters = [], {}
    meter = Speedometer()
    deadline = time.perf_counter() + seconds
    while len(durations) < MIN_OPS or time.perf_counter() < deadline:
        op_dir = workdir / f"telemetry-{len(durations)}"
        with (telemetry.session(trace_dir=op_dir, process="main")
              if bench.program_counters else nullcontext()):
            tracer.active = True
            start = time.perf_counter()
            try:
                with meter:
                    result = bench.op(run.state)
            finally:
                durations.append(time.perf_counter() - start)
                tracer.active = False
        run.account(result)
        del result
        if bench.program_counters:
            merged = merge_run(op_dir, write=False)
            for name, value in merged.metrics.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
            shutil.rmtree(op_dir)
    return durations, meter.scale(), counters


def measure(args, spec, workdir):
    """Set up, warm up, measure; returns (result line, samples)."""
    with Speedometer() as meter:
        bench, state, warm, setup_wall = prepare(args, workdir)
    setups = [(setup_wall, meter.scale())]
    from workloads import (UMBRELLAS, CheckFailed, install_layers,
                           layer_metrics)

    run = Run(bench, state)
    try:
        run.account(warm)
        del warm
        log(f"{bench.name}: set up in {setup_wall:.3f} s; measuring")
        samples = {}
        if not args.trace:
            with Speedometer() as meter:
                raw, times, outcomes, blocks = timed_ops(
                    lambda: bench.op(state), args.seconds, run.account,
                    meter)
            rss = peak_rss_mb()
            setups += [probe_setup(args) for _ in range(SETUP_PROBES)]
            setup_times = [wall * scale for wall, scale in setups]
            samples["setup_wall_s"] = summarize(s for s, _ in setups)
            samples["setup_s"] = summarize(setup_times)
            samples["op_wall_s"] = summarize(raw)
            samples["op_s"] = summarize(times)
            # Throughput per block, so that one slow stretch of the host
            # moves one block, not the whole sum.
            samples["work_per_s"] = summarize(
                sum(outcome.work for outcome in outcomes[lo:hi])
                / sum(times[lo:hi]) for lo, hi in blocks)
            values = {"setup_s": statistics.median(setup_times),
                      "op_ms": samples["op_s"]["median"] * 1e3,
                      "work_per_s": samples["work_per_s"]["median"],
                      "peak_rss_mb": rss}
        else:
            # The untraced leg is the overhead baseline; an open-loop
            # leg, where the workload has one, runs untraced too.
            leg = args.seconds / (3 if bench.open_loop else 2)
            with Speedometer() as meter:
                _, times, _, _ = timed_ops(lambda: bench.op(state), leg,
                                           run.account, meter)
            latency = bench.open_loop(state, leg) if bench.open_loop else {}
            tracer = SpanTracer()
            install_layers(tracer)
            try:
                traced, scale, counters = traced_pass(run, tracer, leg,
                                                      workdir)
            finally:
                tracer.unwrap_all()
            samples["op_s"] = summarize(times)
            samples["traced_op_s"] = summarize(d * scale for d in traced)
            values = layer_metrics(rollup(tracer.spans), len(traced),
                                   counters, latency)
            values["telemetry.trace_overhead_ratio"] = (
                samples["traced_op_s"]["median"]
                / samples["op_s"]["median"] - 1.0)
            values["telemetry.unattributed_ratio"] = (
                1.0 - attributed_seconds(tracer.spans, UMBRELLAS)
                / sum(traced))
            tracer.write_jsonl(RESULTS / f"spans-{bench.name}.jsonl")
        correct = True
        try:
            bench.check(state, [outcome.key for outcome in run.outcomes])
        except CheckFailed as exc:
            log(f"{bench.name}: CHECK FAILED: {exc}")
            correct = False
    finally:
        bench.dispose(state)
    units = spec["per_layer"] if args.trace else spec["end_to_end"]
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} do not "
                         f"match BENCHMARK.json")
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    result = {"correct": correct, "attempted": len(run.outcomes),
              "failed": sum(outcome.failed for outcome in run.outcomes),
              "metrics": metrics}
    return result, samples


def stop_helpers() -> None:
    """Join finished children and stop the shared-memory tracker."""
    for child in multiprocessing.active_children():
        child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker,
                                                              "_stop"):
        tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if args.workload not in spec["workloads"]:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from "
                         f"{spec['workloads']}")
    suffix = "-probe" if args.setup_probe else ""
    workdir = RESULTS / f"work-{args.workload}-{args.seed}{suffix}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tempfile.tempdir = str(workdir)
    try:
        if args.setup_probe:
            with Speedometer() as meter:
                bench, state, _, setup_wall = prepare(args, workdir)
            bench.dispose(state)
            print(json.dumps({"setup_s": setup_wall, "scale": meter.scale()}))
            return 0
        result, samples = measure(args, spec, workdir)
    finally:
        stop_helpers()
        shutil.rmtree(workdir, ignore_errors=True)
    host = host_fingerprint()
    append_record(RESULTS / "BENCH_pipeline.json", make_record(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), result=result, samples=samples, host=host))
    print(f"{args.workload} seed {args.seed} on {host['cores']} core(s), "
          f"{host['cpu']}, python {host['python']}, numpy {host['numpy']}")
    for name, sample in samples.items():
        print(f"  {name:<12s} median {sample['median']:.6g}  "
              f"IQR {relative_iqr(sample):.1%}  n={sample['n']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<34s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
