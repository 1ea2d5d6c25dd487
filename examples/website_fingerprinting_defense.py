"""Full WFA scenario: profile, fuzz, deploy, and sweep the budget.

Walks the complete Aegis pipeline for the website workload (a subset of
the 45 sites to keep the run short): Application Profiler output,
Event Fuzzer campaign summary, then attack accuracy and overhead as a
function of the privacy budget epsilon for both DP mechanisms.

Run:  python examples/website_fingerprinting_defense.py
"""

import numpy as np

from repro import Aegis, TraceCollector, WebsiteFingerprintingAttack, WebsiteWorkload
from repro.analysis import measure_overhead
from repro.core.obfuscator import EventObfuscator


def main() -> None:
    workload = WebsiteWorkload()
    secrets = workload.secrets[:8]

    print("=== offline stage: Application Profiler + Event Fuzzer ===")
    aegis = Aegis(workload, mechanism="laplace", epsilon=0.25,
                  runs_per_secret=6, gadget_budget=800, rng=7)
    profiler_report = aegis.profile(secrets=secrets)
    warmup = profiler_report.warmup
    print(f"warm-up: {warmup.total_events} events -> "
          f"{warmup.surviving_count} responsive "
          f"({warmup.surviving_fraction:.1%}); "
          f"T_W = {warmup.simulated_seconds / 3600:.2f} simulated hours")
    print("top-4 vulnerable events (the attacker's likely choice):")
    for name, mi in profiler_report.ranking.top(4):
        print(f"  {name:<40s} I(Y;X) = {mi:.3f} bits")

    fuzzing_report = aegis.fuzz(profiler_report)
    stats = fuzzing_report.gadget_count_stats()
    print(f"\nfuzzer: {fuzzing_report.gadgets_tested} gadgets sampled of "
          f"{fuzzing_report.search_space_size:,} possible pairs")
    print(f"usable gadgets/event: mean {stats['mean']:.0f}, "
          f"median {stats['median']:.0f}, max {stats['max']:.0f}")
    print(f"covering set: {len(fuzzing_report.covering_set)} gadgets cover "
          f"{sum(len(v) for v in fuzzing_report.covering_set.values())} "
          f"events")

    obfuscator = aegis.build_obfuscator(fuzzing_report, secrets=secrets)
    sensitivity = obfuscator.mechanism.sensitivity
    print(f"calibrated sensitivity: {sensitivity:.3g} counts/slice\n")

    print("=== online stage: attack accuracy vs privacy budget ===")
    baseline_collector = TraceCollector(workload, duration_s=3.0,
                                        slice_s=0.01, rng=1)
    clean = baseline_collector.collect(16, secrets=secrets)
    attack = WebsiteFingerprintingAttack(num_sites=len(secrets),
                                         downsample=2, epochs=30,
                                         batch_size=16, rng=2)
    print(f"undefended accuracy: {attack.run(clean).test_accuracy:.1%}")

    clean_matrix = workload.generate_signals("google.com",
                                             np.random.default_rng(0), 3.0,
                                             0.01)

    print(f"{'mechanism':<9s} {'eps':>6s} {'accuracy':>9s} "
          f"{'latency':>8s} {'cpu':>7s}")
    for mechanism in ("laplace", "dstar"):
        for eps in (2.0, 0.5, 0.125):
            obf = EventObfuscator(mechanism, epsilon=eps,
                                  sensitivity=sensitivity,
                                  segment_signals=obfuscator
                                  .injector.segment_signals, rng=5)
            collector = TraceCollector(workload, duration_s=3.0,
                                       slice_s=0.01, obfuscator=obf, rng=1)
            dataset = collector.collect(12, secrets=secrets)
            attack = WebsiteFingerprintingAttack(
                num_sites=len(secrets), downsample=2, epochs=25,
                batch_size=16, rng=2)
            accuracy = attack.run(dataset).test_accuracy
            overhead = measure_overhead(clean_matrix, obf.reports[-1], 0.01)
            print(f"{mechanism:<9s} {eps:>6.3f} {accuracy:>9.1%} "
                  f"{overhead.latency_overhead:>8.1%} "
                  f"{overhead.cpu_usage_overhead:>7.1%}")


if __name__ == "__main__":
    main()
