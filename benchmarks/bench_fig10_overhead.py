"""Fig. 10: latency and CPU-usage overhead vs privacy budget.

Paper: smaller epsilon -> more injected instructions -> more overhead;
at equal epsilon the d* mechanism costs more than Laplace; at the
chosen operating points the paper reports 3.18-4.95% execution-time
overhead and 6.92-8.66% CPU-usage overhead for website accesses and
model inference. Overhead needs no attack training, so the full sweep
runs here.
"""

import numpy as np
import pytest

from benchmarks.conftest import SLICE_S, WINDOW_S, emit, once
from repro.analysis import measure_overhead
from repro.core.obfuscator import EventObfuscator, estimate_sensitivity
from repro.attacks import TraceCollector
from repro.workloads import DnnWorkload, WebsiteWorkload

EPSILONS = [2.0 ** k for k in range(3, -4, -1)]


def _workload_matrix(workload, secret, rng_seed):
    return workload.generate_signals(secret, np.random.default_rng(rng_seed),
                                     WINDOW_S, SLICE_S)


@pytest.mark.benchmark(group="fig10")
def test_fig10_latency_and_cpu_overhead(benchmark, website_sensitivity):
    def run():
        website = WebsiteWorkload()
        dnn = DnnWorkload()
        # DNN sensitivity from a small clean dataset.
        collector = TraceCollector(dnn, duration_s=WINDOW_S, slice_s=SLICE_S,
                                   rng=7)
        dnn_ds = collector.collect(5, secrets=dnn.secrets[:8])
        dnn_sensitivity = estimate_sensitivity(dnn_ds.traces[:, 0, :],
                                               dnn_ds.labels)
        apps = {
            "website": (_workload_matrix(website, "google.com", 0),
                        website_sensitivity),
            "dnn-inference": (_workload_matrix(dnn, "resnet50", 0),
                              dnn_sensitivity),
        }
        rows = []
        for app, (matrix, sensitivity) in apps.items():
            for mechanism in ("laplace", "dstar"):
                for eps in EPSILONS:
                    obf = EventObfuscator(mechanism, epsilon=eps,
                                          sensitivity=sensitivity, rng=71)
                    obf.obfuscate_matrix(matrix, SLICE_S)
                    overhead = measure_overhead(matrix, obf.last_report,
                                                SLICE_S)
                    rows.append((app, mechanism, eps,
                                 overhead.latency_overhead,
                                 overhead.cpu_usage_overhead))
        return rows

    rows = once(benchmark, run)
    lines = [f"{'application':<14s} {'mechanism':<9s} {'eps':>7s} "
             f"{'latency':>9s} {'cpu':>8s}",
             "(paper operating points: Laplace eps=2^0 -> 3.18%/4.36% "
             "latency, 6.92%/7.87% CPU; d* eps=2^3 -> 3.94%/4.95%, "
             "7.64%/8.66%)"]
    for app, mechanism, eps, lat, cpu in rows:
        lines.append(f"{app:<14s} {mechanism:<9s} {eps:>7.3f} "
                     f"{lat:>9.2%} {cpu:>8.2%}")
    emit("fig10_overhead", "\n".join(lines))

    by_key = {(a, m, e): (lat, cpu) for a, m, e, lat, cpu in rows}
    for app in ("website", "dnn-inference"):
        lap = [by_key[(app, "laplace", e)][0] for e in EPSILONS]
        # Latency overhead grows monotonically as eps shrinks.
        assert all(a <= b + 1e-6 for a, b in zip(lap, lap[1:]))
        # d* costs more than Laplace at equal eps.
        assert by_key[(app, "dstar", 1.0)][0] \
            > by_key[(app, "laplace", 1.0)][0]
        # At a generous budget the overhead is a few percent.
        assert by_key[(app, "laplace", 8.0)][0] < 0.10
