"""Fig. 9c: mutual information I(X; X') between clean and noised traces.

Paper: as epsilon shrinks (more noise), I(X; X') between the clean and
obfuscated leakage traces falls toward zero, which by data processing
bounds what ANY attack model can extract.
"""

import numpy as np
import pytest

from benchmarks.conftest import SLICE_S, WINDOW_S, emit, once
from repro.analysis import trace_mutual_information
from repro.core.obfuscator import EventObfuscator
from repro.workloads import WebsiteWorkload

EPSILONS = [2.0 ** k for k in range(3, -4, -1)]


@pytest.mark.benchmark(group="fig9")
def test_fig9c_clean_vs_noised_mi(benchmark, website_sensitivity):
    def run():
        workload = WebsiteWorkload()
        rng = np.random.default_rng(31)
        matrices = []
        for _ in range(40):
            matrices.append(workload.generate_signals("google.com", rng,
                                                      WINDOW_S, SLICE_S))
        from repro.cpu.events import processor_catalog
        catalog = processor_catalog("amd-epyc-7252")
        weights = catalog.weights[catalog.index_of("RETIRED_UOPS")]
        clean = np.stack([m @ weights for m in matrices])
        rows = []
        for eps in EPSILONS:
            obfuscator = EventObfuscator(
                "laplace", epsilon=eps, sensitivity=website_sensitivity,
                rng=32)
            noised = np.stack([
                obfuscator.obfuscate_matrix(m, SLICE_S) @ weights
                for m in matrices])
            rows.append((eps, trace_mutual_information(clean, noised)))
        return rows

    rows = once(benchmark, run)
    lines = [f"{'epsilon':>8s} {'I(X;X-noised) bits':>20s}",
             "(paper: decreases monotonically toward ~0 as eps shrinks)"]
    lines += [f"{eps:>8.3f} {mi:>20.4f}" for eps, mi in rows]
    emit("fig9c_trace_mi", "\n".join(lines))

    mi_values = [mi for _, mi in rows]
    # Statistically monotone: largest-eps MI far above smallest-eps MI.
    assert mi_values[0] > 4 * mi_values[-1]
    assert mi_values[-1] < 0.5
