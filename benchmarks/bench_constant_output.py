"""Section IX-A: the constant-HPC-output strawman.

Paper: padding DATA_CACHE_REFILLS_FROM_SYSTEM to its peak p while
loading youtube.com costs 595,371,616 injected counts vs 33,090,214 for
the Laplace mechanism at eps=2^0 — an ~18x overkill.
"""

import numpy as np
import pytest

from benchmarks.conftest import SLICE_S, WINDOW_S, emit, once
from repro.core.obfuscator import EventObfuscator, estimate_sensitivity
from repro.attacks import TraceCollector
from repro.cpu.events import processor_catalog
from repro.workloads import WebsiteWorkload


@pytest.mark.benchmark(group="discussion")
def test_constant_output_is_overkill(benchmark):
    def run():
        workload = WebsiteWorkload()
        event = "DATA_CACHE_REFILLS_FROM_SYSTEM"
        collector = TraceCollector(workload, events=(event,),
                                   duration_s=WINDOW_S, slice_s=SLICE_S,
                                   rng=91)
        dataset = collector.collect(10, secrets=workload.secrets[:8])
        sensitivity = estimate_sensitivity(dataset.traces[:, 0, :],
                                           dataset.labels)

        catalog = processor_catalog("amd-epyc-7252")
        weights = catalog.weights[catalog.index_of(event)]
        matrix = workload.generate_signals(
            "youtube.com", np.random.default_rng(0), WINDOW_S, SLICE_S)
        values = matrix @ weights
        peak = float(values.max())

        constant_output_counts = float((peak - values).sum())
        obfuscator = EventObfuscator("laplace", epsilon=1.0,
                                     sensitivity=sensitivity,
                                     reference_event=event, rng=92)
        obfuscator.obfuscate_matrix(matrix, SLICE_S)
        laplace_counts = obfuscator.last_report.total_reference_counts
        return peak, constant_output_counts, laplace_counts

    peak, constant_counts, laplace_counts = once(benchmark, run)
    ratio = constant_counts / laplace_counts
    emit("constant_output", "\n".join([
        "obfuscating DATA_CACHE_REFILLS_FROM_SYSTEM while loading "
        "youtube.com:",
        f"  peak value p: {peak:.4g} counts/slice",
        f"  constant-output padding: {constant_counts:.4g} counts total "
        "(paper: 595,371,616)",
        f"  Laplace eps=2^0:         {laplace_counts:.4g} counts total "
        "(paper: 33,090,214)",
        f"  overkill factor: {ratio:.1f}x (paper: ~18x)",
    ]))
    # Constant output is multiples more expensive (paper measured 18x;
    # our synthetic sites have larger refill gaps relative to peak, so
    # the Laplace volume is proportionally bigger and the factor lands
    # lower — the ordering and the multiple are what reproduce).
    assert ratio > 2.5
