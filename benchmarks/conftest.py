"""Shared fixtures and scale configuration for the benchmark suite.

Every benchmark regenerates one table or figure from the paper's
evaluation and prints the corresponding rows/series (also written to
``benchmarks/results/``). Scales are reduced relative to the paper's
testbed (fewer runs per secret, coarser sampling, sampled gadget
budgets); the *shape* of each result is what is reproduced.

Set ``REPRO_BENCH_SCALE=full`` for paper-scale class counts (slower).
Set ``REPRO_BENCH_SMOKE=1`` for the CI regression-gate scale: budgets
shrink to a size a shared runner finishes in seconds, and each bench
also emits a machine-readable ``<name>.metrics.json`` that
``benchmarks/regression_gate.py`` compares against the committed
``benchmarks/results/baseline.json``.
"""

from __future__ import annotations

import json
import os
import pathlib

import numpy as np
import pytest

from repro.attacks import TraceCollector
from repro.core.obfuscator import estimate_sensitivity
from repro.workloads import DnnWorkload, KeystrokeWorkload, WebsiteWorkload

FULL_SCALE = os.environ.get("REPRO_BENCH_SCALE", "") == "full"
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

#: Benchmark scale knobs (paper values in comments).
WFA_SITES = 45 if FULL_SCALE else 10          # paper: 45
WFA_RUNS = 24                                  # paper: 1000
KSA_RUNS = 40                                  # paper: 1000
MEA_MODELS = 30 if FULL_SCALE else 10          # paper: 30
MEA_RUNS = 8                                   # paper: 1000
SLICE_S = 0.01                                 # paper: 0.001
MEA_SLICE_S = 0.004
WINDOW_S = 3.0                                 # paper: 3.0

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def emit_metrics(name: str, metrics: dict) -> None:
    """Persist a bench's scalar metrics for the CI regression gate."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.metrics.json"
    path.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def once(benchmark, fn):
    """Run ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture(scope="session")
def website_workload():
    return WebsiteWorkload()


@pytest.fixture(scope="session")
def website_sites(website_workload):
    return website_workload.secrets[:WFA_SITES]


@pytest.fixture(scope="session")
def website_dataset(website_workload, website_sites):
    """Clean WFA dataset shared by several benchmarks."""
    collector = TraceCollector(website_workload, duration_s=WINDOW_S,
                               slice_s=SLICE_S, rng=1)
    return collector.collect(WFA_RUNS, secrets=website_sites)

@pytest.fixture(scope="session")
def website_sensitivity(website_dataset):
    """RETIRED_UOPS sensitivity of the website workload."""
    return estimate_sensitivity(website_dataset.traces[:, 0, :],
                                website_dataset.labels)


@pytest.fixture(scope="session")
def keystroke_dataset():
    collector = TraceCollector(KeystrokeWorkload(), duration_s=WINDOW_S,
                               slice_s=SLICE_S, rng=3)
    return collector.collect(KSA_RUNS)


@pytest.fixture(scope="session")
def dnn_workload():
    return DnnWorkload()


@pytest.fixture(scope="session")
def dnn_models(dnn_workload):
    return dnn_workload.secrets[:MEA_MODELS]


@pytest.fixture(scope="session")
def dnn_dataset(dnn_workload, dnn_models):
    collector = TraceCollector(dnn_workload, duration_s=WINDOW_S,
                               slice_s=MEA_SLICE_S, rng=5)
    return collector.collect(MEA_RUNS, secrets=dnn_models,
                             with_frames=True)


@pytest.fixture(scope="session")
def fuzz_report():
    """One full fuzzing campaign over every guest-sensitive AMD event."""
    from repro.core.fuzzer import EventFuzzer
    from repro.cpu.events import processor_catalog
    catalog = processor_catalog("amd-epyc-7252")
    events = np.flatnonzero(catalog.guest_sensitive)
    fuzzer = EventFuzzer(gadget_budget=2000, confirm_per_event=10, rng=11)
    return fuzzer.fuzz(events)


@pytest.fixture(scope="session")
def clean_google_matrix(website_workload):
    """One clean signal matrix for overhead accounting."""
    return website_workload.generate_signals(
        "google.com", np.random.default_rng(0), WINDOW_S, SLICE_S)
