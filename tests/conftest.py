"""Shared fixtures: cached catalogs and small deterministic objects."""

import os

import numpy as np
import pytest

from repro.core.fuzzer import EventFuzzer
from repro.cpu.core import Core
from repro.cpu.events import processor_catalog
from repro.isa.catalog import build_catalog, shared_catalog


@pytest.fixture(scope="session", autouse=True)
def _session_telemetry():
    """Export session telemetry when ``REPRO_TEST_TRACE_DIR`` is set.

    CI points this at a scratch directory and uploads it as an
    artifact when a job fails, so a red run ships its span traces and
    metrics for post-mortems. Tests that open their own telemetry
    sessions nest inside (and restore) this one, and each xdist worker
    writes its own ``trace-<worker>.jsonl``, so the export is safe
    under ``-n auto``. Without the variable this is a no-op.
    """
    trace_dir = os.environ.get("REPRO_TEST_TRACE_DIR", "")
    if not trace_dir:
        yield
        return
    from repro.telemetry import runtime as telemetry
    worker = os.environ.get("PYTEST_XDIST_WORKER", "main")
    runtime = telemetry.configure(trace_dir=trace_dir, process=worker)
    try:
        yield
    finally:
        # Flush the runtime we created even if a test left a different
        # one installed (sessions restore, but a crashed test might
        # not have).
        runtime.flush()
        telemetry.disable()


@pytest.fixture(scope="session")
def amd_catalog():
    return processor_catalog("amd-epyc-7252")


@pytest.fixture(scope="session")
def shared_isa():
    """The process-wide shared ISA catalog (what campaign workers use)."""
    return shared_catalog()


@pytest.fixture(scope="session")
def fuzz_events(amd_catalog):
    """A small, diverse set of event indices for fast fuzzing runs."""
    names = ("RETIRED_UOPS", "DATA_CACHE_REFILLS_FROM_SYSTEM",
             "RETIRED_COND_BRANCHES", "CACHE_LINE_FLUSHES")
    return [amd_catalog.index_of(n) for n in names]


@pytest.fixture(scope="session")
def make_fuzzer(shared_isa):
    """Factory for laptop-scale fuzzers sharing the prebuilt catalog.

    Defaults give a 4-shard budget so campaign tests exercise real
    sharding while staying fast; any default can be overridden.
    """
    def factory(**kwargs):
        kwargs.setdefault("gadget_budget", 160)
        kwargs.setdefault("shard_size", 40)
        kwargs.setdefault("confirm_per_event", 4)
        kwargs.setdefault("rng", 11)
        return EventFuzzer(**kwargs)
    return factory


@pytest.fixture(scope="session")
def intel_catalog():
    return processor_catalog("intel-xeon-e5-1650")


@pytest.fixture(scope="session")
def isa_catalog():
    return build_catalog()


@pytest.fixture()
def core():
    return Core("amd-epyc-7252", rng=np.random.default_rng(42))


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
