"""Measurement helpers for the pipeline benchmark.

One timed loop (back-to-back operations until the time budget is spent),
the speed sampler every time is scaled by, sample summaries (median,
quartiles, count), the host fingerprint every result carries, and the
``BENCH_*.json`` trajectory each run is appended to. The pure parts are
tested by ``test_harness.py``.

Every time the end-to-end metrics report is *scaled*: multiplied by
``REFERENCE_S`` over the median time of a fixed probe sampled while it
was measured (:class:`Speedometer`). On a shared virtual machine the
host's speed drifts by tens of percent within seconds and by up to two
times for stretches of seconds; the program and the probe slow down
together, so the scaled time follows the program and not the host. The
raw wall times are kept in the trajectory.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

RECORD_SCHEMA = 2
#: Operations every timed loop runs, however long they take.
MIN_OPS = 3
#: Seconds between two speed samples.
SAMPLE_PERIOD_S = 0.05
#: Speed samples a block of operations spans before it is closed.
BLOCK_SAMPLES = 10
#: The probe's CPU time on a calm 2-vCPU Intel Xeon VM; a scaled time
#: reads as seconds on a host that runs the probe this fast.
REFERENCE_S = 300e-6


class Speedometer:
    """Samples how fast this host runs a fixed probe, while it measures.

    Inside ``with Speedometer() as meter:`` a ``SIGALRM`` every
    ``SAMPLE_PERIOD_S`` runs :meth:`probe` in the main thread, between
    two bytecodes of whatever runs there (a blocking call is resumed
    after it), and appends its CPU time to :attr:`samples`. The probe
    takes under 1% of the time. A signal, not a thread, because the
    program forks its workers, and processes forked meanwhile do not
    inherit the timer.
    """

    def __init__(self) -> None:
        import numpy

        self._numpy = numpy
        rng = numpy.random.default_rng(0)
        self._small, self._small_out = rng.random(10), numpy.empty(10)
        self._medium, self._medium_out = rng.random(4096), numpy.empty(4096)
        self._previous = None
        self.samples: list[float] = []

    def probe(self) -> float:
        """CPU seconds of a fixed mix of the program's three kinds of
        work: interpreted loops, numpy calls on small arrays, numpy calls
        on arrays of thousands of elements; it allocates nothing.

        Host contention slows the three by different amounts: small calls
        twice as much as the workloads, medium ones less. Their sum moved
        with the operation times of ``deploy``, ``serve``, ``shards`` and
        ``screen`` (elasticity 0.8-1.0).
        """
        numpy = self._numpy
        small, small_out = self._small, self._small_out
        medium, medium_out = self._medium, self._medium_out
        start = time.thread_time()
        total = 0
        for i in range(1500):
            total += i * i
        for _ in range(150):
            numpy.add(small, small, out=small_out)
        for _ in range(15):
            numpy.multiply(medium, medium, out=medium_out)
            numpy.sqrt(medium_out, out=medium_out)
        return time.thread_time() - start

    def _sample(self, signum, frame) -> None:
        self.samples.append(self.probe())

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S,
                         SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, since: int = 0, until: "int | None" = None) -> float:
        """``REFERENCE_S`` over the median of ``samples[since:until]``,
        or of all samples when that window has none."""
        window = self.samples[since:until] or self.samples
        if not window:
            raise RuntimeError("the speedometer took no samples")
        return REFERENCE_S / statistics.median(window)


def summarize(values) -> dict:
    """Median, first and third quartile, and count of a sample.

    Quartiles use :func:`statistics.quantiles` with its default
    (exclusive) method; a single value is its own quartiles.
    """
    values = sorted(float(v) for v in values)
    if not values:
        raise ValueError("cannot summarize an empty sample")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def relative_iqr(summary: dict) -> float:
    """Quartile distance as a share of the median (0 for a zero median)."""
    median = summary["median"]
    return (summary["q3"] - summary["q1"]) / median if median else 0.0


def p99(values) -> float:
    """The 99th percentile by :func:`statistics.quantiles`."""
    values = [float(v) for v in values]
    if len(values) < 2:
        raise ValueError("a percentile needs at least two values")
    return statistics.quantiles(values, n=100)[98]


def cpu_model(cpuinfo: str) -> str:
    """The first ``model name`` in a ``/proc/cpuinfo`` text."""
    for line in cpuinfo.splitlines():
        key, sep, value = line.partition(":")
        if sep and key.strip() == "model name":
            return value.strip()
    return platform.processor() or platform.machine()


def host_fingerprint() -> dict:
    """Cores this process may run on, CPU model, Python and numpy."""
    import numpy

    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = cpu_model(fh.read())
    except OSError:
        model = cpu_model("")
    return {"cores": len(os.sched_getaffinity(0)), "cpu": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine()}


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_ops(op, seconds: float, after, meter: Speedometer):
    """Run ``op()`` back to back for ``seconds`` (and ``MIN_OPS`` times).

    ``meter`` must be sampling. Operations are grouped in blocks that
    each span ``BLOCK_SAMPLES`` speed samples (or end at the deadline);
    an operation is scaled by its block's samples. Returns ``(raw,
    scaled, kept, blocks)``: the wall seconds of each call, the same
    scaled, for each ``after(result)`` — run right after the call,
    outside the timed region, so a large result need not outlive it —
    and each block's ``(first, end)`` operation indices.
    """
    raw, scaled, kept, blocks = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(raw) < MIN_OPS or time.perf_counter() < deadline:
        first, since = len(raw), len(meter.samples)
        while len(raw) == first or (
                len(meter.samples) - since < BLOCK_SAMPLES
                and time.perf_counter() < deadline):
            start = time.perf_counter()
            result = op()
            raw.append(time.perf_counter() - start)
            kept.append(after(result))
            del result
        factor = meter.scale(since, len(meter.samples))
        scaled.extend(d * factor for d in raw[first:])
        blocks.append((first, len(raw)))
    return raw, scaled, kept, blocks


def make_record(*, workload: str, seed: int, seconds: float, trace: bool,
                result: dict, samples: dict, host: dict) -> dict:
    """One trajectory entry: the printed result plus its context."""
    return {"schema": RECORD_SCHEMA, "unix_time": time.time(),
            "host": host, "workload": workload, "seed": seed,
            "seconds": seconds, "trace": bool(trace),
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": result["metrics"],
            "samples": samples}


def append_record(path: Path, record: dict) -> None:
    """Append ``record`` to the JSON list at ``path`` (tmp + rename)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    records = []
    if path.exists():
        records = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(records, list):
            raise ValueError(f"{path} does not hold a JSON list")
    records.append(record)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def log(message: str) -> None:
    """Progress lines go to stderr; stdout ends with the result line."""
    print(message, file=sys.stderr, flush=True)
