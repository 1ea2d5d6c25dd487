"""Tests for the pure parts of the benchmark harness and span tracer.

Run from the repository root: ``python3 -m pytest perfbench/test_harness.py``.
"""

import json
import signal
import statistics
import threading
import time

import pytest

from harness import (
    REFERENCE_S,
    Speedometer,
    append_record,
    cpu_model,
    host_fingerprint,
    make_record,
    p99,
    relative_iqr,
    summarize,
    timed_ops,
)
from tracing import (
    Span,
    SpanTracer,
    attributed_seconds,
    covered_length,
    rollup,
    self_times,
)


def test_summarize_matches_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert summarize(values) == {"median": 3.5, "q1": q1, "q3": q3, "n": 6}


def test_summarize_single_value_and_empty():
    assert summarize([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}
    with pytest.raises(ValueError):
        summarize([])


def test_relative_iqr():
    assert relative_iqr({"median": 2.0, "q1": 1.5, "q3": 2.5}) == 0.5
    assert relative_iqr({"median": 0.0, "q1": 0.0, "q3": 0.0}) == 0.0


def test_p99():
    values = list(range(1, 101))
    assert p99(values) == statistics.quantiles(values, n=100)[98]
    with pytest.raises(ValueError):
        p99([1.0])


def test_speedometer_scale_uses_the_window_or_all_samples():
    meter = Speedometer()
    with pytest.raises(RuntimeError):
        meter.scale()
    meter.samples = [REFERENCE_S, 2 * REFERENCE_S, 4 * REFERENCE_S]
    assert meter.scale() == 0.5
    assert meter.scale(2, 3) == 0.25
    assert meter.scale(3) == 0.5


def test_speedometer_samples_while_entered_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with Speedometer() as meter:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(meter.samples) >= 2
    assert all(sample > 0 for sample in meter.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_cpu_model_parses_first_model_name():
    text = ("processor\t: 0\nmodel name\t: Example CPU @ 2.0GHz\n"
            "processor\t: 1\nmodel name\t: Other\n")
    assert cpu_model(text) == "Example CPU @ 2.0GHz"
    assert cpu_model("processor\t: 0\n")  # falls back, never empty here


def test_host_fingerprint_fields():
    host = host_fingerprint()
    assert set(host) == {"cores", "cpu", "python", "numpy", "machine"}
    assert host["cores"] >= 1


def test_record_schema_and_append(tmp_path):
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"op_ms": {"value": 1.5, "unit": "ms"}}}
    record = make_record(workload="screen", seed=7, seconds=10.0, trace=False,
                         result=result, samples={}, host={"cores": 2})
    assert tuple(record) == ("schema", "unix_time", "host", "workload",
                             "seed", "seconds", "trace", "correct",
                             "attempted", "failed", "metrics", "samples")
    path = tmp_path / "results" / "BENCH_test.json"
    append_record(path, record)
    append_record(path, dict(record, seed=8))
    stored = json.loads(path.read_text(encoding="utf-8"))
    assert [r["seed"] for r in stored] == [7, 8]
    assert list(path.parent.iterdir()) == [path]


def test_append_record_refuses_a_non_list(tmp_path):
    path = tmp_path / "BENCH_bad.json"
    path.write_text("{}", encoding="utf-8")
    with pytest.raises(ValueError):
        append_record(path, {})


def test_timed_ops_runs_min_ops_and_scales_each_block_by_its_samples():
    meter = Speedometer()

    def op():
        # Past the deadline every block holds one operation; the i-th
        # leaves one sample saying the host ran (i + 1) times slower.
        meter.samples.append(REFERENCE_S * (len(meter.samples) + 1))
        return len(meter.samples)

    raw, times, kept, blocks = timed_ops(op, seconds=0.0,
                                         after=lambda n: -n, meter=meter)
    assert kept == [-1, -2, -3]
    assert blocks == [(0, 1), (1, 2), (2, 3)]
    assert times == pytest.approx([d / (i + 1) for i, d in enumerate(raw)])


def test_covered_length_merges_and_clips():
    assert covered_length([(1, 3), (2, 4), (6, 20)], 0, 10) == 7
    assert covered_length([], 0, 1) == 0


def test_self_times_and_rollup():
    spans = [Span(0, None, "outer", 0.0, 10.0),
             Span(1, 0, "inner", 1.0, 4.0, {"n": 2}),
             Span(2, 0, "inner", 5.0, 6.0, {"n": 3}),
             Span(3, 1, "leaf", 2.0, 3.0)]
    assert self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    layers = rollup(spans)
    assert layers["inner"] == {"calls": 2, "wall_s": 4.0, "self_s": 3.0,
                               "n": 5}
    assert sum(layer["self_s"] for layer in layers.values()) == 10.0
    assert attributed_seconds(spans, {"outer"}) == 4.0


class _Target:
    def work(self, x):
        return x * 2


def test_span_tracer_records_only_while_active():
    original = _Target.work
    tracer = SpanTracer()
    tracer.wrap(_Target, "work", "target.work",
                attrs=lambda args, result: {"out": result})
    try:
        assert _Target.work is not original
        assert _Target().work(1) == 2
        assert tracer.spans == []
        tracer.active = True
        assert _Target().work(3) == 6
    finally:
        tracer.unwrap_all()
    assert [(s.name, s.parent_id, s.attrs) for s in tracer.spans] == [
        ("target.work", None, {"out": 6})]
    assert _Target.work is original


def test_span_tracer_ignores_other_threads():
    tracer = SpanTracer()
    tracer.wrap(_Target, "work", "target.work")
    try:
        tracer.active = True
        worker = threading.Thread(target=_Target().work, args=(1,))
        worker.start()
        worker.join()
        _Target().work(2)
    finally:
        tracer.unwrap_all()
    assert [s.name for s in tracer.spans] == ["target.work"]


class _Child(_Target):
    pass


def test_unwrap_restores_an_inherited_method_by_deleting_the_wrapper():
    tracer = SpanTracer()
    tracer.wrap(_Child, "work", "child.work")
    assert "work" in vars(_Child)
    tracer.unwrap_all()
    assert "work" not in vars(_Child)
    assert _Child.work is _Target.work
