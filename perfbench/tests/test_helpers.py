"""Tests for the benchmark's own helpers.

Run with ``python3 -m pytest perfbench/tests`` from the checkout root.
"""

from __future__ import annotations

import types

import numpy as np
import pytest

import measure
import oracle
from oracle import Accuracy, ExactCounts
from repro.engine import AverageQuery, CountQuery, FrequencyQuery, SumQuery
from repro.estimators.intervals import ConfidenceInterval
from repro.estimators.selectivity import Predicate
from spans import Span, SpanRecorder, TraceSwitch, profile_requests


# -- percentiles -----------------------------------------------------------


def test_samples_needed_leaves_ten_beyond():
    assert measure.samples_needed(50) == 20
    assert measure.samples_needed(95) == 200
    assert measure.samples_needed(99) == 1000
    for q in (50, 90, 95, 99):
        n = measure.samples_needed(q)
        rank = q / 100 * (n - 1)
        assert n - 1 - int(np.floor(rank)) >= measure.MIN_BEYOND


def test_percentile_refuses_thin_classes():
    with pytest.raises(measure.TooFewSamples):
        measure.percentile(list(range(199)), 95)
    samples = list(range(200))
    assert measure.percentile(samples, 95) == pytest.approx(np.percentile(samples, 95))


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.3]
    spread = measure.quartile_spread(values)
    q1, median, q3 = __import__("statistics").quantiles(values, n=4)
    assert spread == pytest.approx((q3 - q1) / median)


# -- spans and self time ---------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_times_of_nested_spans_sum_to_the_root():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    root = recorder.begin("serving.query")
    clock.now = 1.0
    engine = recorder.begin("engine.answer")
    clock.now = 2.0
    core = recorder.begin("core.expand")
    clock.now = 5.0
    recorder.end(core)
    clock.now = 6.0
    recorder.end(engine)
    clock.now = 10.0
    recorder.end(root)
    (profile,) = profile_requests(recorder.spans)
    assert profile.duration == 10.0
    assert dict(profile.self_time) == {
        "serving.query": 5.0,
        "engine.answer": 2.0,
        "core.expand": 3.0,
    }
    assert sum(profile.self_time.values()) == profile.duration
    assert profile.total_time["engine.answer"] == 5.0


def test_overlapping_siblings_count_once():
    # Two shard encodes running at once on pool threads, both children
    # of the request's root span.
    spans = [
        Span(0, "cluster.ingest", -1, 0.0, 10.0),
        Span(0, "cluster.encode", 0, 1.0, 4.0),
        Span(0, "cluster.encode", 0, 2.0, 5.0),
        Span(0, "cluster.encode", 0, 2.5, 3.0),  # wholly shadowed
    ]
    (profile,) = profile_requests(spans)
    assert profile.self_time["cluster.encode"] == pytest.approx(4.0)
    assert profile.self_time["cluster.ingest"] == pytest.approx(6.0)
    assert sum(profile.self_time.values()) == pytest.approx(10.0)
    assert profile.calls["cluster.encode"] == 3
    assert profile.total_time["cluster.encode"] == pytest.approx(6.5)


def test_requests_are_split_by_root():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    for name in ("serving.query", "serving.ingest"):
        root = recorder.begin(name)
        clock.now += 1
        recorder.end(root)
    profiles = profile_requests(recorder.spans)
    assert [p.root for p in profiles] == ["serving.query", "serving.ingest"]


def test_wrap_times_calls_and_unwrap_restores():
    class Engine:
        def answer(self, x):
            return x + 1

    engine = Engine()
    module = types.ModuleType("fake")
    module.encode = lambda x: x * 2
    original = module.encode
    recorder = SpanRecorder()
    recorder.wrap(engine, "answer", "engine.answer")
    recorder.wrap(module, "encode", "cluster.encode")
    root = recorder.begin("root")
    assert engine.answer(1) == 2
    assert module.encode(3) == 6
    recorder.end(root)
    recorder.unwrap_all()
    assert "answer" not in vars(engine)
    assert module.encode is original
    names = [span.name for span in recorder.spans]
    assert names == ["root", "engine.answer", "cluster.encode"]
    assert all(span.parent == 0 for span in recorder.spans[1:])


def test_trace_switch_installs_only_while_on():
    class Engine:
        def answer(self):
            return 1

    engine = Engine()
    recorder = SpanRecorder()
    switch = TraceSwitch(
        recorder, lambda r: r.wrap(engine, "answer", "engine.answer")
    )
    assert switch.set(False) is None and "answer" not in vars(engine)
    assert switch.set(True) is recorder and "answer" in vars(engine)
    assert switch.set(True) is recorder  # no second wrapper
    root = recorder.begin("root")
    engine.answer()
    recorder.end(root)
    switch.set(False)
    assert "answer" not in vars(engine)
    assert [span.name for span in recorder.spans] == ["root", "engine.answer"]


def test_phase_files_latencies_by_class_and_tracing():
    phase = measure.Phase(tracing=True)
    phase.record("query", 0.001, traced=False)
    phase.record("query", 0.002, traced=True)
    phase.record("ingest", 0.003, traced=True)
    assert phase.query_seconds == [0.001]
    assert phase.traced_query_seconds == [0.002]
    assert phase.traced_ingest_seconds == [0.003]
    assert phase.attempted == 3
    assert not phase.enough()


# -- operation classes -------------------------------------------------------


def test_query_plan_tags_kinds_by_pattern_and_never_repeats():
    plan = oracle.query_plan(seed=7, ranges=2_000)
    queries = [plan.query(i) for i in range(1_600)]
    kinds = {
        CountQuery: oracle.COUNT,
        SumQuery: oracle.SUM,
        AverageQuery: oracle.AVERAGE,
        FrequencyQuery: oracle.FREQUENCY,
    }
    for index, query in enumerate(queries):
        assert kinds[type(query)] == oracle.PATTERN[index % len(oracle.PATTERN)]
    assert len(set(queries)) == len(queries)


def test_pattern_puts_each_percentile_inside_one_kind():
    # Measured cost order on the reference machine: frequency < count
    # < average < sum.  Each reported rank must sit at least five
    # percentile points away from a boundary between two kinds.
    order = (oracle.FREQUENCY, oracle.COUNT, oracle.AVERAGE, oracle.SUM)
    shares = [oracle.PATTERN.count(kind) / len(oracle.PATTERN) for kind in order]
    edges = np.cumsum([0.0] + shares) * 100
    for q, kind in ((50, oracle.FREQUENCY), (95, oracle.SUM)):
        band = order.index(kind)
        assert edges[band] + 5 <= q <= edges[band + 1] - 5


def test_same_seed_same_inputs():
    first = oracle.batch(100, seed=3, attributes=4, index=9)
    second = oracle.batch(100, seed=3, attributes=4, index=9)
    other = oracle.batch(100, seed=4, attributes=4, index=9)
    assert list(first) == list(oracle.ATTRIBUTES)
    for name in first:
        assert np.array_equal(first[name], second[name])
    assert not np.array_equal(first["item"], other["item"])
    # Any integer seed is accepted, negative ones included.
    assert len(oracle.batch(10, seed=-5, attributes=1, index=0)["item"]) == 10


# -- the exact oracle --------------------------------------------------------


def test_exact_counts_answer_a_tiny_stream():
    rows = np.array([1, 1, 2, 5, 5, 5, 9])
    truth = ExactCounts()
    truth.add(rows[:4])
    truth.add(rows[4:])
    predicate = Predicate(low=2, high=5)
    inside = rows[(rows >= 2) & (rows <= 5)]
    assert truth.rows == 7
    assert truth.truth(FrequencyQuery("sales", "item", 5)) == 3
    assert truth.truth(FrequencyQuery("sales", "item", 3)) == 0
    assert truth.truth(CountQuery("sales", "item", predicate)) == len(inside)
    assert truth.truth(SumQuery("sales", "item", predicate)) == inside.sum()
    assert truth.truth(AverageQuery("sales", "item", predicate)) == inside.mean()


def test_accuracy_scores_error_coverage_and_width():
    accuracy = Accuracy()
    accuracy.score(110.0, 100.0, ConfidenceInterval(90.0, 130.0, 0.95))
    accuracy.score(50.0, 100.0, ConfidenceInterval(40.0, 60.0, 0.95))
    accuracy.score(7.0, 0.0, None)  # no truth to divide by, no interval
    metrics = accuracy.metrics()
    assert metrics["rel_error_p50"] == pytest.approx(0.3)
    assert metrics["interval_coverage"] == 0.5
    assert metrics["interval_rel_halfwidth_p50"] == pytest.approx(0.15)
