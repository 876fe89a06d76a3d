"""Trace export: the bounded sink and the JSONL round-trip."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.core.concise import ConciseSample
from repro.engine.cache import QueryResultCache
from repro.engine.engine import ApproximateAnswerEngine
from repro.engine.queries import CountQuery, HotListQuery
from repro.engine.warehouse import DataWarehouse
from repro.estimators import Predicate
from repro.hotlist.concise import ConciseHotList
from repro.obs.audit import CalibrationAuditor
from repro.obs.metrics import MetricsRegistry
from repro.obs.sink import TraceSink, read_trace_file, span_tree
from repro.obs.tracing import Tracer


@pytest.fixture(autouse=True)
def _restore_obs_defaults():
    yield
    obs.disable()


def traced_engine(registry: MetricsRegistry) -> ApproximateAnswerEngine:
    """An engine exercising every child-span phase: cache, audit, exact."""
    warehouse = DataWarehouse()
    warehouse.create_relation("sales", ["item"])
    engine = ApproximateAnswerEngine(
        warehouse,
        tracer=Tracer(registry),
        cache=QueryResultCache(capacity=16, registry=registry),
        auditor=CalibrationAuditor(1.0, seed=5, registry=registry),
    )
    engine.register_sample("sales", "item", ConciseSample(400, seed=1))
    engine.register_hotlist(
        "sales", "item", ConciseHotList(400, seed=2)
    )
    warehouse.load_batch(
        "sales", {"item": [value % 40 for value in range(4_000)]}
    )
    return engine


def run_queries(engine: ApproximateAnswerEngine) -> None:
    engine.answer(CountQuery("sales", "item", Predicate(high=10)))
    engine.answer(CountQuery("sales", "item", Predicate(high=10)))  # hit
    engine.answer(HotListQuery("sales", "item", k=3))
    engine.answer(CountQuery("sales", "item", None), exact=True)


class TestRing:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            TraceSink(0, registry=MetricsRegistry())

    def test_drain_moves_spans_and_empties_tracer(self):
        registry = MetricsRegistry()
        engine = traced_engine(registry)
        run_queries(engine)
        tracer = engine.tracer
        spans = tracer.spans()
        flat = len(spans) + sum(len(span.children) for span in spans)
        sink = TraceSink(capacity=64, registry=registry)
        assert sink.drain(tracer) == flat
        assert tracer.spans() == ()
        assert len(sink.records()) == flat
        # A second drain finds nothing: single export.
        assert sink.drain(tracer) == 0
        assert len(sink.records()) == flat

    def test_overflow_drops_oldest_and_counts(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry)
        sink = TraceSink(capacity=3, registry=registry)

        class Response:
            answer, method, interval = 1.0, "sample", None

        for value in range(5):
            trace = tracer.start_trace()
            trace.record_query(
                CountQuery("sales", "item", Predicate(high=value)), Response()
            )
            trace.finish()
        sink.drain(tracer)
        records = sink.records()
        assert len(records) == 3
        # Oldest records were evicted; the ring keeps the newest three.
        assert records[-1]["trace_id"].endswith("-00000005")
        parsed = obs.parse_prometheus(obs.render_prometheus(registry))
        assert parsed["repro_trace_dropped_records_total"][()] == 2.0
        assert parsed["repro_trace_spans_exported_total"][()] == 5.0


class TestJsonlRoundTrip:
    def test_drained_trace_file_round_trips(self, tmp_path):
        """Acceptance: parse the JSONL back into the same span tree."""
        registry = MetricsRegistry()
        engine = traced_engine(registry)
        run_queries(engine)
        spans = engine.tracer.spans()
        path = tmp_path / "trace.jsonl"
        sink = TraceSink(capacity=256, path=path, registry=registry)
        exported = sink.drain(engine.tracer)

        records = read_trace_file(path)
        assert len(records) == exported
        trees = span_tree(records)
        assert set(trees) == {span.trace_id for span in spans}
        for span in spans:
            tree = trees[span.trace_id]
            assert tree["span"] == span.to_dict()
            assert tree["children"] == [
                child.to_dict() for child in span.children
            ]
        # The workload exercised every phase at least once.
        phases = {
            rec["name"] for rec in records if rec["parent_id"] is not None
        }
        roots = [rec for rec in records if rec["parent_id"] is None]
        assert {rec["name"] for rec in roots} == {"query"}
        assert {rec["status"] for rec in roots} == {"ok"}
        assert phases == {
            "cache_lookup",
            "synopsis_answer",
            "exact_fallback",
            "audit_shadow",
        }

    def test_appends_across_drains(self, tmp_path):
        registry = MetricsRegistry()
        engine = traced_engine(registry)
        path = tmp_path / "trace.jsonl"
        sink = TraceSink(capacity=256, path=path, registry=registry)
        engine.answer(CountQuery("sales", "item", Predicate(high=5)))
        first = sink.drain(engine.tracer)
        engine.answer(CountQuery("sales", "item", Predicate(high=7)))
        second = sink.drain(engine.tracer)
        assert len(read_trace_file(path)) == first + second
        parsed = obs.parse_prometheus(obs.render_prometheus(registry))
        assert parsed["repro_trace_file_bytes_total"][
            ()
        ] == path.stat().st_size
        assert parsed["repro_trace_drains_total"][()] == 2.0

    def test_no_path_writes_no_file(self, tmp_path):
        registry = MetricsRegistry()
        engine = traced_engine(registry)
        engine.answer(CountQuery("sales", "item", Predicate(high=5)))
        sink = TraceSink(capacity=16, registry=registry)
        sink.drain(engine.tracer)
        assert sink.path is None
        assert list(tmp_path.iterdir()) == []


class TestSpanTree:
    def root(self, trace_id: str) -> dict:
        return {
            "trace_id": trace_id,
            "span_id": f"{trace_id}:0",
            "parent_id": None,
        }

    def child(self, trace_id: str, n: int) -> dict:
        return {
            "trace_id": trace_id,
            "span_id": f"{trace_id}:{n}",
            "parent_id": f"{trace_id}:0",
        }

    def test_duplicate_root_raises(self):
        with pytest.raises(ValueError, match="duplicate root"):
            span_tree([self.root("t1-1"), self.root("t1-1")])

    def test_orphan_child_raises(self):
        with pytest.raises(ValueError, match="no root"):
            span_tree([self.root("t1-1"), self.child("t9-9", 1)])

    def test_children_sort_numerically_past_nine(self):
        records = [self.root("t1-1")] + [
            self.child("t1-1", n) for n in (10, 2, 11, 1, 3)
        ]
        tree = span_tree(records)["t1-1"]
        assert [c["span_id"] for c in tree["children"]] == [
            "t1-1:1",
            "t1-1:2",
            "t1-1:3",
            "t1-1:10",
            "t1-1:11",
        ]

    def test_records_are_plain_json(self, tmp_path):
        registry = MetricsRegistry()
        engine = traced_engine(registry)
        run_queries(engine)
        path = tmp_path / "trace.jsonl"
        TraceSink(capacity=256, path=path, registry=registry).drain(
            engine.tracer
        )
        for line in path.read_text().splitlines():
            record = json.loads(line)
            assert json.dumps(record, sort_keys=True) == line
