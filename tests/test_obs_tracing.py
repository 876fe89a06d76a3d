"""Query tracing: the one span record, the tracer, and the engine integration."""

from __future__ import annotations

import pytest

from repro import obs
from repro.core import ConciseSample
from repro.engine import (
    ApproximateAnswerEngine,
    CountQuery,
    DataWarehouse,
    FrequencyQuery,
    JoinSizeQuery,
)
from repro.engine.engine import NoSynopsisError
from repro.estimators import Predicate
from repro.obs.clock import FakeClock
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(autouse=True)
def _restore_obs_defaults():
    yield
    obs.disable()


def _engine(tracer=None):
    warehouse = DataWarehouse()
    warehouse.create_relation("sales", ["item"])
    engine = ApproximateAnswerEngine(warehouse, tracer=tracer)
    engine.register_sample("sales", "item", ConciseSample(500, seed=1))
    warehouse.load("sales", [{"item": v % 50} for v in range(2_000)])
    return engine


class Response:
    method = "sample"
    is_exact = False
    answer = 42.0
    interval = None
    exact_cost_estimate = 100


def finish_query(tracer, query, response=None, *, error=None, **kwargs):
    """Open, record and close one query root."""
    trace = tracer.start_trace()
    trace.record_query(query, response, error=error, **kwargs)
    return trace.finish()


class TestTracerUnit:
    def test_span_duration_uses_injected_clock(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        tracer = obs.Tracer(registry, clock=clock)
        trace = tracer.start_trace()
        clock.advance(0.25)
        trace.record_query(CountQuery("sales", "item", None), Response())
        span = trace.finish()
        assert span.duration_seconds == 0.25
        assert span.name == "query"
        assert span.status == "ok"
        assert span.fields["query"] == "CountQuery"
        assert span.fields["relation"] == "sales"
        assert span.fields["attribute"] == "item"
        assert span.fields["method"] == "sample"
        assert span.fields["answer"] == 42.0
        assert span.fields["exact_cost_estimate"] == 100
        assert span.fields["error"] is None

    def test_error_span_and_metric(self):
        registry = MetricsRegistry()
        tracer = obs.Tracer(registry, clock=FakeClock())
        span = finish_query(
            tracer,
            CountQuery("sales", "item", None),
            error=NoSynopsisError("nope"),
        )
        assert span.fields["method"] == "error"
        assert span.fields["error"] == "NoSynopsisError"
        assert span.status == "NoSynopsisError"
        assert (
            registry.value(
                "repro_query_errors_total",
                {"query": "CountQuery", "error": "NoSynopsisError"},
            )
            == 1.0
        )

    def test_ring_buffer_caps_spans(self):
        tracer = obs.Tracer(
            MetricsRegistry(), clock=FakeClock(), max_spans=3
        )
        query = CountQuery("sales", "item", None)
        for _ in range(5):
            finish_query(tracer, query, Response())
        spans = tracer.spans()
        assert len(spans) == 3
        assert spans[-1].trace_id.endswith("-00000005")

    def test_join_query_target(self):
        tracer = obs.Tracer(MetricsRegistry(), clock=FakeClock())
        span = finish_query(
            tracer,
            JoinSizeQuery("orders", "item", "sales", "item"),
            error=RuntimeError("x"),
        )
        assert span.fields["relation"] == "orders*sales"
        assert span.fields["attribute"] == "item*item"

    def test_span_to_dict_is_jsonable(self):
        import json

        tracer = obs.Tracer(MetricsRegistry(), clock=FakeClock())
        span = finish_query(
            tracer, CountQuery("sales", "item", None), error=ValueError("x")
        )
        payload = json.loads(json.dumps(span.to_dict()))
        assert payload["query"] == "CountQuery"
        assert payload["error"] == "ValueError"
        assert payload["name"] == "query"
        assert payload["status"] == "ValueError"


class TestEngineIntegration:
    def test_untraced_engine_answers_normally(self):
        engine = _engine(tracer=None)
        response = engine.answer(
            CountQuery("sales", "item", Predicate(high=10))
        )
        assert response.answer > 0

    def test_traced_query_records_span_and_metrics(self):
        registry = MetricsRegistry()
        clock = FakeClock()
        tracer = obs.Tracer(registry, clock=clock)
        engine = _engine(tracer=tracer)
        response = engine.answer(FrequencyQuery("sales", "item", value=1))
        (span,) = tracer.spans()
        assert span.fields["query"] == "FrequencyQuery"
        assert span.fields["is_exact"] is False
        assert span.fields["requested_exact"] is False
        assert span.fields["answer"] == response.answer
        assert span.fields["interval_low"] == response.interval.low
        assert span.fields["interval_high"] == response.interval.high
        assert span.fields["confidence"] == response.interval.confidence
        assert (
            registry.value(
                "repro_queries_total",
                {
                    "query": "FrequencyQuery",
                    "method": "sample",
                    "exact": "false",
                },
            )
            == 1.0
        )

    def test_exact_fallback_is_recorded(self):
        registry = MetricsRegistry()
        tracer = obs.Tracer(registry, clock=FakeClock())
        engine = _engine(tracer=tracer)
        engine.answer(
            CountQuery("sales", "item", Predicate(high=10)), exact=True
        )
        (span,) = tracer.spans()
        assert span.fields["is_exact"] is True
        assert span.fields["requested_exact"] is True
        assert (
            registry.value(
                "repro_exact_fallbacks_total", {"query": "CountQuery"}
            )
            == 1.0
        )

    def test_engine_error_is_traced_and_reraised(self):
        registry = MetricsRegistry()
        tracer = obs.Tracer(registry, clock=FakeClock())
        engine = _engine(tracer=tracer)
        with pytest.raises(NoSynopsisError):
            engine.answer(CountQuery("sales", "missing", None))
        (span,) = tracer.spans()
        assert span.fields["error"] == "NoSynopsisError"
        assert span.fields["method"] == "error"

    def test_tracer_attachable_after_construction(self):
        engine = _engine(tracer=None)
        tracer = obs.Tracer(MetricsRegistry(), clock=FakeClock())
        engine.tracer = tracer
        engine.answer(CountQuery("sales", "item", Predicate(high=10)))
        assert len(tracer.spans()) == 1


class TestTraceTrees:
    """Trace identity, child spans, and the single-export drain."""

    def test_trace_ids_are_deterministic_sequences(self):
        tracer = obs.Tracer(MetricsRegistry(), clock=FakeClock())
        first = tracer.start_trace()
        second = tracer.start_trace()
        prefix = first.trace_id.rsplit("-", 1)[0]
        assert first.trace_id == f"{prefix}-00000001"
        assert second.trace_id == f"{prefix}-00000002"
        assert first.span_id == f"{first.trace_id}:0"

    def test_tracers_get_distinct_prefixes(self):
        registry = MetricsRegistry()
        one = obs.Tracer(registry, clock=FakeClock())
        two = obs.Tracer(registry, clock=FakeClock())
        assert (
            one.start_trace().trace_id.rsplit("-", 1)[0]
            != two.start_trace().trace_id.rsplit("-", 1)[0]
        )

    def test_child_scope_times_and_parents(self):
        clock = FakeClock()
        tracer = obs.Tracer(MetricsRegistry(), clock=clock)
        trace = tracer.start_trace()
        with trace.child("cache_lookup") as scope:
            clock.advance(0.1)
            scope.status = "miss"
        with trace.child("synopsis_answer"):
            clock.advance(0.2)
        first, second = trace.children
        assert first.name == "cache_lookup"
        assert first.status == "miss"
        assert first.duration_seconds == pytest.approx(0.1)
        assert first.span_id == f"{trace.trace_id}:1"
        assert first.parent_id == trace.span_id
        assert second.span_id == f"{trace.trace_id}:2"
        assert second.duration_seconds == pytest.approx(0.2)

    def test_child_exception_marks_error_and_propagates(self):
        tracer = obs.Tracer(MetricsRegistry(), clock=FakeClock())
        trace = tracer.start_trace()
        with pytest.raises(RuntimeError):
            with trace.child("audit_shadow"):
                raise RuntimeError("boom")
        (child,) = trace.children
        assert child.status == "error"

    def test_finish_attaches_children_to_span(self):
        tracer = obs.Tracer(MetricsRegistry(), clock=FakeClock())
        trace = tracer.start_trace()
        with trace.child("synopsis_answer"):
            pass
        trace.record_query(
            CountQuery("sales", "item", None), Response(), cache="miss"
        )
        span = trace.finish()
        assert span.trace_id == trace.trace_id
        assert span.span_id == f"{trace.trace_id}:0"
        assert span.parent_id is None
        assert tracer.spans() == (span,)
        assert span.fields["cache"] == "miss"
        assert [c.name for c in span.children] == ["synopsis_answer"]
        # Children are exported flat, never inlined in to_dict.
        assert "children" not in span.to_dict()

    def test_drain_empties_the_ring(self):
        tracer = obs.Tracer(MetricsRegistry(), clock=FakeClock())
        for _ in range(3):
            finish_query(tracer, CountQuery("sales", "item", None), Response())
        drained = tracer.drain()
        assert len(drained) == 3
        assert tracer.spans() == ()
        assert tracer.drain() == ()


class TestAnswerSummaries:
    def test_hotlist_span_carries_cardinality_and_top(self):
        from repro.engine import HotListQuery
        from repro.hotlist.concise import ConciseHotList

        tracer = obs.Tracer(MetricsRegistry(), clock=FakeClock())
        engine = _engine(tracer)
        engine.register_hotlist(
            "sales", "item", ConciseHotList(400, seed=3)
        )
        engine.warehouse.load(
            "sales", [{"item": v % 50} for v in range(2_000)]
        )
        response = engine.answer(HotListQuery("sales", "item", k=5))
        span = tracer.spans()[-1]
        entries = response.answer.entries
        assert span.fields["result_cardinality"] == len(entries)
        assert span.fields["top_value"] == int(entries[0].value)
        assert span.fields["top_count"] == pytest.approx(
            entries[0].estimated_count
        )
        assert span.fields["answer"] is None  # structured, not scalar

    def test_scalar_span_has_no_summary(self):
        tracer = obs.Tracer(MetricsRegistry(), clock=FakeClock())
        engine = _engine(tracer)
        engine.answer(CountQuery("sales", "item", Predicate(high=10)))
        span = tracer.spans()[-1]
        assert span.fields["result_cardinality"] is None
        assert span.fields["top_value"] is None
        assert span.fields["top_count"] is None


class TestEnginePhaseSpans:
    def test_cached_engine_emits_phase_children(self):
        from repro.engine.cache import QueryResultCache

        registry = MetricsRegistry()
        tracer = obs.Tracer(registry, clock=FakeClock())
        engine = _engine(tracer)
        engine.cache = QueryResultCache(capacity=8, registry=registry)
        query = CountQuery("sales", "item", Predicate(high=10))
        engine.answer(query)
        engine.answer(query)
        miss_span, hit_span = tracer.spans()
        assert [c.name for c in miss_span.children] == [
            "cache_lookup",
            "synopsis_answer",
        ]
        assert miss_span.children[0].status == "miss"
        assert miss_span.fields["cache"] == "miss"
        assert [c.name for c in hit_span.children] == ["cache_lookup"]
        assert hit_span.children[0].status == "hit"
        assert hit_span.fields["cache"] == "hit"

    def test_uncached_engine_emits_synopsis_child_only(self):
        tracer = obs.Tracer(MetricsRegistry(), clock=FakeClock())
        engine = _engine(tracer)
        engine.answer(CountQuery("sales", "item", Predicate(high=10)))
        (span,) = tracer.spans()
        assert [c.name for c in span.children] == ["synopsis_answer"]
        assert span.fields["cache"] is None

    def test_exact_fallback_child(self):
        tracer = obs.Tracer(MetricsRegistry(), clock=FakeClock())
        engine = _engine(tracer)
        engine.answer(CountQuery("sales", "item", None), exact=True)
        (span,) = tracer.spans()
        assert [c.name for c in span.children] == ["exact_fallback"]
        assert span.fields["cache"] is None

    def test_audit_shadow_child(self):
        from repro.obs.audit import CalibrationAuditor

        registry = MetricsRegistry()
        tracer = obs.Tracer(registry, clock=FakeClock())
        engine = _engine(tracer)
        engine.auditor = CalibrationAuditor(
            1.0, seed=4, registry=registry
        )
        engine.answer(CountQuery("sales", "item", Predicate(high=10)))
        (span,) = tracer.spans()
        assert [c.name for c in span.children] == [
            "synopsis_answer",
            "audit_shadow",
        ]
        assert all(c.status == "ok" for c in span.children)


async def serve(engine, requests):
    """Run ``requests(client)`` against a loopback server over ``engine``."""
    from repro.serving import AQPClient, AQPServer

    server = AQPServer(engine.warehouse, engine, registry=MetricsRegistry())
    host, port = await server.start()
    try:
        client = await AQPClient.connect(host, port)
        await client.hello()
        await requests(client)
        await client.bye()
    finally:
        await server.shutdown()


class TestServedQueryIsOneTrace:
    """The server opens the root, the engine adds its phases: one
    served query is one root span and one metric increment."""

    COUNT = CountQuery("sales", "item", Predicate(high=10))

    def assert_one_query_trace(self, tracer, registry, children):
        (span,) = tracer.spans()
        assert span.name == "query"
        assert span.status == "ok"
        assert span.fields["query"] == "CountQuery"
        assert span.fields["method"] == "sample"
        assert [child.name for child in span.children] == children
        assert all(
            child.parent_id == span.span_id for child in span.children
        )
        labels = {"query": "CountQuery", "method": "sample", "exact": "false"}
        assert registry.value("repro_queries_total", labels) == 1.0
        parsed = obs.parse_prometheus(obs.render_prometheus(registry))
        assert parsed["repro_query_seconds_count"] == {
            (("query", "CountQuery"),): 1.0
        }

    def test_live_query_is_one_trace(self):
        import asyncio

        registry = MetricsRegistry()
        tracer = obs.Tracer(registry, clock=FakeClock())
        engine = _engine(tracer)

        async def requests(client):
            await client.query(self.COUNT, mode="live")

        asyncio.run(serve(engine, requests))
        self.assert_one_query_trace(
            tracer, registry, ["queue_wait", "synopsis_answer"]
        )

    def test_pinned_query_is_one_trace(self):
        import asyncio

        registry = MetricsRegistry()
        tracer = obs.Tracer(registry, clock=FakeClock())
        engine = _engine(tracer)

        async def requests(client):
            await client.snapshot()
            await client.query(self.COUNT, mode="pinned")

        asyncio.run(serve(engine, requests))
        self.assert_one_query_trace(
            tracer, registry, ["queue_wait", "synopsis_answer"]
        )

    def test_untyped_answer_error_still_finishes_the_root(self, monkeypatch):
        import asyncio

        from repro.serving import ServerError

        registry = MetricsRegistry()
        tracer = obs.Tracer(registry, clock=FakeClock())
        engine = _engine(tracer)

        def broken(query):
            raise ZeroDivisionError("estimator blew up")

        monkeypatch.setattr(engine, "_answer_approximate", broken)

        async def requests(client):
            with pytest.raises(ServerError) as caught:
                await client.query(self.COUNT, mode="live")
            assert caught.value.code == "internal"
            with pytest.raises(ServerError) as caught:
                await client.query(handle="never-registered")
            assert caught.value.code == "bad-request"

        asyncio.run(serve(engine, requests))
        failed, unresolved = tracer.spans()
        assert failed.status == "ZeroDivisionError"
        assert failed.fields["query"] == "CountQuery"
        assert failed.fields["error"] == "ZeroDivisionError"
        assert [(c.name, c.status) for c in failed.children] == [
            ("queue_wait", "ok"),
            ("synopsis_answer", "error"),
        ]
        # A request that failed before its query was resolved still
        # closes its root, with the failure as its status.
        assert unresolved.status == "ProtocolError"
        assert unresolved.fields["query"] == "?"
        assert [c.name for c in unresolved.children] == ["queue_wait"]
        assert registry.value(
            "repro_query_errors_total",
            {"query": "CountQuery", "error": "ZeroDivisionError"},
        ) == 1.0


class TestRefusedQueryIsOneFailedTrace:
    """A query refused before admission still closes one failed root,
    so query telemetry counts it beside the request counters."""

    COUNT = CountQuery("sales", "item", Predicate(high=10))

    def refuse(self, code):
        import asyncio

        from repro.serving import AQPClient, AQPServer, ServerError

        registry = MetricsRegistry()
        tracer = obs.Tracer(registry, clock=FakeClock())
        engine = _engine(tracer)
        # max_queue=0 turns every heavy request away as busy.
        busy = code == "server-busy"
        server = AQPServer(
            engine.warehouse,
            engine,
            registry=registry,
            max_queue=0 if busy else 16,
        )

        async def scenario():
            client = await AQPClient.connect(*await server.start())
            try:
                await client.hello()
                if not busy:
                    # The first thing shutdown() does: refuse new work
                    # on connections that are still open.
                    server._draining = True
                with pytest.raises(ServerError) as caught:
                    await client.query(self.COUNT, mode="live")
                assert caught.value.code == code
                with pytest.raises(ServerError):
                    await client.ingest("sales", {"item": [1, 2]})
            finally:
                await client.close()
                await server.shutdown()

        asyncio.run(asyncio.wait_for(scenario(), 30))
        return tracer, registry

    @pytest.mark.parametrize("code", ["server-busy", "shutting-down"])
    def test_refused_query_finishes_one_failed_root(self, code):
        tracer, registry = self.refuse(code)
        (span,) = tracer.spans()  # the refused ingest opens no root
        assert span.name == "query"
        assert span.status == code
        assert span.fields["query"] == "?"
        assert span.fields["error"] == code
        assert span.fields["method"] == "error"
        assert span.children == ()
        assert registry.value(
            "repro_query_errors_total", {"query": "?", "error": code}
        ) == 1.0
        outcome = "busy" if code == "server-busy" else "error"
        assert registry.value(
            "repro_server_requests_total", {"op": "query", "outcome": outcome}
        ) == 1.0
