"""The ops health report and its histogram-quantile arithmetic."""

from __future__ import annotations

import asyncio
import math

import pytest

from repro import obs
from repro.cluster import ShardedWarehouse
from repro.core import ConciseSample
from repro.engine import (
    ApproximateAnswerEngine,
    CountQuery,
    DataWarehouse,
    FrequencyQuery,
    HotListQuery,
)
from repro.estimators import Predicate
from repro.hotlist import CountingHotList
from repro.obs.report import histogram_quantile, render_health_report
from repro.serving import AQPClient, AQPServer, ServerError
from repro.streams import zipf_stream


@pytest.fixture(autouse=True)
def _restore_obs_defaults():
    yield
    obs.disable()


class TestHistogramQuantile:
    BUCKETS = [(0.1, 10.0), (0.5, 30.0), (1.0, 40.0), (math.inf, 40.0)]

    def test_empty_and_zero_total_return_none(self):
        assert histogram_quantile([], 0.5) is None
        assert histogram_quantile([(1.0, 0.0), (math.inf, 0.0)], 0.5) is None

    def test_rejects_out_of_range_quantile(self):
        with pytest.raises(ValueError):
            histogram_quantile(self.BUCKETS, 1.5)

    def test_interpolates_within_bucket(self):
        # p50: target 20 of 40; bucket (0.1, 0.5] holds ranks 10..30,
        # so halfway through it -> 0.1 + 0.5 * 0.4 = 0.3.
        assert histogram_quantile(self.BUCKETS, 0.5) == pytest.approx(0.3)

    def test_quantile_inside_first_bucket_starts_at_zero(self):
        assert histogram_quantile(self.BUCKETS, 0.25) == pytest.approx(0.1)
        assert histogram_quantile(self.BUCKETS, 0.125) == pytest.approx(0.05)

    def test_inf_bucket_clamps_to_last_finite_bound(self):
        rows = [(0.1, 10.0), (1.0, 20.0), (math.inf, 40.0)]
        assert histogram_quantile(rows, 0.99) == pytest.approx(1.0)

    def test_monotone_in_quantile(self):
        values = [
            histogram_quantile(self.BUCKETS, q)
            for q in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
        ]
        assert values == sorted(values)


def audit_family(budget: float) -> dict:
    labels = {"query": "CountQuery", "method": "sample"}
    return {
        "metrics": [
            {
                "name": "repro_audit_shadows_total",
                "type": "counter",
                "series": [{"labels": labels, "value": 20.0}],
            },
            {
                "name": "repro_audit_in_bounds_total",
                "type": "counter",
                "series": [{"labels": labels, "value": 15.0}],
            },
            {
                "name": "repro_audit_out_of_bounds_total",
                "type": "counter",
                "series": [{"labels": labels, "value": 5.0}],
            },
            {
                "name": "repro_audit_coverage_ratio",
                "type": "gauge",
                "series": [{"labels": labels, "value": 0.75}],
            },
            {
                "name": "repro_audit_error_budget",
                "type": "gauge",
                "series": [{"labels": labels, "value": budget}],
            },
        ]
    }


class TestRenderSections:
    def test_all_sections_present_with_no_data(self):
        report = render_health_report()
        assert report.startswith("repro health report")
        assert "no audit data" in report
        assert "no latency data" in report
        assert "no cache traffic" in report
        assert "no serving data" in report
        assert "no cluster data" in report
        assert "no durability data" in report
        assert "no trace data" in report
        assert "unrecognized series" not in report

    def test_negative_budget_raises_alert(self):
        report = render_health_report(audit_family(-0.20))
        assert "ALERT" in report
        assert "below claimed confidence" in report

    def test_positive_budget_is_ok(self):
        report = render_health_report(audit_family(0.05))
        assert "ALERT" not in report
        assert "ok" in report

    def test_cache_hit_rate(self):
        metrics = {
            "metrics": [
                {
                    "name": "repro_query_cache_hits_total",
                    "type": "counter",
                    "series": [{"labels": {}, "value": 3.0}],
                },
                {
                    "name": "repro_query_cache_misses_total",
                    "type": "counter",
                    "series": [{"labels": {}, "value": 1.0}],
                },
            ]
        }
        report = render_health_report(metrics)
        assert "hit rate 75.0%" in report

    def test_trace_digest(self):
        traces = [
            {
                "trace_id": "t1-1",
                "span_id": "t1-1:0",
                "parent_id": None,
                "query": "CountQuery",
                "relation": "sales",
                "attribute": "item",
                "duration_seconds": 0.25,
            },
            {
                "trace_id": "t1-1",
                "span_id": "t1-1:1",
                "parent_id": "t1-1:0",
                "name": "synopsis_answer",
                "duration_seconds": 0.1,
            },
        ]
        report = render_health_report(None, traces)
        assert "1 root span(s), 1 child span(s)" in report
        assert "slowest: CountQuery on sales.item" in report
        assert "synopsis_answer: 1 span(s)" in report


async def serve_one_session(registry, *, rows: int, seed: int) -> None:
    """One client's hello/ingest/snapshot/query/bye session against a
    loopback server, including one failing query so an error outcome
    registers."""
    warehouse = DataWarehouse()
    warehouse.create_relation("sales", ["item"])
    engine = ApproximateAnswerEngine(warehouse)
    engine.register_sample("sales", "item", ConciseSample(500, seed=seed + 1))
    engine.register_hotlist(
        "sales", "item", CountingHotList(footprint_bound=200, seed=seed + 2)
    )
    server = AQPServer(warehouse, engine, registry=registry)
    host, port = await server.start()
    try:
        client = await AQPClient.connect(host, port)
        await client.hello()
        items = zipf_stream(rows, 1_000, 1.25, seed=seed + 3)
        await client.ingest("sales", {"item": [int(value) for value in items]})
        await client.snapshot()
        await client.query(CountQuery("sales", "item", Predicate(high=100)))
        await client.query(HotListQuery("sales", "item", k=5))
        await client.query(CountQuery("sales", "item"), mode="live")
        with pytest.raises(ServerError):
            await client.query(CountQuery("sales", "store"))
        await client.bye()
    finally:
        await server.shutdown()


class TestServingSection:
    def test_summary_and_per_op_table(self):
        metrics = {
            "metrics": [
                {
                    "name": "repro_server_sessions_open",
                    "type": "gauge",
                    "series": [{"labels": {}, "value": 2.0}],
                },
                {
                    "name": "repro_server_queue_depth",
                    "type": "gauge",
                    "series": [{"labels": {}, "value": 3.0}],
                },
                {
                    "name": "repro_server_busy_total",
                    "type": "counter",
                    "series": [{"labels": {}, "value": 7.0}],
                },
                {
                    "name": "repro_server_requests_total",
                    "type": "counter",
                    "series": [
                        {
                            "labels": {"op": "query", "outcome": "ok"},
                            "value": 9.0,
                        },
                        {
                            "labels": {"op": "query", "outcome": "error"},
                            "value": 1.0,
                        },
                    ],
                },
                {
                    "name": "repro_server_request_seconds",
                    "type": "histogram",
                    "series": [
                        {
                            "labels": {"op": "query"},
                            "count": 10,
                            "sum": 0.1,
                            "buckets": [
                                ["0.01", 5.0],
                                ["0.1", 10.0],
                                ["+Inf", 10.0],
                            ],
                        }
                    ],
                },
            ]
        }
        report = render_health_report(metrics)
        assert "no serving data" not in report
        assert "open 2" in report
        assert "queued 3" in report
        assert "busy 7" in report
        # query row: 10 requests, 9 ok, 1 error; the median falls on
        # the first bucket's upper bound (cumulative 5 of 10 at 10ms).
        lines = [line for line in report.splitlines() if "query " in line]
        assert any(
            line.split()[:5] == ["query", "10", "9", "1", "0"]
            for line in lines
        )
        assert "10.00ms" in report

    def test_live_server_workload_populates_section(self):
        """A loopback server session feeds every summary instrument."""
        registry = obs.enable()
        try:
            asyncio.run(serve_one_session(registry, rows=500, seed=13))
            report = render_health_report(obs.render_json(registry))
        finally:
            obs.disable()
        assert "no serving data" not in report
        assert "connections 1" in report
        assert "hello" in report and "ingest" in report
        # The deliberately-failing query registers an error outcome.
        query_rows = [
            fields
            for fields in map(str.split, report.splitlines())
            if fields[:1] == ["query"] and len(fields) > 4 and fields[1].isdigit()
        ]
        assert query_rows and query_rows[0][3] == "1"


def cluster_family(up: float, degraded: float) -> dict:
    return {
        "metrics": [
            {
                "name": "repro_cluster_shards_total",
                "type": "gauge",
                "series": [{"labels": {}, "value": 2.0}],
            },
            {
                "name": "repro_cluster_shards_up",
                "type": "gauge",
                "series": [{"labels": {}, "value": up}],
            },
            {
                "name": "repro_cluster_degraded",
                "type": "gauge",
                "series": [{"labels": {}, "value": degraded}],
            },
            {
                "name": "repro_cluster_failovers_total",
                "type": "counter",
                "series": [{"labels": {}, "value": 1.0}],
            },
            {
                "name": "repro_cluster_restarts_total",
                "type": "counter",
                "series": [{"labels": {}, "value": 1.0}],
            },
            {
                "name": "repro_cluster_degraded_answers_total",
                "type": "counter",
                "series": [{"labels": {}, "value": 4.0}],
            },
            {
                "name": "repro_cluster_ingest_rows_total",
                "type": "counter",
                "series": [
                    {"labels": {"shard": "0"}, "value": 600.0},
                    {"labels": {"shard": "1"}, "value": 400.0},
                ],
            },
            {
                "name": "repro_cluster_shard_query_seconds",
                "type": "histogram",
                "series": [
                    {
                        "labels": {"shard": "0"},
                        "count": 8,
                        "sum": 0.08,
                        "buckets": [
                            ["0.01", 4.0],
                            ["0.1", 8.0],
                            ["+Inf", 8.0],
                        ],
                    }
                ],
            },
        ]
    }


class TestClusterSection:
    def test_summary_and_per_shard_table(self):
        report = render_health_report(cluster_family(up=1.0, degraded=1.0))
        assert "no cluster data" not in report
        assert "shards 1/2" in report
        assert "DEGRADED" in report
        assert "failovers 1" in report
        assert "restarts 1" in report
        assert "degraded-answers 4" in report
        # Shard 0: 600 rows, 8 queries with the p50 on the first
        # bucket's upper bound (cumulative 4 of 8 at 10ms); shard 1
        # appears from its row counter alone with dashed latencies.
        shard_rows = [
            fields
            for fields in map(str.split, report.splitlines())
            if fields[:1] in (["0"], ["1"])
        ]
        assert ["0", "600", "-", "-", "8", "10.00ms", "98.20ms"] in shard_rows
        assert ["1", "400", "-", "-", "0", "-", "-"] in shard_rows

    def test_healthy_fleet_has_no_banner(self):
        report = render_health_report(cluster_family(up=2.0, degraded=0.0))
        assert "shards 2/2" in report
        assert "DEGRADED" not in report

    def test_live_two_shard_failover_populates_section(self, tmp_path):
        """A two-shard round with one failover feeds every summary
        instrument."""
        registry = obs.enable()
        try:
            with ShardedWarehouse(
                2, tmp_path, seed=23, registry=registry
            ) as cluster:
                cluster.create_relation("sales", ["item"])
                cluster.register_synopsis(
                    "sales", "item", footprint_bound=400, hotlist=True
                )
                items = zipf_stream(400, 1_000, 1.25, seed=24)
                cluster.load_batch("sales", {"item": items})
                cluster.answer(FrequencyQuery("sales", "item", value=1))
                cluster.answer(CountQuery("sales", "item"))
                cluster.answer(HotListQuery("sales", "item", k=5))
                cluster.kill_shard(0)
                cluster.answer(CountQuery("sales", "item"))
                cluster.wait_until_healthy(timeout=30.0)
                cluster.answer(CountQuery("sales", "item"))
            report = render_health_report(obs.render_json(registry))
        finally:
            obs.disable()
        assert "no cluster data" not in report
        # One shard was killed, answered around, and restarted.
        assert "failovers 1" in report
        assert "restarts 1" in report
        assert "degraded-answers 1" in report
        shard_rows = [
            fields
            for fields in map(str.split, report.splitlines())
            if fields[:1] in (["0"], ["1"]) and len(fields) == 7
        ]
        assert len(shard_rows) == 2
        assert sum(int(fields[1]) for fields in shard_rows) == 400


class TestUnrecognizedFooter:
    def test_unknown_family_is_named(self):
        metrics = {
            "metrics": [
                {
                    "name": "repro_mystery_widgets_total",
                    "type": "counter",
                    "series": [{"labels": {}, "value": 2.0}],
                },
                {
                    "name": "repro_wal_appends_total",
                    "type": "counter",
                    "series": [{"labels": {}, "value": 5.0}],
                },
            ]
        }
        report = render_health_report(metrics)
        assert "unrecognized series" in report
        assert "repro_mystery_widgets_total" in report

    def test_known_families_produce_no_footer(self):
        report = render_health_report(audit_family(0.05))
        assert "unrecognized series" not in report

    def test_live_registry_is_fully_recognized(self):
        """Every series the demo workload exports has a section."""
        from repro.obs.__main__ import build_workload, ingest_round

        registry = obs.enable()
        try:
            workload = build_workload(registry, seed=7)
            ingest_round(workload, 5_000, seed=17)
            report = render_health_report(obs.render_json(registry))
        finally:
            obs.disable()
        assert "unrecognized series" not in report


class TestEndToEnd:
    def test_report_over_live_workload(self):
        """The report renders real sections from a live registry."""
        from repro.obs.__main__ import build_workload, ingest_round

        registry = obs.enable()
        try:
            workload = build_workload(registry, seed=7)
            ingest_round(workload, 20_000, seed=17)
            sink = obs.TraceSink(capacity=256, registry=registry)
            sink.drain(workload["tracer"])
            report = render_health_report(
                obs.render_json(registry), list(sink.records())
            )
        finally:
            obs.disable()
        assert "CountQuery" in report
        assert "p50" in report
        assert "hit rate" in report
        assert "root span(s)" in report
        assert "no audit data" not in report
        assert "no latency data" not in report
