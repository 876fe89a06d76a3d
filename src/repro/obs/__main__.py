"""``python -m repro.obs``: selftest, or render a health report.

* ``--selftest``: run an example warehouse workload (zipf-skewed sales
  stream feeding concise/counting/reservoir synopses through the
  engine, with traced, cached, and calibration-audited queries) under
  full instrumentation, then assert the Prometheus round-trip (parsed
  gauge values must equal ``sample_size`` / ``footprint`` /
  ``CostCounters`` read directly from the synopses), the audit metric
  registrations, and the trace-sink JSONL round-trip -- and exit 0/1.
* ``report --metrics FILE.json --trace FILE.jsonl``: render the
  plain-text ops health report from a registry snapshot
  (``render_json`` output) and/or a drained trace file exported
  elsewhere.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any

from repro import obs
from repro.obs.metrics import MetricsRegistry


def build_workload(
    registry: MetricsRegistry, seed: int
) -> dict[str, Any]:
    """An instrumented warehouse + engine over a sales relation."""
    from repro.core import ConciseSample, CountingSample, ReservoirSample
    from repro.engine import ApproximateAnswerEngine, DataWarehouse
    from repro.engine.cache import QueryResultCache
    from repro.hotlist import CountingHotList

    warehouse = DataWarehouse()
    warehouse.create_relation("sales", ["store", "item"])
    cache = QueryResultCache(capacity=64, registry=registry)
    auditor = obs.CalibrationAuditor(
        1.0, seed=seed + 5, registry=registry
    )
    engine = ApproximateAnswerEngine(
        warehouse,
        budget_words=16_384,
        cache=cache,
        auditor=auditor,
    )

    concise = ConciseSample(1_000, seed=seed + 1)
    counting = CountingSample(1_000, seed=seed + 2)
    reservoir = ReservoirSample(500, seed=seed + 3)
    hotlist = CountingHotList(footprint_bound=500, seed=seed + 4)
    engine.register_sample("sales", "item", concise)
    engine.register_sample("sales", "store", counting)
    engine.register_hotlist("sales", "item", hotlist)

    obs.watch_synopsis(registry, concise, "sales.item")
    obs.watch_synopsis(registry, counting, "sales.store")
    obs.watch_synopsis(registry, reservoir, "sales.item/reservoir")

    loader = obs.MeteredLoadObserver(registry)
    warehouse.add_observer(loader)
    tracer = obs.Tracer(registry)
    engine.tracer = tracer

    return {
        "warehouse": warehouse,
        "engine": engine,
        "tracer": tracer,
        "loader": loader,
        "auditor": auditor,
        "reservoir": reservoir,
        "synopses": {
            "sales.item": concise,
            "sales.store": counting,
            "sales.item/reservoir": reservoir,
        },
    }


def ingest_round(
    workload: dict[str, Any], rows: int, seed: int
) -> None:
    """Load one batch of skewed sales rows and run traced queries."""
    from repro.engine import CountQuery, FrequencyQuery, HotListQuery
    from repro.estimators import Predicate
    from repro.streams import zipf_stream

    items = zipf_stream(rows, 5_000, 1.25, seed=seed)
    stores = zipf_stream(rows, 50, 0.5, seed=seed + 1)
    workload["warehouse"].load_batch(
        "sales", {"store": stores, "item": items}
    )
    workload["reservoir"].insert_array(items)

    engine = workload["engine"]
    engine.answer(CountQuery("sales", "item", Predicate(high=100)))
    engine.answer(FrequencyQuery("sales", "item", value=1))
    engine.answer(HotListQuery("sales", "item", k=5))
    engine.answer(
        CountQuery("sales", "store", Predicate(high=10)), exact=True
    )


def selftest(rows: int, seed: int) -> int:
    """Exposition round-trip assertions; returns the exit code."""
    registry = obs.enable()
    try:
        workload = build_workload(registry, seed)
        ingest_round(workload, rows, seed + 10)

        parsed = obs.parse_prometheus(obs.render_prometheus(registry))
        failures: list[str] = []

        def expect(name: str, labels: dict[str, str], want: float) -> None:
            key = tuple(sorted(labels.items()))
            got = parsed.get(name, {}).get(key)
            if got is None or abs(got - want) > 1e-9:
                failures.append(
                    f"{name}{labels}: exposition {got!r} != direct {want!r}"
                )

        for name, synopsis in workload["synopses"].items():
            labels = {"synopsis": name, "kind": synopsis.SNAPSHOT_KIND}
            if hasattr(synopsis, "sample_size"):
                expect(
                    "repro_synopsis_sample_size",
                    labels,
                    float(synopsis.sample_size),
                )
            expect(
                "repro_synopsis_footprint_words",
                labels,
                float(synopsis.footprint),
            )
            expect(
                "repro_cost_flips_total",
                labels,
                float(synopsis.counters.flips),
            )
            expect(
                "repro_cost_inserts_total",
                labels,
                float(synopsis.counters.inserts),
            )

        loader = workload["loader"]
        expect(
            "repro_load_rows_total",
            {"relation": "sales", "op": "insert"},
            float(loader.rows_seen("sales")),
        )

        spans = workload["tracer"].spans()
        if len(spans) != 4:
            failures.append(f"expected 4 query spans, got {len(spans)}")
        if not any(span.fields["is_exact"] for span in spans):
            failures.append("no exact-fallback span recorded")

        # Calibration audit: every approximate answer was shadowed
        # (fraction 1.0) and the repro_audit_* series registered.
        observations = workload["auditor"].observations()
        if len(observations) != 3:
            failures.append(
                f"expected 3 audit observations, got {len(observations)}"
            )
        shadow_series = parsed.get("repro_audit_shadows_total", {})
        shadow_total = sum(shadow_series.values())
        if shadow_total != len(observations):
            failures.append(
                f"repro_audit_shadows_total {shadow_total} != "
                f"{len(observations)} observations"
            )
        for name in (
            "repro_audit_coverage_ratio",
            "repro_audit_error_budget",
        ):
            if not parsed.get(name):
                failures.append(f"{name} never registered")

        # Trace sink: drained spans round-trip through the JSONL file
        # and the tracer buffer is left empty (single export).
        trace_dir = tempfile.mkdtemp(prefix="repro-obs-selftest-")
        try:
            trace_path = f"{trace_dir}/trace.jsonl"
            file_sink = obs.TraceSink(
                capacity=256, path=trace_path, registry=registry
            )
            exported = file_sink.drain(workload["tracer"])
            if workload["tracer"].spans():
                failures.append("tracer still holds spans after drain")
            records = obs.read_trace_file(trace_path)
            if len(records) != exported:
                failures.append(
                    f"trace file holds {len(records)} records, "
                    f"sink exported {exported}"
                )
            trees = obs.span_tree(records)
            for span in spans:
                tree = trees.get(span.trace_id)
                if tree is None or tree["span"] != span.to_dict():
                    failures.append(
                        f"trace {span.trace_id} did not round-trip"
                    )
                elif len(tree["children"]) != len(span.children):
                    failures.append(
                        f"trace {span.trace_id}: file has "
                        f"{len(tree['children'])} children, span has "
                        f"{len(span.children)}"
                    )
        finally:
            shutil.rmtree(trace_dir, ignore_errors=True)

        payload = obs.render_json(registry)
        json.loads(json.dumps(payload))  # must be JSON-able
        if not payload["metrics"]:
            failures.append("JSON exposition is empty")

        if failures:
            for failure in failures:
                print(f"selftest FAIL: {failure}", file=sys.stderr)
            return 1
        print(
            f"selftest ok: {len(payload['metrics'])} metric families, "
            f"{len(spans)} spans, round-trip exact"
        )
        return 0
    finally:
        obs.disable()


def report_command(argv: list[str]) -> int:
    """``python -m repro.obs report``: render the ops health report."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs report",
        description="Render the plain-text ops health report from a "
        "JSON registry snapshot and/or a drained JSONL trace file.",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE.json",
        help="registry snapshot (render_json output) to report over",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE.jsonl",
        help="drained trace file (TraceSink output) to report over",
    )
    args = parser.parse_args(argv)
    if not args.metrics and not args.trace:
        parser.error("give --metrics and/or --trace")

    metrics: dict[str, Any] | None = None
    traces: list[dict[str, Any]] | None = None
    if args.metrics:
        from repro.persist.fsio import LocalFileSystem

        metrics = json.loads(
            LocalFileSystem().read_bytes(Path(args.metrics)).decode("utf-8")
        )
    if args.trace:
        traces = obs.read_trace_file(args.trace)
    print(obs.render_health_report(metrics, traces))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "report":
        return report_command(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Selftest the observability layer over an example "
        "workload; 'report' renders a health report from files.",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="assert the exposition round-trip and exit 0/1",
    )
    parser.add_argument(
        "--rows",
        type=int,
        default=100_000,
        help="selftest workload rows (default: 100000)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="workload seed (default: 7)"
    )
    args = parser.parse_args(argv)
    if not args.selftest:
        parser.error("give --selftest, or use: report --metrics/--trace")
    return selftest(args.rows, args.seed)


if __name__ == "__main__":
    sys.exit(main())
