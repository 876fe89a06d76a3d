"""The ops health report: "is the approximation trustworthy right now".

:func:`render_health_report` turns a registry snapshot (the
:func:`~repro.obs.exposition.render_json` payload) and/or a drained
trace file (flat records from :func:`~repro.obs.sink.read_trace_file`)
into a plain-text report a human can read in one terminal screen:
per-method calibration (audited coverage vs claimed confidence, with
an ALERT verdict the moment the error budget goes negative), query
latency percentiles recovered from histogram buckets, cache hit rate,
serving health (sessions, admission-gate state, per-endpoint request
latency), cluster fleet health (shards up, failovers, per-shard
round-trip latency), durability counters, and a trace digest.  Any
``repro_``-prefixed family no section knows how to read is named in
an "unrecognized series" footer rather than silently dropped.

The module is pure data-shuffling: it never imports the engine or
touches a clock, so the report can run against snapshots exported from
another process entirely -- the "survives a process boundary" half of
the trace-export story.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, Sequence

__all__ = ["histogram_quantile", "render_health_report"]


def histogram_quantile(
    rows: Sequence[tuple[float, float]], quantile: float
) -> float | None:
    """Estimate a quantile from cumulative histogram buckets.

    ``rows`` are ``(upper_bound, cumulative_count)`` pairs in
    ascending bound order with the ``+Inf`` bucket last -- exactly the
    shape :meth:`~repro.obs.metrics.Histogram.cumulative` and the
    JSON snapshot emit.  Linear interpolation within the winning
    bucket, the same convention as PromQL's ``histogram_quantile``;
    observations in the ``+Inf`` bucket clamp to the highest finite
    bound.  Returns ``None`` on empty data.
    """
    if not 0.0 <= quantile <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    if not rows:
        return None
    total = rows[-1][1]
    if total <= 0:
        return None
    target = quantile * total
    previous_bound = 0.0
    previous_cumulative = 0.0
    for bound, cumulative in rows:
        if cumulative >= target:
            if math.isinf(bound):
                return previous_bound
            if cumulative <= previous_cumulative:
                return bound
            fraction = (target - previous_cumulative) / (
                cumulative - previous_cumulative
            )
            return previous_bound + fraction * (bound - previous_bound)
        previous_bound, previous_cumulative = bound, cumulative
    return previous_bound


def _parse_bound(text: str | float) -> float:
    if isinstance(text, (int, float)):
        return float(text)
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)


def _families(metrics: Mapping[str, Any]) -> dict[str, list[dict[str, Any]]]:
    """Index a JSON snapshot: metric name -> its series list."""
    indexed: dict[str, list[dict[str, Any]]] = {}
    for family in metrics.get("metrics", []):
        indexed[family["name"]] = family.get("series", [])
    return indexed


def _series_values(
    families: Mapping[str, list[dict[str, Any]]], name: str
) -> dict[tuple[tuple[str, str], ...], float]:
    """Flat ``{sorted-labels: value}`` view of a counter/gauge family."""
    values: dict[tuple[tuple[str, str], ...], float] = {}
    for entry in families.get(name, []):
        labels = tuple(sorted(entry.get("labels", {}).items()))
        values[labels] = float(entry.get("value", 0.0))
    return values


def _fmt(value: float | None, digits: int = 3) -> str:
    if value is None:
        return "-"
    return f"{value:.{digits}f}"


def _fmt_seconds(value: float | None) -> str:
    if value is None:
        return "-"
    if value < 0.001:
        return f"{value * 1e6:.0f}us"
    if value < 1.0:
        return f"{value * 1e3:.2f}ms"
    return f"{value:.3f}s"


def _table(
    header: Sequence[str], rows: Iterable[Sequence[str]]
) -> list[str]:
    """Render an aligned plain-text table."""
    materialized = [list(header)] + [list(row) for row in rows]
    widths = [
        max(len(row[column]) for row in materialized)
        for column in range(len(header))
    ]
    lines = []
    for index, row in enumerate(materialized):
        lines.append(
            "  ".join(
                cell.ljust(width) for cell, width in zip(row, widths)
            ).rstrip()
        )
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return lines


def _calibration_section(
    families: Mapping[str, list[dict[str, Any]]],
) -> list[str]:
    shadows = _series_values(families, "repro_audit_shadows_total")
    in_bounds = _series_values(families, "repro_audit_in_bounds_total")
    out_bounds = _series_values(families, "repro_audit_out_of_bounds_total")
    coverage = _series_values(families, "repro_audit_coverage_ratio")
    budget = _series_values(families, "repro_audit_error_budget")
    if not shadows:
        return ["  no audit data (auditor not attached or fraction 0)"]
    rows = []
    alerts = 0
    for labels in sorted(shadows):
        label_map = dict(labels)
        group_budget = budget.get(labels)
        verdict = "-"
        if group_budget is not None:
            verdict = "ALERT" if group_budget < 0 else "ok"
            alerts += group_budget < 0
        rows.append(
            [
                label_map.get("query", "?"),
                label_map.get("method", "?"),
                f"{shadows[labels]:.0f}",
                f"{in_bounds.get(labels, 0.0):.0f}",
                f"{out_bounds.get(labels, 0.0):.0f}",
                _fmt(coverage.get(labels)),
                _fmt(group_budget),
                verdict,
            ]
        )
    lines = _table(
        (
            "query",
            "method",
            "shadows",
            "in",
            "out",
            "coverage",
            "budget",
            "verdict",
        ),
        rows,
    )
    if alerts:
        lines.append("")
        lines.append(
            f"  !! {alerts} group(s) below claimed confidence -- "
            "intervals are over-claiming"
        )
    return ["  " + line for line in lines]


def _latency_section(
    families: Mapping[str, list[dict[str, Any]]],
) -> list[str]:
    series = families.get("repro_query_seconds", [])
    if not series:
        return ["  no latency data"]
    rows = []
    for entry in sorted(
        series, key=lambda item: sorted(item.get("labels", {}).items())
    ):
        buckets = [
            (_parse_bound(bound), float(cumulative))
            for bound, cumulative in entry.get("buckets", [])
        ]
        rows.append(
            [
                dict(entry.get("labels", {})).get("query", "?"),
                f"{entry.get('count', 0)}",
                _fmt_seconds(histogram_quantile(buckets, 0.50)),
                _fmt_seconds(histogram_quantile(buckets, 0.90)),
                _fmt_seconds(histogram_quantile(buckets, 0.99)),
            ]
        )
    return [
        "  " + line
        for line in _table(("query", "count", "p50", "p90", "p99"), rows)
    ]


def _cache_section(
    families: Mapping[str, list[dict[str, Any]]],
) -> list[str]:
    hits = sum(
        _series_values(families, "repro_query_cache_hits_total").values()
    )
    misses = sum(
        _series_values(families, "repro_query_cache_misses_total").values()
    )
    invalidations = sum(
        _series_values(
            families, "repro_query_cache_invalidations_total"
        ).values()
    )
    evictions = sum(
        _series_values(
            families, "repro_query_cache_evictions_total"
        ).values()
    )
    lookups = hits + misses
    if lookups == 0:
        return ["  no cache traffic"]
    return [
        f"  lookups {lookups:.0f}  hits {hits:.0f}  misses {misses:.0f}"
        f"  invalidations {invalidations:.0f}  evictions {evictions:.0f}",
        f"  hit rate {hits / lookups:.1%}",
    ]


#: Durability counters surfaced verbatim when present in the snapshot.
_DURABILITY_METRICS = (
    "repro_wal_appends_total",
    "repro_wal_batch_appends_total",
    "repro_wal_bytes_written_total",
    "repro_wal_fsyncs_total",
    "repro_wal_truncated_segments_total",
    "repro_checkpoints_total",
    "repro_checkpoint_writes_total",
    "repro_checkpoint_pruned_total",
    "repro_recovery_runs_total",
    "repro_recovery_replayed_operations_total",
    "repro_recovery_torn_tails_total",
    "repro_recovery_seconds",
)


def _durability_section(
    families: Mapping[str, list[dict[str, Any]]],
) -> list[str]:
    lines = []
    for name in _DURABILITY_METRICS:
        series = families.get(name)
        if not series:
            continue
        total = 0.0
        for entry in series:
            if "value" in entry:
                total += float(entry["value"])
            else:
                total += float(entry.get("sum", 0.0))
        lines.append(f"  {name} {total:g}")
    return lines or ["  no durability data"]


#: Serving counters/gauges surfaced on the summary line when present.
_SERVING_SUMMARY_METRICS = (
    ("connections", "repro_server_connections_total"),
    ("sessions", "repro_server_sessions_total"),
    ("open", "repro_server_sessions_open"),
    ("in-flight", "repro_server_in_flight"),
    ("queued", "repro_server_queue_depth"),
    ("busy", "repro_server_busy_total"),
    ("protocol-errors", "repro_server_protocol_errors_total"),
)


def _serving_section(
    families: Mapping[str, list[dict[str, Any]]],
) -> list[str]:
    """Serving health: admission state plus per-endpoint latency.

    Summarizes the ``repro_server_*`` family exported by
    :class:`~repro.serving.server.AQPServer`: connection/session
    counts, admission-gate state (in-flight, queued, busy refusals),
    protocol errors, and p50/p90/p99 per operation recovered from the
    ``repro_server_request_seconds`` histogram buckets.
    """
    present = any(
        families.get(name) for _, name in _SERVING_SUMMARY_METRICS
    ) or families.get("repro_server_request_seconds")
    if not present:
        return ["  no serving data (no AQPServer metrics in snapshot)"]
    summary = "  ".join(
        f"{label} {sum(_series_values(families, name).values()):g}"
        for label, name in _SERVING_SUMMARY_METRICS
    )
    lines = ["  " + summary]
    outcomes: dict[str, dict[str, float]] = {}
    for labels, value in _series_values(
        families, "repro_server_requests_total"
    ).items():
        label_map = dict(labels)
        per_op = outcomes.setdefault(label_map.get("op", "?"), {})
        per_op[label_map.get("outcome", "?")] = (
            per_op.get(label_map.get("outcome", "?"), 0.0) + value
        )
    rows = []
    for entry in sorted(
        families.get("repro_server_request_seconds", []),
        key=lambda item: sorted(item.get("labels", {}).items()),
    ):
        op = dict(entry.get("labels", {})).get("op", "?")
        buckets = [
            (_parse_bound(bound), float(cumulative))
            for bound, cumulative in entry.get("buckets", [])
        ]
        per_op = outcomes.get(op, {})
        rows.append(
            [
                op,
                f"{entry.get('count', 0)}",
                f"{per_op.get('ok', 0.0):.0f}",
                f"{per_op.get('error', 0.0):.0f}",
                f"{per_op.get('busy', 0.0):.0f}",
                _fmt_seconds(histogram_quantile(buckets, 0.50)),
                _fmt_seconds(histogram_quantile(buckets, 0.90)),
                _fmt_seconds(histogram_quantile(buckets, 0.99)),
            ]
        )
    if rows:
        lines.append("")
        lines.extend(
            "  " + line
            for line in _table(
                ("op", "count", "ok", "error", "busy", "p50", "p90", "p99"),
                rows,
            )
        )
    return lines


#: Cluster fleet gauges/counters surfaced on the summary line.
_CLUSTER_SUMMARY_METRICS = (
    ("failovers", "repro_cluster_failovers_total"),
    ("restarts", "repro_cluster_restarts_total"),
    ("degraded-answers", "repro_cluster_degraded_answers_total"),
)


def _cluster_quantiles(
    families: Mapping[str, list[dict[str, Any]]], name: str
) -> dict[str, tuple[int, float | None, float | None]]:
    """Per-shard ``(count, p50, p99)`` from one latency histogram."""
    quantiles: dict[str, tuple[int, float | None, float | None]] = {}
    for entry in families.get(name, []):
        shard = dict(entry.get("labels", {})).get("shard", "?")
        buckets = [
            (_parse_bound(bound), float(cumulative))
            for bound, cumulative in entry.get("buckets", [])
        ]
        quantiles[shard] = (
            int(entry.get("count", 0)),
            histogram_quantile(buckets, 0.50),
            histogram_quantile(buckets, 0.99),
        )
    return quantiles


def _cluster_section(
    families: Mapping[str, list[dict[str, Any]]],
) -> list[str]:
    """Cluster fleet health: failover counters plus per-shard latency.

    Summarizes the ``repro_cluster_*`` family exported by
    :class:`~repro.cluster.ShardedWarehouse`: shards up vs configured
    (with a DEGRADED banner while any worker is down or recovering),
    failover/restart/degraded-answer counters, and a per-shard table
    of scattered rows with ingest and query round-trip p50/p99
    recovered from the coordinator-side histograms.
    """
    totals = _series_values(families, "repro_cluster_shards_total")
    present = bool(totals) or any(
        families.get(name) for _, name in _CLUSTER_SUMMARY_METRICS
    )
    if not present:
        return ["  no cluster data (no ShardedWarehouse metrics in snapshot)"]
    up = sum(_series_values(families, "repro_cluster_shards_up").values())
    total = sum(totals.values())
    degraded = sum(
        _series_values(families, "repro_cluster_degraded").values()
    )
    summary = f"  shards {up:g}/{total:g}"
    if degraded:
        summary += "  DEGRADED"
    summary += "  " + "  ".join(
        f"{label} {sum(_series_values(families, name).values()):g}"
        for label, name in _CLUSTER_SUMMARY_METRICS
    )
    lines = [summary]
    rows_by_shard = {
        dict(labels).get("shard", "?"): value
        for labels, value in _series_values(
            families, "repro_cluster_ingest_rows_total"
        ).items()
    }
    ingest = _cluster_quantiles(
        families, "repro_cluster_shard_ingest_seconds"
    )
    query = _cluster_quantiles(
        families, "repro_cluster_shard_query_seconds"
    )
    shards = sorted(
        set(rows_by_shard) | set(ingest) | set(query),
        key=lambda shard: (len(shard), shard),
    )
    table_rows = []
    for shard in shards:
        _, ingest_p50, ingest_p99 = ingest.get(shard, (0, None, None))
        query_count, query_p50, query_p99 = query.get(
            shard, (0, None, None)
        )
        table_rows.append(
            [
                shard,
                f"{rows_by_shard.get(shard, 0.0):.0f}",
                _fmt_seconds(ingest_p50),
                _fmt_seconds(ingest_p99),
                f"{query_count}",
                _fmt_seconds(query_p50),
                _fmt_seconds(query_p99),
            ]
        )
    if table_rows:
        lines.append("")
        lines.extend(
            "  " + line
            for line in _table(
                (
                    "shard",
                    "rows",
                    "ingest-p50",
                    "ingest-p99",
                    "queries",
                    "query-p50",
                    "query-p99",
                ),
                table_rows,
            )
        )
    return lines


#: Every metric-name prefix a report section knows how to read.  The
#: trailing underscore is deliberate: these are prefixes, not series
#: names, and must not collide with the RL014 catalogue contract.
_KNOWN_SERIES_PREFIXES = (
    "repro_audit_",
    "repro_checkpoint_",
    "repro_checkpoints_",
    "repro_cluster_",
    "repro_cost_",
    "repro_exact_",
    "repro_load_",
    "repro_queries_",
    "repro_query_",
    "repro_recovery_",
    "repro_server_",
    "repro_synopsis_",
    "repro_trace_",
    "repro_wal_",
)


def _unrecognized_series(
    families: Mapping[str, list[dict[str, Any]]],
) -> list[str]:
    """Snapshot families no report section knows how to read.

    A snapshot can carry series this report was not written for -- a
    newer exporter, a renamed subsystem.  Silently dropping them makes
    the report lie by omission, so any ``repro_``-prefixed family
    matching none of the known subsystem prefixes is named in a
    footer instead.
    """
    return sorted(
        name
        for name in families
        if name.startswith("repro_")
        and not name.startswith(_KNOWN_SERIES_PREFIXES)
    )


def _root_label(record: Mapping[str, Any]) -> str:
    """What a root span traced: a query's target, or a persist event.

    Trace files written before roots carried a ``name`` hold query
    roots only, so a missing name reads as ``"query"``.
    """
    kind = str(record.get("name", "query"))
    if kind == "query":
        return (
            f"{record.get('query', '?')} on "
            f"{record.get('relation', '?')}.{record.get('attribute', '?')}"
        )
    return f"{kind} at sequence {record.get('sequence', '?')}"


def _trace_section(traces: Sequence[Mapping[str, Any]]) -> list[str]:
    roots = [
        record for record in traces if record.get("parent_id") is None
    ]
    children = [
        record for record in traces if record.get("parent_id") is not None
    ]
    if not roots:
        return ["  no trace data"]
    lines = [
        f"  {len(roots)} root span(s), {len(children)} child span(s)"
    ]
    by_kind: dict[str, list[str]] = {}
    for record in roots:
        by_kind.setdefault(str(record.get("name", "query")), []).append(
            str(record.get("status", "ok"))
        )
    for kind in sorted(by_kind):
        statuses = by_kind[kind]
        failed = [status for status in statuses if status != "ok"]
        line = f"  {kind}: {len(statuses)} root(s)"
        if failed:
            names = ", ".join(sorted(set(failed)))
            line += f", {len(failed)} failed ({names})"
        lines.append(line)
    slowest = max(
        roots, key=lambda record: record.get("duration_seconds", 0.0)
    )
    lines.append(
        f"  slowest: {_root_label(slowest)}"
        f" ({_fmt_seconds(slowest.get('duration_seconds'))},"
        f" trace {slowest.get('trace_id', '?')})"
    )
    by_phase: dict[str, list[float]] = {}
    for record in children:
        by_phase.setdefault(str(record.get("name", "?")), []).append(
            float(record.get("duration_seconds", 0.0))
        )
    for phase in sorted(by_phase):
        durations = by_phase[phase]
        lines.append(
            f"  {phase}: {len(durations)} span(s), mean "
            f"{_fmt_seconds(sum(durations) / len(durations))}"
        )
    return lines


def render_health_report(
    metrics: Mapping[str, Any] | None = None,
    traces: Sequence[Mapping[str, Any]] | None = None,
) -> str:
    """Render the plain-text ops health report.

    ``metrics`` is a JSON registry snapshot
    (:func:`~repro.obs.exposition.render_json` output); ``traces`` is
    a list of flat span records
    (:func:`~repro.obs.sink.read_trace_file` output).  Either may be
    omitted; each section degrades to a "no data" line.
    """
    families = _families(metrics) if metrics is not None else {}
    sections = [
        ("calibration (audited coverage vs claimed confidence)",
         _calibration_section(families)),
        ("query latency", _latency_section(families)),
        ("query-result cache", _cache_section(families)),
        ("serving", _serving_section(families)),
        ("cluster", _cluster_section(families)),
        ("durability", _durability_section(families)),
        ("traces", _trace_section(traces if traces is not None else [])),
    ]
    lines = ["repro health report", "===================", ""]
    for title, body in sections:
        lines.append(title)
        lines.extend(body)
        lines.append("")
    unrecognized = _unrecognized_series(families)
    if unrecognized:
        lines.append("unrecognized series (no report section reads these)")
        lines.extend("  " + name for name in unrecognized)
        lines.append("")
    return "\n".join(lines)
