"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload served-scan --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` alternates
untraced loop iterations with iterations traced by spans around each
layer, and prints the per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it holds provenance, guards and the per-class breakdown.  The
exit code is 0 only when every output check and guard passed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("served-scan", "served-stream", "cluster-mixed")

#: name -> unit of every metric, in the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "query_qps": "1/s",
    "ingest_rows_per_s": "rows/s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "ingest_p50_ms": "ms",
    "ingest_p95_ms": "ms",
    "peak_rss_mb": "MiB",
    "rel_error_p50": "ratio",
    "interval_coverage": "ratio",
    "interval_rel_halfwidth_p50": "ratio",
}
PER_LAYER = {
    "serving.query_self_ms_p50": "ms",
    "serving.ingest_self_ms_p50": "ms",
    "serving.ingest_bytes_per_row": "bytes",
    "engine.answer_ms_p50": "ms",
    "engine.answer_ms_p95": "ms",
    "engine.cache_hit_ratio": "ratio",
    "engine.load_batch_self_ms_p50": "ms",
    "core.expand_ms_p50": "ms",
    "core.expand_calls_per_query": "count",
    "core.sample_size": "count",
    "core.footprint": "count",
    "core.tau": "ratio",
    "core.insert_us_per_row": "us",
    "hotlist.report_ms_p50": "ms",
    "persist.wal_ms_p50": "ms",
    "persist.wal_bytes_per_row": "bytes",
    "persist.syncs_per_1k_rows": "count",
    "cluster.partition_ms_p50": "ms",
    "cluster.encode_ms_p50": "ms",
    "cluster.ingest_bytes_per_row": "bytes",
    "cluster.ingest_wait_ms_p50": "ms",
    "cluster.query_wait_ms_p50": "ms",
    "cluster.gather_ms_p50": "ms",
    "cluster.routed_share": "ratio",
    "obs.trace_overhead_ratio_query": "ratio",
    "obs.trace_overhead_ratio_ingest": "ratio",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(result: dict) -> dict[str, float]:
    from measure import percentile, peak_rss_mib

    phase = result["phase"]
    metrics = {
        "setup_s": statistics.median(result["setup_seconds"]),
        "query_qps": len(phase.query_seconds) / phase.wall,
        "ingest_rows_per_s": phase.ingest_rows / phase.wall,
        "query_p50_ms": percentile(phase.query_seconds, 50) * 1e3,
        "query_p95_ms": percentile(phase.query_seconds, 95) * 1e3,
        "ingest_p50_ms": percentile(phase.ingest_seconds, 50) * 1e3,
        "ingest_p95_ms": percentile(phase.ingest_seconds, 95) * 1e3,
        "peak_rss_mb": peak_rss_mib() + result.get("worker_rss_mib", 0.0),
    }
    metrics.update(result["accuracy"].metrics())
    return metrics


def reconciliation(profiles: list) -> dict[str, dict[str, float]]:
    """Per class: the mean share of each layer's self time, and the
    largest gap between a request's summed self times and its root."""
    classes: dict[str, list] = {}
    for profile in profiles:
        classes.setdefault(profile.root, []).append(profile)
    table = {}
    for root, members in classes.items():
        total = sum(p.duration for p in members)
        layers: dict[str, float] = {}
        for p in members:
            for name, seconds in p.self_time.items():
                layers[name] = layers.get(name, 0.0) + seconds
        table[root] = {
            "requests": len(members),
            "root_ms_mean": total / len(members) * 1e3,
            "self_share": {k: v / total for k, v in sorted(layers.items())},
            "max_gap_s": max(
                abs(sum(p.self_time.values()) - p.duration) for p in members
            ),
        }
    return table


def run_workload(args: argparse.Namespace, workdir: Path) -> dict:
    if args.workload == "cluster-mixed":
        import cluster

        return cluster.run_cluster(args.seed, args.seconds, bool(args.trace), workdir)
    import served

    return asyncio.run(
        served.run_served(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    )


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy  # noqa: F401
        import repro  # noqa: F401
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}", file=sys.stderr)
        return 2
    from measure import provenance

    # Every workload runs on one core (spawned shard workers inherit
    # it): across both vCPUs of the reference machine the timings
    # tracked the host's steal time (NOTES.md).  The benchmark measures
    # what each path costs, not how it scales.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    failures = list(result["failures"])
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(ROOT, args.seed, args.seconds),
        "setup_seconds": result["setup_seconds"],
        "samples": {
            name: len(getattr(result["phase"], f"{name}_seconds"))
            for name in ("query", "ingest", "traced_query", "traced_ingest")
        },
        "guards": result["guards"],
    }
    if args.trace:
        table = reconciliation(result["profiles"])
        detail["layers_by_class"] = table
        if any(entry["max_gap_s"] > 1e-9 for entry in table.values()):
            failures.append("layer self times do not sum to the root span")
        values, units = result["layers"], PER_LAYER
    else:
        values, units = end_to_end(result), END_TO_END
    detail["failures"] = failures[:20]
    print(json.dumps(detail, default=str))
    correct = not failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": len(failures),
                "metrics": {
                    # A layer off this workload's path did no work: 0.
                    name: {"value": float(values.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
