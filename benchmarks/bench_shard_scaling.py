"""Shard-scaling: sustained mixed serving at 1 -> 2 -> 4 -> 8 shards.

Drives a :class:`~repro.cluster.ShardedWarehouse` fleet end to end --
worker processes, per-shard WALs, the CRC-framed scatter codec, the
gather estimator algebra -- under the workload a sharded warehouse
exists for: **serving queries while ingest continues**.  Every level
gets the same zipf stream, the same query mix, and the same *total*
synopsis footprint budget (the paper's fixed-memory framing, split
``total / shards`` per worker, matching ``merged_synopsis``'s default
bound and the statistical-equivalence tests).

A routed frequency query is one ``count_of`` lookup in the owner
shard's sample, whatever that sample's size, so partitioning does not
cut the per-query answer cost; what the fleet adds per request is the
scatter, the IPC and the gather.  Throughput therefore scales with
shards only where the host has a core per worker -- the recorded
``cpu_cores`` says which case a baseline is.  Accuracy is unchanged
at every level (each shard's sampling fraction equals the oracle's).
Both throughput numbers are wall-clock measurements of the same
serving-while-ingesting loop.

A second section kills a worker mid-serving: the survivors keep
answering (degraded answers counted), the coordinator restarts the
victim from its WAL, and the rejoined fleet serves at full coverage;
``tests/test_cluster_statistical.py::TestRecoveredClusterMatchesOracle``
is the chi-square battery for exactly this recovered state.

Writes ``BENCH_shard_scaling.json`` at the repository root (the
committed baseline the CI trajectory tracks); ``REPRO_BENCH_SMOKE=1``
runs a seconds-scale configuration into ``bench_out/`` instead.

Run with ``PYTHONPATH=src python benchmarks/bench_shard_scaling.py``.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import tempfile
from pathlib import Path

import numpy as np

from repro.cluster import ShardedWarehouse, shard_of_value
from repro.engine import CountQuery, FrequencyQuery
from repro.obs.clock import perf_counter
from repro.randkit import numpy_generator
from repro.streams import zipf_stream

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

PRELOAD = 20_000 if SMOKE else 2_000_000
DISTINCT = 2_000 if SMOKE else 100_000
SKEW = 1.25
TOTAL_BOUND = 2_000 if SMOKE else 64_000
SHARD_LEVELS = (1, 2) if SMOKE else (1, 2, 4, 8)
ROUNDS = 3 if SMOKE else 12
ROWS_PER_ROUND = 500 if SMOKE else 2_000
QUERIES_PER_ROUND = 32 if SMOKE else 256
SYNC_EVERY = 64
LOAD_BATCH = 5_000 if SMOKE else 50_000

RECOVERY_SHARDS = 2 if SMOKE else 8
RECOVERY_PRELOAD = 5_000 if SMOKE else 200_000
RECOVERY_ROUNDS = 2 if SMOKE else 6
RECOVERY_TIMEOUT = 120.0

ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = (
    ROOT / "bench_out" / "BENCH_shard_scaling.json"
    if SMOKE
    else ROOT / "BENCH_shard_scaling.json"
)

RELATION = "sales"
ATTRIBUTE = "item"


def build_stream() -> np.ndarray:
    return zipf_stream(
        PRELOAD + ROUNDS * ROWS_PER_ROUND, DISTINCT, SKEW, seed=9
    )


def build_queries(stream: np.ndarray) -> list[FrequencyQuery]:
    """Routed point queries over values drawn from the stream itself."""
    rng = numpy_generator(3)
    values = rng.choice(stream[:PRELOAD], size=QUERIES_PER_ROUND)
    return [
        FrequencyQuery(RELATION, ATTRIBUTE, value=int(v)) for v in values
    ]


def run_level(
    shards: int, stream: np.ndarray, queries: list[FrequencyQuery]
) -> dict:
    """One shard count: preload, then the sustained serving mix."""
    directory = tempfile.mkdtemp(prefix=f"bench-shards-{shards}-")
    try:
        with ShardedWarehouse(
            shards, directory, seed=5, sync_every=SYNC_EVERY
        ) as warehouse:
            warehouse.create_relation(RELATION, [ATTRIBUTE])
            warehouse.register_synopsis(
                RELATION,
                ATTRIBUTE,
                footprint_bound=TOTAL_BOUND // shards,
            )
            start = perf_counter()
            for offset in range(0, PRELOAD, LOAD_BATCH):
                warehouse.load_batch(
                    RELATION,
                    {ATTRIBUTE: stream[offset : offset + LOAD_BATCH]},
                )
            preload_seconds = perf_counter() - start

            warehouse.answer_batch(queries[:4])  # warm the fleet
            position = PRELOAD
            round_seconds = []
            for _ in range(ROUNDS):
                start = perf_counter()
                warehouse.load_batch(
                    RELATION,
                    {
                        ATTRIBUTE: stream[
                            position : position + ROWS_PER_ROUND
                        ]
                    },
                )
                warehouse.answer_batch(queries)
                round_seconds.append(perf_counter() - start)
                position += ROWS_PER_ROUND
            wall = sum(round_seconds)
            merged = warehouse.merged_synopsis(RELATION, ATTRIBUTE)
            return {
                "shards": shards,
                "per_shard_footprint_bound": TOTAL_BOUND // shards,
                "preload_seconds": round(preload_seconds, 3),
                "ingest_rows_per_s": round(
                    ROUNDS * ROWS_PER_ROUND / wall, 1
                ),
                "query_qps": round(
                    ROUNDS * QUERIES_PER_ROUND / wall, 1
                ),
                "round_p50_ms": round(
                    statistics.median(round_seconds) * 1e3, 2
                ),
                "wall_seconds": round(wall, 3),
                "merged_sample_size": merged.sample_size,
                "merged_footprint": merged.footprint,
            }
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def run_recovery(stream: np.ndarray) -> dict:
    """Kill one shard under load; survivors answer, victim rejoins.

    ``sync_every=1`` makes every acknowledged batch durable, so the
    post-recovery count must equal the acknowledged rows exactly.
    """
    shards = RECOVERY_SHARDS
    queries = [
        FrequencyQuery(RELATION, ATTRIBUTE, value=int(v))
        for v in np.unique(stream[:256])[:16]
    ]
    # Queries the surviving shards own outright: these keep answering
    # at full coverage while shard 0 is down, without waiting on it.
    survivor_queries = [
        query
        for query in queries
        if shard_of_value(query.value, shards) != 0
    ]
    scatter_query = CountQuery(RELATION, ATTRIBUTE)
    directory = tempfile.mkdtemp(prefix="bench-shards-recovery-")
    try:
        with ShardedWarehouse(
            shards, directory, seed=6, sync_every=1
        ) as warehouse:
            warehouse.create_relation(RELATION, [ATTRIBUTE])
            warehouse.register_synopsis(
                RELATION,
                ATTRIBUTE,
                footprint_bound=TOTAL_BOUND // shards,
            )
            acked = 0
            for offset in range(0, RECOVERY_PRELOAD, LOAD_BATCH):
                acked += warehouse.load_batch(
                    RELATION,
                    {ATTRIBUTE: stream[offset : offset + LOAD_BATCH]},
                )

            def serve_round(position: int) -> tuple[float, int]:
                start = perf_counter()
                rows = warehouse.load_batch(
                    RELATION,
                    {
                        ATTRIBUTE: stream[
                            position : position + ROWS_PER_ROUND
                        ]
                    },
                )
                warehouse.answer_batch(queries)
                return perf_counter() - start, rows

            position = RECOVERY_PRELOAD
            healthy_rounds = []
            for _ in range(RECOVERY_ROUNDS):
                seconds, rows = serve_round(position)
                healthy_rounds.append(seconds)
                acked += rows
                position += ROWS_PER_ROUND

            warehouse.kill_shard(0)
            killed_at = perf_counter()
            degraded_answers = 0
            degraded_rounds = []
            while True:
                # Serve from the survivors: scatter answers come back
                # flagged degraded, survivor-routed ones at full
                # coverage.  At least one such round always runs
                # before the health poll.
                start = perf_counter()
                answer = warehouse.answer(scatter_query)
                warehouse.answer_batch(survivor_queries)
                degraded_rounds.append(perf_counter() - start)
                if answer.degraded:
                    degraded_answers += 1
                if warehouse.wait_until_healthy(timeout=0.05):
                    break
                if perf_counter() - killed_at > RECOVERY_TIMEOUT:
                    raise RuntimeError("shard never rejoined")
            recovery_seconds = perf_counter() - killed_at

            post_rounds = []
            for _ in range(RECOVERY_ROUNDS):
                seconds, rows = serve_round(position)
                post_rounds.append(seconds)
                acked += rows
                position += ROWS_PER_ROUND
            final = warehouse.answer(scatter_query)
            merged = warehouse.merged_synopsis(RELATION, ATTRIBUTE)
            merged.check_invariants()
            return {
                "shards": shards,
                "degraded_answers": degraded_answers,
                "recovery_seconds": round(recovery_seconds, 3),
                "healthy_round_p50_ms": round(
                    statistics.median(healthy_rounds) * 1e3, 2
                ),
                "degraded_round_p50_ms": round(
                    statistics.median(degraded_rounds) * 1e3, 2
                )
                if degraded_rounds
                else None,
                "post_recovery_round_p50_ms": round(
                    statistics.median(post_rounds) * 1e3, 2
                ),
                "post_recovery_degraded": final.degraded,
                "post_recovery_count": float(final.answer),
                "acknowledged_rows": acked,
                "exact_coverage": float(final.answer) == float(acked),
                "merged_sample_size": merged.sample_size,
                "equivalence_suite": (
                    "tests/test_cluster_statistical.py::"
                    "TestRecoveredClusterMatchesOracle"
                ),
            }
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def main() -> dict:
    stream = build_stream()
    queries = build_queries(stream)
    levels = [
        run_level(shards, stream, queries) for shards in SHARD_LEVELS
    ]
    base, top = levels[0], levels[-1]
    results = {
        "config": {
            "cpu_cores": os.cpu_count(),
            "preload_rows": PRELOAD,
            "domain": DISTINCT,
            "zipf_skew": SKEW,
            "total_footprint_bound": TOTAL_BOUND,
            "shard_levels": list(SHARD_LEVELS),
            "rounds": ROUNDS,
            "rows_per_round": ROWS_PER_ROUND,
            "queries_per_round": QUERIES_PER_ROUND,
            "sync_every": SYNC_EVERY,
        },
        "levels": levels,
        "speedups": {
            "shards": f"{top['shards']}x_vs_{base['shards']}x",
            "ingest": round(
                top["ingest_rows_per_s"] / base["ingest_rows_per_s"], 2
            ),
            "query": round(top["query_qps"] / base["query_qps"], 2),
        },
        "recovery_while_serving": run_recovery(stream),
    }
    RESULT_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    print(f"\nwritten to {RESULT_PATH}")
    return results


if __name__ == "__main__":
    main()
