"""Ingest throughput: per-row vs vectorized batch.

Measures the two ingestion paths of the batch pipeline -- the
per-element ``insert`` loop and the vectorized ``insert_array`` -- for
concise and counting samples, plus end-to-end ``DataWarehouse.load``
vs ``load_batch`` with an engine synopsis attached.  Writes the
measured numbers, with the CPU count, Python and NumPy versions and
the commit they were taken on, to ``BENCH_batch_ingest.json`` at the
repository root.

Run with ``PYTHONPATH=src python benchmarks/bench_batch_ingest.py``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

from repro.core import ConciseSample, CountingSample
from repro.engine import ApproximateAnswerEngine, DataWarehouse
from repro.obs.clock import perf_counter
from repro.streams import zipf_stream

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

# The acceptance configuration: zipf-1.25 stream, N=500K, footprint
# 1000 (paper-scale stream; the batch speedups only grow with N).
N = 2_000 if SMOKE else 500_000
DOMAIN = 200 if SMOKE else 50_000
SKEW = 1.25
FOOTPRINT = 64 if SMOKE else 1_000
ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = (
    ROOT / "bench_out" / "BENCH_batch_ingest.json"
    if SMOKE
    else ROOT / "BENCH_batch_ingest.json"
)


def _commit() -> str:
    """The checkout's commit (``-dirty`` with uncommitted changes)."""
    try:
        result = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def _timed(build, ingest, stream) -> dict:
    synopsis = build()
    start = perf_counter()
    ingest(synopsis, stream)
    elapsed = perf_counter() - start
    return {
        "seconds": round(elapsed, 4),
        "rows_per_second": round(len(stream) / elapsed),
    }


def bench_core_sample(make, stream) -> dict:
    per_row = _timed(
        make,
        lambda s, values: s.insert_many(values.tolist()),
        stream,
    )
    batch = _timed(
        make, lambda s, values: s.insert_array(values), stream
    )
    return {
        "per_row": per_row,
        "batch": batch,
        "batch_speedup": round(
            per_row["seconds"] / batch["seconds"], 2
        ),
    }


def bench_warehouse(stream) -> dict:
    stores = np.ones(len(stream), dtype=np.int64)

    def build(seed):
        warehouse = DataWarehouse()
        warehouse.create_relation("sales", ["store", "item"])
        engine = ApproximateAnswerEngine(warehouse)
        engine.register_sample(
            "sales", "item", ConciseSample(FOOTPRINT, seed=seed)
        )
        engine.register_sample(
            "sales", "store", CountingSample(FOOTPRINT, seed=seed + 1)
        )
        return warehouse

    warehouse = build(10)
    rows = list(zip(stores.tolist(), stream.tolist(), strict=True))
    start = perf_counter()
    warehouse.load("sales", rows)
    per_row_seconds = perf_counter() - start

    warehouse = build(20)
    start = perf_counter()
    warehouse.load_batch("sales", {"store": stores, "item": stream})
    batch_seconds = perf_counter() - start

    return {
        "per_row": {
            "seconds": round(per_row_seconds, 4),
            "rows_per_second": round(len(stream) / per_row_seconds),
        },
        "batch": {
            "seconds": round(batch_seconds, 4),
            "rows_per_second": round(len(stream) / batch_seconds),
        },
        "batch_speedup": round(per_row_seconds / batch_seconds, 2),
    }


def main() -> dict:
    stream = zipf_stream(N, DOMAIN, SKEW, seed=1)

    results = {
        "config": {
            "inserts": N,
            "domain": DOMAIN,
            "zipf_skew": SKEW,
            "footprint_bound": FOOTPRINT,
            "cpu_cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "commit": _commit(),
        },
        "concise": bench_core_sample(
            lambda: ConciseSample(FOOTPRINT, seed=2), stream
        ),
        "counting": bench_core_sample(
            lambda: CountingSample(FOOTPRINT, seed=3), stream
        ),
        "warehouse": bench_warehouse(stream),
    }

    RESULT_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    print(f"\nwritten to {RESULT_PATH}")
    return results


if __name__ == "__main__":
    main()
