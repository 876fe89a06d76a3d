"""Ingest throughput: per-row vs vectorized batch.

Measures the two ingestion paths of the batch pipeline -- the
per-element ``insert`` loop and the vectorized ``insert_array`` -- for
concise and counting samples, plus end-to-end ``DataWarehouse.load``
vs ``load_batch`` with an engine synopsis attached.  Writes the
measured numbers, with the CPU count, Python and NumPy versions and
the commit they were taken on, to ``BENCH_batch_ingest.json`` at the
repository root.  Each path is timed ``REPEATS`` times on a fresh
synopsis (runs alternate between the paths), and every run is recorded
with the median, minimum and maximum: on a small shared host one run
can land anywhere in a wide band, so a single run shows nothing.

Run with ``PYTHONPATH=src python benchmarks/bench_batch_ingest.py``.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import numpy as np

from common import commit
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
REPEATS = 1 if SMOKE else 5
ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = (
    ROOT / "bench_out" / "BENCH_batch_ingest.json"
    if SMOKE
    else ROOT / "BENCH_batch_ingest.json"
)


def _rate(ingest, build, stream) -> float:
    """Rows per second of one ``ingest`` into a freshly built synopsis."""
    synopsis = build()
    start = perf_counter()
    ingest(synopsis, stream)
    return len(stream) / (perf_counter() - start)


def _summary(rates: list[float]) -> dict:
    return {
        "runs": [round(rate) for rate in rates],
        "median_rows_per_second": round(float(np.median(rates))),
        "min_rows_per_second": round(min(rates)),
        "max_rows_per_second": round(max(rates)),
    }


def _paired(per_row, batch, build, stream) -> dict:
    """Alternate the two paths ``REPEATS`` times and summarise each."""
    rates: dict[str, list[float]] = {"per_row": [], "batch": []}
    for _ in range(REPEATS):
        rates["per_row"].append(_rate(per_row, build, stream))
        rates["batch"].append(_rate(batch, build, stream))
    result = {path: _summary(runs) for path, runs in rates.items()}
    result["batch_speedup"] = round(
        result["batch"]["median_rows_per_second"]
        / result["per_row"]["median_rows_per_second"],
        2,
    )
    return result


def bench_core_sample(make, stream) -> dict:
    return _paired(
        lambda s, values: s.insert_many(values.tolist()),
        lambda s, values: s.insert_array(values),
        make,
        stream,
    )


def bench_warehouse(stream) -> dict:
    stores = np.ones(len(stream), dtype=np.int64)
    rows = list(zip(stores.tolist(), stream.tolist(), strict=True))

    def build():
        warehouse = DataWarehouse()
        warehouse.create_relation("sales", ["store", "item"])
        engine = ApproximateAnswerEngine(warehouse)
        engine.register_sample(
            "sales", "item", ConciseSample(FOOTPRINT, seed=10)
        )
        engine.register_sample(
            "sales", "store", CountingSample(FOOTPRINT, seed=11)
        )
        return warehouse

    return _paired(
        lambda warehouse, _: warehouse.load("sales", rows),
        lambda warehouse, values: warehouse.load_batch(
            "sales", {"store": stores, "item": values}
        ),
        build,
        stream,
    )


def main() -> dict:
    stream = zipf_stream(N, DOMAIN, SKEW, seed=1)

    results = {
        "config": {
            "inserts": N,
            "domain": DOMAIN,
            "zipf_skew": SKEW,
            "footprint_bound": FOOTPRINT,
            "repeats": REPEATS,
            "cpu_cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "commit": commit(),
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
