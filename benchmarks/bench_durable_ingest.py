"""Durable ingest throughput: per-row WAL appends vs group commit.

The durable batch fast path collapses a whole ``load_batch`` into one
columnar WAL record -- one frame-encode buffer, one retried write, one
fsync point -- where the per-row path pays all three per row.  This
benchmark ingests the same stream three ways under ``sync_every=1``
durability (an operation/batch is acknowledged only after its fsync
point):

* **durable per-row** -- ``warehouse.insert`` under an attached
  :class:`~repro.persist.recovery.RecoveryManager`: one ``op`` record,
  one write, one fsync per row;
* **durable batch** -- ``warehouse.load_batch``: one ``batch`` record
  and one fsync per batch, same acknowledged-durability per batch;
* **non-durable batch** -- ``load_batch`` with no manager attached,
  as the ceiling.

It then crashes each durable tree (abandon without detaching) and
times recovery, so the vectorized batch replay (columnar decode +
``insert_batch`` + synopsis ``insert_array``) is measured against the
row-loop replay of an equivalent per-row WAL.

Each path runs ``REPEATS`` times (5; 1 with ``REPRO_BENCH_SMOKE=1``),
each run on a fresh store, and every run's ingest and recovery time is
kept beside the median, minimum and maximum: on a small shared host
one run can land anywhere in a wide band.  Writes the numbers, with
the CPU count, Python and NumPy versions and the commit they were
taken on, to ``BENCH_durable_ingest.json`` at the repository root.
With ``REPRO_BENCH_SMOKE=1`` runs tiny sizes and writes under
``bench_out/`` instead (the CI smoke job).

Run with ``PYTHONPATH=src python benchmarks/bench_durable_ingest.py``.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import tempfile
from pathlib import Path

import numpy as np

from common import commit
from repro.core import CountingSample
from repro.engine import DataWarehouse
from repro.obs.clock import perf_counter
from repro.persist import CheckpointStore, RecoveryManager
from repro.streams import zipf_stream

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

N = 400 if SMOKE else 20_000
BATCH = 50 if SMOKE else 1_000
DOMAIN = 100 if SMOKE else 2_000
SKEW = 1.0
FOOTPRINT = 32 if SMOKE else 500
REPEATS = 1 if SMOKE else 5
ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = (
    ROOT / "bench_out" / "BENCH_durable_ingest.json"
    if SMOKE
    else ROOT / "BENCH_durable_ingest.json"
)


class _SampleTap:
    """A live synopsis observer with both row and batch entry points."""

    def __init__(self, sample: CountingSample) -> None:
        self.sample = sample

    def __call__(self, relation: str, row: tuple, is_insert: bool) -> None:
        self.sample.insert(row[0])

    def observe_batch(self, relation: str, columns) -> None:
        self.sample.insert_array(columns["item"])


def _pipeline(root: Path, *, durable: bool):
    """Build warehouse + synopsis, optionally under a recovery manager."""
    warehouse = DataWarehouse()
    warehouse.create_relation("sales", ["item"])
    manager = None
    if durable:
        store = CheckpointStore(root, sync_every=1)
        manager = RecoveryManager(store)
        manager.attach(warehouse)
        manager.bind("sales", "item", CountingSample(FOOTPRINT, seed=2))
        # Checkpoint the empty state so recovery replays the whole WAL.
        manager.checkpoint()
    warehouse.add_observer(_SampleTap(CountingSample(FOOTPRINT, seed=3)))
    return warehouse, manager


def _wal_bytes(root: Path) -> int:
    directory = root / "wal"
    if not directory.is_dir():
        return 0
    return sum(path.stat().st_size for path in directory.iterdir())


def ingest_per_row(root: Path, stream) -> dict:
    warehouse, _ = _pipeline(root, durable=True)
    start = perf_counter()
    for value in stream.tolist():
        warehouse.insert("sales", (value,))
    elapsed = perf_counter() - start
    # Crash: abandon without detaching; acked rows are fsynced.
    return {
        "ingest_seconds": elapsed,
        "fsync_points": N,
        "wal_bytes": _wal_bytes(root),
    }


def ingest_batched(root: Path, stream, *, durable: bool) -> dict:
    warehouse, _ = _pipeline(root, durable=durable)
    batches = N // BATCH
    start = perf_counter()
    for index in range(batches):
        warehouse.load_batch(
            "sales",
            {"item": stream[index * BATCH : (index + 1) * BATCH]},
        )
    elapsed = perf_counter() - start
    return {
        "ingest_seconds": elapsed,
        "batches": batches,
        "rows_per_batch": BATCH,
        "fsync_points": batches if durable else 0,
        "wal_bytes": _wal_bytes(root),
    }


def time_recovery(root: Path) -> dict:
    manager = RecoveryManager(CheckpointStore(root))
    start = perf_counter()
    state = manager.recover(seed=9)
    elapsed = perf_counter() - start
    assert state.sequence == N
    return {"recovery_seconds": elapsed, "replayed_rows": state.replayed}


def _summary(seconds: list[float]) -> dict:
    return {
        "runs": [round(value, 4) for value in seconds],
        "median": round(float(np.median(seconds)), 4),
        "min": round(min(seconds), 4),
        "max": round(max(seconds), 4),
    }


def bench_path(stream, ingest, *, durable: bool) -> dict:
    """``REPEATS`` fresh-store runs of one path, summarised."""
    runs = []
    for _ in range(REPEATS):
        root = Path(tempfile.mkdtemp(prefix="bench-durable-"))
        try:
            run = ingest(root / "state", stream)
            if durable:
                run.update(time_recovery(root / "state"))
            runs.append(run)
        finally:
            shutil.rmtree(root, ignore_errors=True)
    result = {
        key: value
        for key, value in runs[0].items()
        if key not in ("ingest_seconds", "recovery_seconds")
    }
    result["ingest_seconds"] = _summary([run["ingest_seconds"] for run in runs])
    result["rows_per_second"] = round(N / result["ingest_seconds"]["median"])
    if durable:
        result["recovery_seconds"] = _summary(
            [run["recovery_seconds"] for run in runs]
        )
        result["replayed_rows_per_second"] = round(
            result["replayed_rows"] / result["recovery_seconds"]["median"]
        )
    return result


def _ratio(numerator: dict, denominator: dict, key: str) -> float:
    return round(numerator[key]["median"] / denominator[key]["median"], 2)


def main() -> dict:
    stream = zipf_stream(N, DOMAIN, SKEW, seed=1)
    durable_per_row = bench_path(stream, ingest_per_row, durable=True)
    durable_batch = bench_path(
        stream,
        lambda root, data: ingest_batched(root, data, durable=True),
        durable=True,
    )
    non_durable = bench_path(
        stream,
        lambda root, data: ingest_batched(root, data, durable=False),
        durable=False,
    )
    results = {
        "config": {
            "rows": N,
            "rows_per_batch": BATCH,
            "domain": DOMAIN,
            "zipf_skew": SKEW,
            "footprint_bound": FOOTPRINT,
            "sync_every": 1,
            "repeats": REPEATS,
            "smoke": SMOKE,
            "cpu_cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "commit": commit(),
        },
        "durable_per_row": durable_per_row,
        "durable_batch": durable_batch,
        "non_durable_batch": non_durable,
        "summary": {
            "durable_batch_speedup": _ratio(
                durable_per_row, durable_batch, "ingest_seconds"
            ),
            "durability_overhead_vs_non_durable": _ratio(
                durable_batch, non_durable, "ingest_seconds"
            ),
            "wal_bytes_ratio": round(
                durable_per_row["wal_bytes"] / durable_batch["wal_bytes"], 2
            ),
            "replay_speedup": _ratio(
                durable_per_row, durable_batch, "recovery_seconds"
            ),
        },
    }
    RESULT_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    print(f"\nwritten to {RESULT_PATH}")
    return results


if __name__ == "__main__":
    main()
