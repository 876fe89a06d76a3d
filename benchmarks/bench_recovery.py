"""Recovery-cost sweep: checkpoint interval vs restart time.

The durability layer trades runtime overhead for restart speed: a
checkpoint every ``k`` operations bounds the WAL suffix a recovery
must replay to at most ``k`` records.  This benchmark ingests a fixed
stream under several checkpoint intervals (plus a no-checkpoint
baseline that replays the whole log), crashes by abandoning the live
side, and times recovery -- snapshot load plus suffix replay.

Each interval runs ``REPEATS`` times, each run on a fresh store, and
every run's ingest, checkpoint and recovery times are recorded with
their median, minimum and maximum: on a small shared host one run can
land anywhere in a wide band, so a single run shows nothing.  Writes
the numbers, with the CPU count, Python and NumPy versions and the
commit they were taken on, to ``BENCH_recovery.json`` at the
repository root.

Run with ``PYTHONPATH=src python benchmarks/bench_recovery.py``.
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

N = 300 if SMOKE else 10_000
DOMAIN = 100 if SMOKE else 2_000
SKEW = 1.0
FOOTPRINT = 32 if SMOKE else 500
SYNC_EVERY = 8  # group commit: one fsync per 8 appends
# Chosen so the crash leaves a growing WAL suffix to replay (N mod
# interval = 16, 784, 1000, 3000); None = never checkpoint (full log).
INTERVALS = (100, None) if SMOKE else (256, 1_024, 3_000, 7_000, None)
REPEATS = 1 if SMOKE else 5
ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = (
    ROOT / "bench_out" / "BENCH_recovery.json"
    if SMOKE
    else ROOT / "BENCH_recovery.json"
)


def ingest(root: Path, stream, interval: int | None) -> dict:
    """Run the durable pipeline once; return ingest-side costs."""
    store = CheckpointStore(root, sync_every=SYNC_EVERY)
    manager = RecoveryManager(store)
    warehouse = DataWarehouse()
    warehouse.create_relation("sales", ["item"])
    manager.attach(warehouse)
    sample = CountingSample(FOOTPRINT, seed=2)
    manager.bind("sales", "item", sample)
    warehouse.add_observer(
        lambda rel, row, ins: sample.insert(row[0])
    )

    checkpoint_seconds = 0.0
    checkpoints = 0
    start = perf_counter()
    for position, value in enumerate(stream.tolist(), start=1):
        warehouse.insert("sales", (value,))
        if interval is not None and position % interval == 0:
            checkpoint_start = perf_counter()
            manager.checkpoint()
            checkpoint_seconds += perf_counter() - checkpoint_start
            checkpoints += 1
    # Crash: abandon without detaching.  Every acknowledged group is
    # already at its fsync point; recovery picks up from disk.
    return {
        "ingest_seconds": perf_counter() - start,
        "checkpoints": checkpoints,
        "checkpoint_seconds_total": checkpoint_seconds,
    }


def run_once(stream, interval: int | None) -> dict:
    """Ingest on a fresh store, crash, and time one recovery."""
    root = Path(tempfile.mkdtemp(prefix="bench-recovery-"))
    try:
        run = ingest(root / "state", stream, interval)
        manager = RecoveryManager(CheckpointStore(root / "state"))
        start = perf_counter()
        state = manager.recover(seed=3)
        run["recovery_seconds"] = perf_counter() - start
        assert state.sequence == N
        run["replayed_operations"] = state.replayed
        return run
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _summary(seconds: list[float]) -> dict:
    return {
        "runs": [round(value, 4) for value in seconds],
        "median": round(float(np.median(seconds)), 4),
        "min": round(min(seconds), 4),
        "max": round(max(seconds), 4),
    }


def bench_interval(stream, interval: int | None) -> dict:
    runs = [run_once(stream, interval) for _ in range(REPEATS)]
    return {
        "checkpoint_interval": interval,
        "checkpoints": runs[0]["checkpoints"],
        "replayed_operations": runs[0]["replayed_operations"],
        **{
            key: _summary([run[key] for run in runs])
            for key in (
                "ingest_seconds",
                "checkpoint_seconds_total",
                "recovery_seconds",
            )
        },
    }


def main() -> dict:
    stream = zipf_stream(N, DOMAIN, SKEW, seed=1)
    results = {
        "config": {
            "operations": N,
            "domain": DOMAIN,
            "zipf_skew": SKEW,
            "footprint_bound": FOOTPRINT,
            "sync_every": SYNC_EVERY,
            "repeats": REPEATS,
            "cpu_cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "commit": commit(),
        },
        "intervals": [
            bench_interval(stream, interval) for interval in INTERVALS
        ],
    }
    RESULT_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    return results


if __name__ == "__main__":
    main()
