"""Checkpoint and recovery of synopses (paper footnote 2).

"For persistence and recovery, combinations of snapshots and/or logs
can be stored on disk."  This example attaches a
:class:`~repro.persist.RecoveryManager` to a warehouse, so every load
batch is appended to a write-ahead log on disk.  It checkpoints the
warehouse and its counting sample mid-stream, keeps loading, simulates
a crash, and recovers the sample as *checkpoint + replay of the WAL
suffix* -- then checks that the recovered hot list agrees with a
never-crashed run.

Run:  python examples/persistence.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core import CountingSample
from repro.engine import ApproximateAnswerEngine, DataWarehouse
from repro.hotlist import CountingHotList
from repro.persist import CheckpointStore, RecoveryManager
from repro.streams import zipf_stream

N = 200_000
DOMAIN = 5_000
FOOTPRINT = 500
CHECKPOINT_AT = 120_000
BATCH = 10_000


def load(warehouse: DataWarehouse, values) -> None:
    """Load ``values`` in batches: one WAL record (and fsync) each."""
    for start in range(0, len(values), BATCH):
        warehouse.load_batch(
            "events", {"value": values[start : start + BATCH]}
        )


def main() -> None:
    stream = zipf_stream(N, DOMAIN, 1.25, seed=9)

    # ------------------------------------------------------------------
    # Reference run: never crashes.
    # ------------------------------------------------------------------
    reference = CountingSample(FOOTPRINT, seed=1)
    reference.insert_array(stream)

    with tempfile.TemporaryDirectory(prefix="repro-persistence-") as root:
        # --------------------------------------------------------------
        # Crash-recovery run: warehouse + durable WAL + checkpoint.
        # --------------------------------------------------------------
        store = CheckpointStore(Path(root))
        manager = RecoveryManager(store)
        warehouse = DataWarehouse()
        warehouse.create_relation("events", ["value"])
        engine = ApproximateAnswerEngine(warehouse)
        live = CountingSample(FOOTPRINT, seed=1)
        engine.register_sample("events", "value", live)
        manager.attach(warehouse)
        manager.bind("events", "value", live)

        load(warehouse, stream[:CHECKPOINT_AT])
        checkpoint_sequence = manager.checkpoint()
        print(
            f"checkpoint at {checkpoint_sequence:,} events "
            f"(footprint {live.footprint} words, threshold "
            f"{live.threshold:,.0f}); the WAL before it is truncated"
        )

        # Keep loading, then crash.  With the default sync_every=1
        # every acknowledged batch is already on disk, so dropping the
        # in-memory state loses nothing the WAL does not hold.
        load(warehouse, stream[CHECKPOINT_AT:])
        print(f"crash after {manager.sequence:,} events")
        manager.detach()
        del warehouse, engine, live, manager

        # Recovery: load the checkpoint, replay the WAL suffix.
        state = RecoveryManager(CheckpointStore(Path(root))).recover(seed=2)
        recovered = state.synopsis("events", "value")
        print(
            f"recovered: checkpoint {state.checkpoint_sequence:,} + "
            f"{state.replayed:,} replayed events = "
            f"{state.warehouse.relation('events').size:,} rows\n"
        )

    # ------------------------------------------------------------------
    # Verification.  Recovery is *statistically* equivalent, not
    # bitwise: the replayed suffix makes fresh (equally valid) coin
    # choices, so the recovered sample is a different draw from the
    # same distribution (Theorem 5 holds for both).  What must agree
    # is the answer quality: both hot lists report the same head.
    # ------------------------------------------------------------------
    recovered.check_invariants()
    reference_reporter = CountingHotList(FOOTPRINT, seed=4)
    reference_reporter.sample = reference
    recovered_reporter = CountingHotList(FOOTPRINT, seed=5)
    recovered_reporter.sample = recovered

    reference_top = reference_reporter.report(10).values()
    recovered_top = recovered_reporter.report(10).values()
    overlap = len(set(reference_top) & set(recovered_top))
    print(
        f"top-10 agreement between recovered and never-crashed run: "
        f"{overlap}/10"
    )
    print(
        f"thresholds: reference {reference.threshold:,.0f}, "
        f"recovered {recovered.threshold:,.0f}"
    )

    print("\ntop-10 from the recovered synopsis:")
    for entry in recovered_reporter.report(10):
        print(f"  value {entry.value}: ~{entry.estimated_count:,.0f}")


if __name__ == "__main__":
    main()
