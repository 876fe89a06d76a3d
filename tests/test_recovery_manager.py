"""RecoveryManager end-to-end: checkpoint, replay, repair, typed errors.

The live-side tap (WAL per acknowledged op), the checkpoint cycle
(snapshot, rotate, truncate, prune), and recovery as snapshot +
log-suffix replay -- including the torn-tail repair path and the
never-partial-state guarantee.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.concise import ConciseSample
from repro.core.counting import CountingSample
from repro.engine.warehouse import DataWarehouse
from repro.persist import (
    CheckpointStore,
    LogGapError,
    RecoveryManager,
    ReplayError,
    read_operations,
    record_range,
    segment_name,
)
from repro.streams import zipf_stream


def build_live(tmp_path, *, synopsis=None):
    store = CheckpointStore(tmp_path / "state")
    manager = RecoveryManager(store)
    warehouse = DataWarehouse()
    warehouse.create_relation("sales", ["item", "qty"])
    manager.attach(warehouse)
    if synopsis is not None:
        manager.bind("sales", "item", synopsis)
    return store, manager, warehouse


def reopen(tmp_path, *, seed=17, **kwargs):
    store = CheckpointStore(tmp_path / "state")
    return RecoveryManager(store).recover(seed=seed, **kwargs)


class TestHappyPath:
    def test_checkpoint_plus_suffix_restores_rows(self, tmp_path):
        _, manager, warehouse = build_live(tmp_path)
        for i in range(10):
            warehouse.insert("sales", (i % 3, i))
        manager.checkpoint()
        for i in range(10, 16):
            warehouse.insert("sales", (i % 3, i))
        warehouse.delete("sales", (0, 0))
        manager.detach()

        state = reopen(tmp_path)
        assert state.checkpoint_sequence == 10
        assert state.replayed == 7
        assert state.sequence == 17
        assert state.torn_tail is None
        restored = state.warehouse.relation("sales")
        assert restored.size == 15
        assert Counter(restored.rows()) == Counter(
            [(i % 3, i) for i in range(16) if i != 0]
        )

    def test_synopsis_rides_the_checkpoint(self, tmp_path):
        sample = CountingSample(footprint_bound=64, seed=5)
        _, manager, warehouse = build_live(tmp_path, synopsis=sample)
        warehouse.add_observer(
            lambda rel, row, ins: (
                sample.insert(row[0]) if ins else sample.delete(row[0])
            )
        )
        for i in range(12):
            warehouse.insert("sales", (i % 4, i))
        manager.checkpoint()
        for i in range(12, 20):
            warehouse.insert("sales", (i % 4, i))
        manager.detach()

        state = reopen(tmp_path)
        restored = state.synopsis("sales", "item")
        assert isinstance(restored, CountingSample)
        restored.check_invariants()
        assert restored.total_inserted == sample.total_inserted
        assert restored.as_dict() == sample.as_dict()

    def test_recovered_manager_continues_the_stream(self, tmp_path):
        _, manager, warehouse = build_live(tmp_path)
        warehouse.insert("sales", (1, 1))
        manager.checkpoint()
        manager.detach()

        store = CheckpointStore(tmp_path / "state")
        survivor = RecoveryManager(store)
        state = survivor.recover(seed=3)
        survivor.attach(state.warehouse)
        state.warehouse.insert("sales", (2, 2))
        survivor.checkpoint()
        survivor.detach()

        again = reopen(tmp_path)
        assert again.sequence == 2
        assert again.warehouse.relation("sales").size == 2

    def test_empty_store_recovers_to_fresh_state(self, tmp_path):
        state = reopen(tmp_path)
        assert state.sequence == 0
        assert state.replayed == 0
        assert state.checkpoint_sequence == -1
        assert state.synopses == {}

    def test_checkpoint_rotates_and_prunes(self, tmp_path):
        store, manager, warehouse = build_live(tmp_path)
        for i in range(4):
            warehouse.insert("sales", (i, i))
        manager.checkpoint()
        for i in range(4, 8):
            warehouse.insert("sales", (i, i))
        manager.checkpoint()
        assert store.checkpoint_sequences() == [8]
        # Only the post-checkpoint segment survives truncation.
        assert store.wal.segment_bases() == [9]

    def test_checkpoint_plus_replay_equals_continuous(self, tmp_path):
        """Checkpoint halfway, replay the rest: the recovered sample is
        the one an uninterrupted run builds (the footprint is roomy, so
        counting maintenance is deterministic)."""
        stream = zipf_stream(1_000, 50, 1.0, seed=1)
        half = len(stream) // 2
        continuous = CountingSample(200, seed=2)
        continuous.insert_array(stream)

        sample = CountingSample(200, seed=2)
        _, manager, warehouse = build_live(tmp_path, synopsis=sample)
        warehouse.add_observer(lambda rel, row, ins: sample.insert(row[0]))
        for value in stream[:half].tolist():
            warehouse.insert("sales", (value, 0))
        manager.checkpoint()
        for value in stream[half:].tolist():
            warehouse.insert("sales", (value, 0))
        manager.detach()

        state = reopen(tmp_path, seed=3)
        assert state.replayed == len(stream) - half
        restored = state.synopsis("sales", "item")
        assert restored.as_dict() == continuous.as_dict()

    def test_replay_filters_by_relation(self, tmp_path):
        # A second relation with the same attribute name interleaves
        # the suffix; only "sales" rows may reach the bound sample.
        sample = CountingSample(footprint_bound=64, seed=4)
        _, manager, warehouse = build_live(tmp_path, synopsis=sample)
        warehouse.create_relation("returns", ["item", "qty"])
        manager.checkpoint()
        warehouse.insert("sales", (1, 0))
        warehouse.insert("returns", (2, 0))
        warehouse.insert("sales", (3, 0))
        manager.detach()

        state = reopen(tmp_path)
        assert state.replayed == 3
        restored = state.synopsis("sales", "item")
        assert restored.as_dict() == {1: 1, 3: 1}
        assert state.warehouse.relation("returns").size == 1

    def test_replay_applies_deletes(self, tmp_path):
        sample = CountingSample(footprint_bound=64, seed=5)
        _, manager, warehouse = build_live(tmp_path, synopsis=sample)
        manager.checkpoint()
        warehouse.insert("sales", (7, 0))
        warehouse.insert("sales", (7, 1))
        warehouse.delete("sales", (7, 0))
        manager.detach()

        state = reopen(tmp_path)
        assert state.synopsis("sales", "item").count_of(7) == 1
        assert state.warehouse.relation("sales").size == 1

    def test_load_batch_is_one_wal_record(self, tmp_path):
        store, manager, warehouse = build_live(tmp_path)
        warehouse.load_batch(
            "sales",
            {"item": np.asarray([1, 2, 3]), "qty": np.asarray([4, 5, 6])},
        )
        warehouse.insert("sales", (7, 8))
        manager.detach()

        operations, _, _ = read_operations(store.filesystem, store.wal.directory)
        assert [op["kind"] for op in operations] == ["batch", "op"]
        assert record_range(operations[0]) == (1, 3)
        assert record_range(operations[1]) == (4, 4)
        state = reopen(tmp_path)
        assert state.sequence == 4
        assert sorted(state.warehouse.relation("sales").rows()) == [
            (1, 4), (2, 5), (3, 6), (7, 8)
        ]


class TestLateCreatedRelations:
    """Relations created after attach must be replayable from the WAL.

    Their schema record is appended lazily at the first logged op, so
    a crash before the next checkpoint never strands acknowledged
    operations behind a `ReplayError` (regression: previously schema
    was written only at attach and rotation, making the whole store
    unrecoverable).
    """

    def test_relation_created_after_attach_recovers(self, tmp_path):
        _, manager, warehouse = build_live(tmp_path)
        warehouse.insert("sales", (1, 1))
        warehouse.create_relation("returns", ["item"])
        warehouse.insert("returns", (2,))
        manager.detach()

        state = reopen(tmp_path)
        assert state.sequence == 2
        restored = state.warehouse.relation("returns")
        assert Counter(restored.rows()) == Counter([(2,)])

    def test_relation_created_after_checkpoint_recovers(self, tmp_path):
        _, manager, warehouse = build_live(tmp_path)
        warehouse.insert("sales", (1, 1))
        manager.checkpoint()
        warehouse.create_relation("returns", ["item"])
        warehouse.insert("returns", (2,))
        warehouse.insert("returns", (3,))
        manager.detach()

        state = reopen(tmp_path)
        assert state.checkpoint_sequence == 1
        assert state.sequence == 3
        restored = state.warehouse.relation("returns")
        assert Counter(restored.rows()) == Counter([(2,), (3,)])


class TestTornTailRepair:
    def tear_last_segment(self, store):
        base = store.wal.segment_bases()[-1]
        path = store.wal.directory / segment_name(base)
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        return path, data

    def test_torn_tail_is_dropped_reported_and_repaired(self, tmp_path):
        store, manager, warehouse = build_live(tmp_path)
        for i in range(6):
            warehouse.insert("sales", (i, i))
        manager.detach()
        path, _ = self.tear_last_segment(store)

        state = reopen(tmp_path)
        assert state.torn_tail is not None
        assert state.sequence == 5  # the torn sixth record is dropped
        assert state.warehouse.relation("sales").size == 5

        # The damaged segment was truncated to its clean prefix: a
        # second recovery sees a clean WAL.
        again = reopen(tmp_path)
        assert again.torn_tail is None
        assert again.sequence == 5

    def test_transient_fault_during_repair_is_retried(self, tmp_path):
        from repro.faults import WRITE_ERROR, FaultPlan, FaultyFilesystem
        from repro.persist import LocalFileSystem

        store, manager, warehouse = build_live(tmp_path)
        for i in range(8):
            warehouse.insert("sales", (i, i))
        manager.detach()
        # The repair path is write-prefix, fsync, replace, dir-sync; a
        # transient fault at each step must be absorbed by the retry
        # policy, not abort recovery.  Each tear drops one record, so
        # the recovered sequence steps down by one per iteration.
        for index in range(4):
            self.tear_last_segment(store)
            fs = FaultyFilesystem(
                LocalFileSystem(), FaultPlan.single(index, WRITE_ERROR)
            )
            state = RecoveryManager(
                CheckpointStore(tmp_path / "state", fs)
            ).recover(seed=17)
            assert state.torn_tail is not None
            assert state.sequence == 7 - index

    def test_strict_mode_refuses_the_torn_tail(self, tmp_path):
        from repro.persist import TornWriteError

        store, manager, warehouse = build_live(tmp_path)
        warehouse.insert("sales", (1, 1))
        warehouse.insert("sales", (2, 2))
        manager.detach()
        self.tear_last_segment(store)
        with pytest.raises(TornWriteError):
            reopen(tmp_path, tolerate_torn_tail=False)


class TestTypedFailures:
    def test_gap_between_checkpoint_and_wal(self, tmp_path):
        store, manager, warehouse = build_live(tmp_path)
        for i in range(3):
            warehouse.insert("sales", (i, i))
        manager.checkpoint()
        for i in range(3, 6):
            warehouse.insert("sales", (i, i))
        manager.detach()
        # Losing the post-checkpoint segment leaves ops 4..6 unknown.
        base = store.wal.segment_bases()[-1]
        (store.wal.directory / segment_name(base)).unlink()
        state = reopen(tmp_path)
        # With the whole suffix gone recovery legitimately stops at
        # the checkpoint -- but acknowledged ops 4..6 are lost, which
        # the sequence number makes visible.
        assert state.sequence == 3

    def test_gap_inside_the_suffix_raises(self, tmp_path):
        store, manager, warehouse = build_live(tmp_path)
        warehouse.insert("sales", (1, 1))
        manager.checkpoint()
        for i in range(2, 6):
            warehouse.insert("sales", (i, i))
        manager.checkpoint()
        for i in range(6, 9):
            warehouse.insert("sales", (i, i))
        manager.detach()
        # Truncation left only the post-checkpoint segment (ops 6..8);
        # removing the newest checkpoint makes ops 1..5 unrecoverable,
        # which must surface as a typed gap -- never partial state.
        assert store.wal.segment_bases() == [6]
        newest = store.checkpoint_sequences()[-1]
        from repro.persist.checkpoint import _checkpoint_name

        (store.directory / _checkpoint_name(newest)).unlink()
        with pytest.raises(LogGapError):
            reopen(tmp_path)

    def test_delete_replay_needs_a_counting_sample(self, tmp_path):
        sample = ConciseSample(footprint_bound=64, seed=5)
        _, manager, warehouse = build_live(tmp_path, synopsis=sample)
        warehouse.insert("sales", (1, 1))
        manager.checkpoint()
        warehouse.delete("sales", (1, 1))
        manager.detach()
        with pytest.raises(ReplayError, match="cannot[\\s\\S]*replay"):
            reopen(tmp_path)

    def test_replay_against_wrong_relation_is_typed(self, tmp_path):
        store, manager, warehouse = build_live(tmp_path)
        warehouse.insert("sales", (1, 1))
        manager.checkpoint()
        warehouse.insert("sales", (2, 2))
        manager.detach()
        # Corrupt the checkpoint so "sales" claims a single attribute:
        # the replayed two-element row cannot apply to it.  (A missing
        # relation would be healed from the WAL's schema records, so
        # arity is the honest way to make replay impossible.)
        from repro.persist.framing import encode_frame
        from repro.persist.checkpoint import _checkpoint_name

        path = store.directory / _checkpoint_name(1)
        payload = store.load_checkpoint(1)
        payload["relations"] = {
            "sales": {
                **payload["relations"]["sales"],
                "attributes": ["item"],
                "rows": [],
            }
        }
        path.write_bytes(
            encode_frame(
                {
                    "kind": "checkpoint",
                    "format_version": 1,
                    "sequence": 1,
                    "state": payload,
                }
            )
        )
        with pytest.raises(ReplayError):
            reopen(tmp_path)

    def test_attach_twice_is_an_error(self, tmp_path):
        _, manager, warehouse = build_live(tmp_path)
        with pytest.raises(RuntimeError, match="already attached"):
            manager.attach(warehouse)

    def test_checkpoint_requires_attachment(self, tmp_path):
        store = CheckpointStore(tmp_path / "state")
        manager = RecoveryManager(store)
        with pytest.raises(RuntimeError, match="attach"):
            manager.checkpoint()
