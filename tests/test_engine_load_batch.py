"""Tests for the columnar load path: ``Relation.insert_batch``,
``DataWarehouse.load_batch``, and the engine's batch observer."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.concise import ConciseSample
from repro.core.counting import CountingSample
from repro.engine import ApproximateAnswerEngine, DataWarehouse
from repro.engine.composite import decode_composite_answer
from repro.engine.queries import FrequencyQuery, HotListQuery
from repro.engine.relation import Relation, RelationError
from repro.streams import zipf_stream


class TestRelationInsertBatch:
    def test_matches_per_row_multiset(self):
        per_row = Relation("r", ["a", "b"])
        batch = Relation("r", ["a", "b"])
        a = np.array([1, 2, 1, 3, 1], dtype=np.int64)
        b = np.array([9, 8, 9, 7, 9], dtype=np.int64)
        for row in zip(a.tolist(), b.tolist(), strict=True):
            per_row.insert(row)
        batch.insert_batch({"a": a, "b": b})
        assert batch.size == per_row.size == 5
        assert Counter(batch.rows()) == Counter(per_row.rows())
        assert np.array_equal(
            np.sort(batch.column("a")), np.sort(per_row.column("a"))
        )

    def test_float_columns_keep_native_types(self):
        relation = Relation("r", ["a", "b"])
        relation.insert_batch(
            {
                "a": np.array([1, 1], dtype=np.int64),
                "b": np.array([0.5, 0.5]),
            }
        )
        assert relation.size == 2
        ((row, count),) = Counter(relation.rows()).most_common(1)
        assert row == (1, 0.5)
        assert count == 2

    def test_rejects_bad_batches(self):
        relation = Relation("r", ["a", "b"])
        with pytest.raises(RelationError):
            relation.insert_batch({"a": np.array([1])})
        with pytest.raises(RelationError):
            relation.insert_batch(
                {
                    "a": np.array([1]),
                    "b": np.array([1, 2]),
                }
            )
        with pytest.raises(RelationError):
            relation.insert_batch(
                {
                    "a": np.array([1]),
                    "b": np.array([2]),
                    "c": np.array([3]),
                }
            )

    def test_empty_batch_is_noop(self):
        relation = Relation("r", ["a"])
        relation.insert_batch({"a": np.empty(0, dtype=np.int64)})
        assert relation.size == 0


class TestWarehouseLoadBatch:
    def test_loads_rows_and_counts_inserts(self):
        warehouse = DataWarehouse()
        warehouse.create_relation("r", ["a"])
        loaded = warehouse.load_batch(
            "r", {"a": np.arange(100, dtype=np.int64)}
        )
        assert loaded == 100
        assert warehouse.relation("r").size == 100
        assert warehouse.counters.inserts == 100

    def test_row_observers_get_per_row_fallback(self):
        warehouse = DataWarehouse()
        warehouse.create_relation("r", ["a", "b"])
        events = []
        warehouse.add_observer(
            lambda relation, row, is_insert: events.append(
                (relation, row, is_insert)
            )
        )
        warehouse.load_batch(
            "r",
            {
                "a": np.array([1, 2], dtype=np.int64),
                "b": np.array([3, 4], dtype=np.int64),
            },
        )
        assert events == [("r", (1, 3), True), ("r", (2, 4), True)]

    def test_batch_observer_called_once_with_columns(self):
        calls = []

        class BatchTap:
            def observe_batch(self, relation, columns):
                calls.append((relation, columns))

            def __call__(self, relation, row, is_insert):
                raise AssertionError(
                    "batch-capable observer got a per-row call"
                )

        warehouse = DataWarehouse()
        warehouse.create_relation("r", ["a"])
        warehouse.add_observer(BatchTap())
        warehouse.load_batch(
            "r", {"a": np.array([5, 6, 7], dtype=np.int64)}
        )
        assert len(calls) == 1
        relation, columns = calls[0]
        assert relation == "r"
        assert np.array_equal(columns["a"], [5, 6, 7])


class TestEngineBatchObservation:
    def _build(self):
        warehouse = DataWarehouse()
        warehouse.create_relation("sales", ["store", "item"])
        engine = ApproximateAnswerEngine(warehouse)
        return warehouse, engine

    def test_load_batch_feeds_synopses_and_row_counts(self):
        warehouse, engine = self._build()
        sample = ConciseSample(400, seed=1)
        engine.register_sample("sales", "item", sample)
        items = zipf_stream(5000, 200, 1.0, seed=2)
        stores = np.zeros(len(items), dtype=np.int64)
        warehouse.load_batch(
            "sales", {"store": stores, "item": items}
        )
        assert engine.rows_loaded("sales") == len(items)
        assert sample.total_inserted == len(items)
        sample.check_invariants()
        response = engine.answer(
            FrequencyQuery("sales", "item", value=1)
        )
        exact = engine.answer(
            FrequencyQuery("sales", "item", value=1), exact=True
        )
        assert response.answer == pytest.approx(
            exact.answer, rel=0.5
        )

    def test_load_batch_equivalent_to_load_for_queries(self):
        items = zipf_stream(4000, 150, 1.0, seed=5)
        stores = np.ones(len(items), dtype=np.int64)

        warehouse_rows, engine_rows = self._build()
        engine_rows.register_sample(
            "sales", "item", ConciseSample(400, seed=6)
        )
        warehouse_rows.load(
            "sales", list(zip(stores.tolist(), items.tolist(), strict=True))
        )

        warehouse_batch, engine_batch = self._build()
        engine_batch.register_sample(
            "sales", "item", ConciseSample(400, seed=6)
        )
        warehouse_batch.load_batch(
            "sales", {"store": stores, "item": items}
        )

        assert (
            warehouse_batch.relation("sales").size
            == warehouse_rows.relation("sales").size
        )
        query = FrequencyQuery("sales", "item", value=1)
        exact_rows = engine_rows.answer(query, exact=True)
        exact_batch = engine_batch.answer(query, exact=True)
        assert exact_rows.answer == exact_batch.answer
        approx_rows = engine_rows.answer(query)
        approx_batch = engine_batch.answer(query)
        # Different random paths, same law: both land near the truth.
        assert approx_rows.answer == pytest.approx(
            exact_rows.answer, rel=0.6, abs=40
        )
        assert approx_batch.answer == pytest.approx(
            exact_rows.answer, rel=0.6, abs=40
        )

    def test_composite_pairs_take_vectorized_path(self):
        from repro.hotlist.counting import CountingHotList

        warehouse, engine = self._build()
        name = engine.register_composite_hotlist(
            "sales", ("store", "item"), CountingHotList(200, seed=9)
        )
        stores = np.array([1, 1, 1, 2], dtype=np.int64)
        items = np.array([7, 7, 7, 8], dtype=np.int64)
        warehouse.load_batch(
            "sales", {"store": stores, "item": items}
        )
        answer = engine.answer(HotListQuery("sales", name, k=2))
        decoded = decode_composite_answer(answer.answer, 2)
        assert decoded[0][0] == (1, 7)

    def test_deletes_still_flow_per_row(self):
        warehouse, engine = self._build()
        sample = CountingSample(100, seed=11)
        engine.register_sample("sales", "item", sample)
        warehouse.load_batch(
            "sales",
            {
                "store": np.array([1, 1], dtype=np.int64),
                "item": np.array([5, 5], dtype=np.int64),
            },
        )
        assert sample.count_of(5) == 2
        warehouse.delete("sales", (1, 5))
        assert sample.count_of(5) == 1
        assert engine.rows_loaded("sales") == 1

    def test_float_column_cast_matches_per_row_int_cast(self):
        warehouse, engine = self._build()
        sample = CountingSample(100, seed=12)
        engine.register_sample("sales", "store", sample)
        warehouse.load_batch(
            "sales",
            {
                "store": np.array([2.0, 2.0, 3.0]),
                "item": np.array([1, 1, 1], dtype=np.int64),
            },
        )
        assert sample.count_of(2) == 2
        assert sample.count_of(3) == 1
