"""Unit tests for attribute-tuple (composite) hot lists."""

from __future__ import annotations

import pytest

from repro.engine import (
    ApproximateAnswerEngine,
    DataWarehouse,
    HotListQuery,
)
from repro.engine.composite import (
    composite_name,
    decode_composite,
    decode_composite_answer,
    encode_composite,
)
from repro.hotlist import CountingHotList


class TestEncoding:
    def test_roundtrip(self):
        for values in [(1, 2), (0, 0), (5, 5), (9, 3, 7)]:
            assert decode_composite(
                encode_composite(values), len(values)
            ) == values

    def test_order_matters(self):
        assert encode_composite((1, 2)) != encode_composite((2, 1))

    def test_leading_zero_distinct(self):
        assert encode_composite((0, 5)) != encode_composite((5, 0))

    def test_arity_mismatch_detected(self):
        code = encode_composite((1, 2, 3))
        with pytest.raises(ValueError):
            decode_composite(code, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            encode_composite((1,))
        with pytest.raises(ValueError):
            encode_composite((-1, 2))
        with pytest.raises(ValueError):
            encode_composite((1 << 30, 2))
        with pytest.raises(ValueError):
            decode_composite(encode_composite((1, 2)), 1)

    def test_composite_name(self):
        assert composite_name(("a", "b")) == "a+b"
        with pytest.raises(ValueError):
            composite_name(("a",))


class TestEngineIntegration:
    def _build(self):
        warehouse = DataWarehouse()
        warehouse.create_relation("sales", ["store", "product"])
        engine = ApproximateAnswerEngine(warehouse)
        reporter = CountingHotList(200, seed=1)
        name = engine.register_composite_hotlist(
            "sales", ("store", "product"), reporter
        )
        return warehouse, engine, name

    def test_register_returns_canonical_name(self):
        _, _, name = self._build()
        assert name == "store+product"

    def test_register_validates_attributes(self):
        warehouse = DataWarehouse()
        warehouse.create_relation("sales", ["store", "product"])
        engine = ApproximateAnswerEngine(warehouse)
        from repro.engine.relation import RelationError

        with pytest.raises(RelationError):
            engine.register_composite_hotlist(
                "sales", ("store", "nope"), CountingHotList(50, seed=2)
            )

    def test_hot_pairs_found(self):
        warehouse, engine, name = self._build()
        # Store 3 sells product 7 heavily; background is spread out.
        for i in range(500):
            warehouse.insert("sales", {"store": 3, "product": 7})
        for i in range(300):
            warehouse.insert(
                "sales", {"store": i % 10, "product": i % 50}
            )
        response = engine.answer(HotListQuery("sales", name, k=3))
        decoded = decode_composite_answer(response.answer, 2)
        assert decoded[0][0] == (3, 7)
        assert decoded[0][1] == pytest.approx(500, rel=0.15)

    def test_composite_tracks_deletes(self):
        warehouse, engine, name = self._build()
        for _ in range(100):
            warehouse.insert("sales", {"store": 1, "product": 1})
        for _ in range(60):
            warehouse.insert("sales", {"store": 2, "product": 2})
        for _ in range(90):
            warehouse.delete("sales", {"store": 1, "product": 1})
        response = engine.answer(HotListQuery("sales", name, k=1))
        decoded = decode_composite_answer(response.answer, 2)
        assert decoded[0][0] == (2, 2)

    def test_single_attribute_synopses_unaffected(self):
        warehouse, engine, name = self._build()
        from repro.core import ConciseSample

        engine.register_sample(
            "sales", "product", ConciseSample(100, seed=3)
        )
        for i in range(200):
            warehouse.insert(
                "sales", {"store": i % 5, "product": i % 20}
            )
        from repro.engine import CountQuery

        response = engine.answer(CountQuery("sales", "product"))
        assert response.answer == pytest.approx(200.0)

    def test_duplicate_composite_registration_rejected(self):
        warehouse, engine, name = self._build()
        with pytest.raises(ValueError):
            engine.register_composite_hotlist(
                "sales",
                ("store", "product"),
                CountingHotList(50, seed=4),
            )

    def test_wider_than_pair_composite_rejected(self):
        warehouse = DataWarehouse()
        warehouse.create_relation("sales", ["store", "product", "day"])
        engine = ApproximateAnswerEngine(warehouse)
        with pytest.raises(ValueError, match="at most two attributes"):
            engine.register_composite_hotlist(
                "sales",
                ("store", "product", "day"),
                CountingHotList(50, seed=5),
            )
        # Nothing was registered, so loads still go through.
        warehouse.load("sales", [(1, 2, 3)])
