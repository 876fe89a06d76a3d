"""The epoch-invalidated query-result cache.

Correctness contract: with a cache attached, the engine's answers are
*indistinguishable* from an uncached engine's -- repeats are served
from memory only while the target relations' epochs are unchanged, and
any ingest (per-row insert, batch load, delete, synopsis re-register,
out-of-band merge via ``bump_epoch``) invalidates exactly the affected
relation's entries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.concise import ConciseSample
from repro.engine.cache import QueryResultCache
from repro.engine.engine import ApproximateAnswerEngine
from repro.engine.queries import (
    CountQuery,
    FrequencyQuery,
    HotListQuery,
    JoinSizeQuery,
)
from repro.engine.registry import SAMPLE
from repro.engine.relation import Relation
from repro.engine.warehouse import DataWarehouse
from repro.hotlist.concise import ConciseHotList
from repro.obs.clock import FakeClock
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


def build_engine(
    *,
    cache: QueryResultCache | None = None,
    tracer: Tracer | None = None,
    seed: int = 7,
) -> ApproximateAnswerEngine:
    warehouse = DataWarehouse()
    warehouse.create_relation("sales", ["price"])
    engine = ApproximateAnswerEngine(
        warehouse, tracer=tracer, cache=cache
    )
    engine.register_sample(
        "sales", "price", ConciseSample(64, seed=seed)
    )
    engine.register_hotlist(
        "sales", "price", ConciseHotList(32, seed=seed + 1)
    )
    warehouse.load_batch(
        "sales", {"price": np.arange(200, dtype=np.int64) % 17}
    )
    return engine


class TestRelationEpoch:
    def test_each_mutation_advances(self):
        relation = Relation("r", ["a"])
        assert relation.epoch == 0
        relation.insert((1,))
        epoch_after_insert = relation.epoch
        assert epoch_after_insert > 0
        relation.insert_batch({"a": np.asarray([2, 3], np.int64)})
        assert relation.epoch > epoch_after_insert
        before_delete = relation.epoch
        relation.delete((1,))
        assert relation.epoch > before_delete

    def test_empty_batch_does_not_advance(self):
        relation = Relation("r", ["a"])
        relation.insert_batch({"a": np.asarray([], np.int64)})
        assert relation.epoch == 0

    def test_snapshot_restore_seeds_epoch(self):
        relation = Relation("r", ["a"])
        relation.insert((1,))
        relation.insert((1,))
        restored = Relation.from_dict(relation.to_dict())
        assert restored.epoch == restored.size == 2


class TestQueryResultCacheUnit:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            QueryResultCache(0)

    def test_hit_requires_matching_epochs(self):
        cache = QueryResultCache(4, registry=MetricsRegistry())
        key = CountQuery("sales", "price")
        token = (("sales", (1, 0)),)
        cache.put(key, token, "answer")
        assert cache.get(key, token) == "answer"
        stale = (("sales", (2, 0)),)
        assert cache.get(key, stale) is None
        assert cache.stats["invalidations"] == 1
        # The stale entry was dropped, not resurrected.
        assert cache.get(key, token) is None
        assert cache.stats["misses"] == 2

    def test_lru_eviction(self):
        cache = QueryResultCache(2, registry=MetricsRegistry())
        token = (("sales", (1, 0)),)
        first = CountQuery("sales", "price")
        second = FrequencyQuery("sales", "price", value=1)
        third = HotListQuery("sales", "price", k=5)
        cache.put(first, token, "a")
        cache.put(second, token, "b")
        assert cache.get(first, token) == "a"  # first is now most recent
        cache.put(third, token, "c")  # evicts second
        assert cache.stats["evictions"] == 1
        assert cache.get(second, token) is None
        assert cache.get(first, token) == "a"
        assert cache.get(third, token) == "c"

    def test_clear_drops_entries(self):
        cache = QueryResultCache(4, registry=MetricsRegistry())
        token = (("sales", (1, 0)),)
        cache.put(CountQuery("sales", "price"), token, "a")
        cache.clear()
        assert len(cache) == 0

    def test_metrics_exported(self):
        registry = MetricsRegistry()
        cache = QueryResultCache(4, registry=registry)
        key = CountQuery("sales", "price")
        token = (("sales", (1, 0)),)
        cache.get(key, token)
        cache.put(key, token, "a")
        cache.get(key, token)
        labels = {"query": "CountQuery"}
        assert registry.value(
            "repro_query_cache_misses_total", labels
        ) == 1
        assert registry.value(
            "repro_query_cache_hits_total", labels
        ) == 1


class TestEngineCaching:
    def test_repeat_query_hits(self):
        cache = QueryResultCache(registry=MetricsRegistry())
        engine = build_engine(cache=cache)
        query = CountQuery("sales", "price")
        first = engine.answer(query)
        second = engine.answer(query)
        assert second is first  # served from the cache, not recomputed
        assert cache.stats == {
            "hits": 1,
            "misses": 1,
            "invalidations": 0,
            "evictions": 0,
            "size": 1,
        }

    def test_insert_invalidates(self):
        cache = QueryResultCache(registry=MetricsRegistry())
        engine = build_engine(cache=cache)
        query = CountQuery("sales", "price")
        engine.answer(query)
        engine.warehouse.insert("sales", (3,))
        engine.answer(query)
        assert cache.stats["invalidations"] == 1
        assert cache.stats["hits"] == 0

    def test_load_batch_invalidates(self):
        cache = QueryResultCache(registry=MetricsRegistry())
        engine = build_engine(cache=cache)
        query = CountQuery("sales", "price")
        engine.answer(query)
        engine.warehouse.load_batch(
            "sales", {"price": np.asarray([5, 6], np.int64)}
        )
        engine.answer(query)
        assert cache.stats["invalidations"] == 1

    def test_bump_epoch_invalidates(self):
        # The out-of-band mutation hook: e.g. merging a distributed
        # partial sample into a registered synopsis.
        cache = QueryResultCache(registry=MetricsRegistry())
        engine = build_engine(cache=cache)
        query = CountQuery("sales", "price")
        engine.answer(query)
        engine.bump_epoch("sales")
        engine.answer(query)
        assert cache.stats["invalidations"] == 1

    def test_reregistration_invalidates(self):
        # Snapshot restore re-registers the recovered synopsis, which
        # must not leave pre-crash cached answers live.
        cache = QueryResultCache(registry=MetricsRegistry())
        engine = build_engine(cache=cache)
        query = CountQuery("sales", "price")
        engine.answer(query)
        snapshot = engine.registry.lookup(
            "sales", "price", SAMPLE
        ).to_dict()
        engine.registry.unregister("sales", "price", SAMPLE)
        engine.register_sample(
            "sales", "price", ConciseSample.from_dict(snapshot)
        )
        engine.answer(query)
        assert cache.stats["invalidations"] == 1

    def test_per_relation_isolation(self):
        cache = QueryResultCache(registry=MetricsRegistry())
        engine = build_engine(cache=cache)
        engine.warehouse.create_relation("returns", ["price"])
        engine.register_sample(
            "returns", "price", ConciseSample(64, seed=9)
        )
        engine.warehouse.load_batch(
            "returns", {"price": np.arange(50, dtype=np.int64) % 5}
        )
        sales_query = CountQuery("sales", "price")
        returns_query = CountQuery("returns", "price")
        engine.answer(sales_query)
        engine.answer(returns_query)
        # A load into `returns` must leave the `sales` entry warm.
        engine.warehouse.insert("returns", (1,))
        engine.answer(sales_query)
        engine.answer(returns_query)
        assert cache.stats["hits"] == 1
        assert cache.stats["invalidations"] == 1

    def test_join_query_covers_both_relations(self):
        cache = QueryResultCache(registry=MetricsRegistry())
        warehouse = DataWarehouse()
        warehouse.create_relation("left", ["key"])
        warehouse.create_relation("right", ["key"])
        engine = ApproximateAnswerEngine(warehouse, cache=cache)
        engine.register_hotlist(
            "left", "key", ConciseHotList(32, seed=1)
        )
        engine.register_hotlist(
            "right", "key", ConciseHotList(32, seed=2)
        )
        warehouse.load_batch(
            "left", {"key": np.arange(100, dtype=np.int64) % 7}
        )
        warehouse.load_batch(
            "right", {"key": np.arange(100, dtype=np.int64) % 5}
        )
        query = JoinSizeQuery("left", "key", "right", "key")
        engine.answer(query)
        engine.answer(query)
        assert cache.stats["hits"] == 1
        warehouse.insert("right", (1,))
        engine.answer(query)
        assert cache.stats["invalidations"] == 1

    def test_exact_path_bypasses_cache(self):
        cache = QueryResultCache(registry=MetricsRegistry())
        engine = build_engine(cache=cache)
        query = CountQuery("sales", "price")
        first = engine.answer(query, exact=True)
        second = engine.answer(query, exact=True)
        assert first is not second
        assert second.disk_accesses > 0  # every exact call scans
        assert cache.stats["hits"] == cache.stats["misses"] == 0

    def test_cached_engine_matches_uncached(self):
        cached = build_engine(
            cache=QueryResultCache(registry=MetricsRegistry()), seed=21
        )
        plain = build_engine(cache=None, seed=21)
        queries = [
            CountQuery("sales", "price"),
            FrequencyQuery("sales", "price", value=3),
            HotListQuery("sales", "price", k=5),
        ]
        engines = (cached, plain)
        for _ in range(2):  # repeat round: cached side serves hits
            for query in queries:
                responses = [engine.answer(query) for engine in engines]
                assert responses[0] == responses[1]
            for engine in engines:
                engine.warehouse.insert("sales", (13,))
                engine.warehouse.load_batch(
                    "sales",
                    {"price": np.asarray([1, 2, 2, 13], np.int64)},
                )
        for query in queries:
            assert cached.answer(query) == plain.answer(query)

    def test_tracer_records_cache_outcome(self):
        tracer = Tracer(MetricsRegistry(), clock=FakeClock())
        cache = QueryResultCache(registry=MetricsRegistry())
        engine = build_engine(cache=cache, tracer=tracer)
        query = CountQuery("sales", "price")
        engine.answer(query)
        engine.answer(query)
        engine.answer(query, exact=True)
        outcomes = [span.fields["cache"] for span in tracer.spans()]
        assert outcomes == ["miss", "hit", None]
        assert tracer.spans()[0].to_dict()["cache"] == "miss"

    def test_no_cache_leaves_span_cache_unset(self):
        tracer = Tracer(MetricsRegistry(), clock=FakeClock())
        engine = build_engine(cache=None, tracer=tracer)
        engine.answer(CountQuery("sales", "price"))
        assert tracer.spans()[0].fields["cache"] is None


class TestLookupStatus:
    """``lookup`` reports how it resolved, for the cache_lookup span."""

    def test_statuses(self):
        cache = QueryResultCache(4, registry=MetricsRegistry())
        key = CountQuery("sales", "price")
        token = (("sales", (1, 0)),)
        assert cache.lookup(key, token) == (None, "miss")
        cache.put(key, token, "answer")
        assert cache.lookup(key, token) == ("answer", "hit")
        stale = (("sales", (2, 0)),)
        assert cache.lookup(key, stale) == (None, "invalidated")
        # The invalidated entry is gone: back to a plain miss.
        assert cache.lookup(key, stale) == (None, "miss")

    def test_lookup_and_get_count_identically(self):
        looked = QueryResultCache(4, registry=MetricsRegistry())
        gotten = QueryResultCache(4, registry=MetricsRegistry())
        key = CountQuery("sales", "price")
        token = (("sales", (1, 0)),)
        stale = (("sales", (2, 0)),)
        for cache, probe in ((looked, looked.lookup), (gotten, gotten.get)):
            probe(key, token)
            cache.put(key, token, "answer")
            probe(key, token)
            probe(key, stale)
        assert looked.stats == gotten.stats
