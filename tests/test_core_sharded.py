"""Shard-merge edge cases: a single shard and empty shards.

Merging one shard at its own bound raises nobody's threshold, so every
point survives the Theorem-2/5 subsample and the merged sample holds
exactly the unsharded sample's (value, count) pairs.  Empty shards
(never fed, or emptied by deletes that raised the threshold) must merge
without error and contribute nothing but their threshold.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ConciseSample,
    CountingSample,
    merge_concise,
    merge_counting,
)
from repro.streams import zipf_stream

STREAM = zipf_stream(20_000, 500, 1.25, seed=99)
BOUND = 100
KINDS = {
    "concise": (ConciseSample, merge_concise),
    "counting": (CountingSample, merge_counting),
}


def same_sample(merged, single) -> None:
    assert merged.as_dict() == single.as_dict()
    assert merged.threshold == single.threshold
    assert merged.total_inserted == single.total_inserted
    assert merged.footprint == single.footprint


class TestDegenerateSingleShard:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_k1_byte_identical_to_unsharded(self, kind):
        sample_type, merge = KINDS[kind]
        single = sample_type(BOUND, seed=1234)
        single.insert_array(STREAM)
        merged = merge([single], seed=1235)
        merged.check_invariants()
        same_sample(merged, single)

    def test_k1_identity_survives_continued_ingest(self):
        single = ConciseSample(BOUND, seed=7)
        for start in range(0, len(STREAM), 4096):
            single.insert_array(STREAM[start : start + 4096])
            # The merge reads the shard's current state, so it tracks
            # every batch, threshold raises included.
            same_sample(merge_concise([single], seed=start), single)

    def test_k1_custom_bound_still_merges(self):
        # A merge bound below the shard's must actually shrink.
        shard = ConciseSample(BOUND, seed=5)
        shard.insert_array(STREAM)
        merged = merge_concise([shard], seed=6, footprint_bound=BOUND // 2)
        assert merged.footprint <= BOUND // 2
        assert merged.threshold > shard.threshold
        merged.check_invariants()


class TestEmptyShards:
    def test_merge_with_one_empty_shard(self):
        shards = [ConciseSample(BOUND, seed=11 + i) for i in range(3)]
        # Feed shards 0 and 1; shard 2 stays empty.
        shards[0].insert_array(STREAM[:5000])
        shards[1].insert_array(STREAM[5000:10000])
        merged = merge_concise(shards, seed=14)
        merged.check_invariants()
        assert merged.total_inserted == 10_000

    def test_merge_all_empty_shards(self):
        for sample_type, merge in KINDS.values():
            shards = [sample_type(BOUND, seed=13 + i) for i in range(4)]
            merged = merge(shards, seed=17)
            merged.check_invariants()
            assert merged.total_inserted == 0
            assert merged.footprint == 0

    def test_empty_batch_is_a_noop(self):
        shards = [ConciseSample(BOUND, seed=17 + i) for i in range(2)]
        for shard, piece in zip(
            shards, np.array_split(STREAM, 2), strict=True
        ):
            shard.insert_array(piece)
        before = merge_concise(shards, seed=19).to_dict()
        for shard in shards:
            shard.insert_array(np.array([], dtype=np.int64))
        assert merge_concise(shards, seed=19).to_dict() == before

    def test_fewer_values_than_shards(self):
        shards = [CountingSample(BOUND, seed=19 + i) for i in range(8)]
        values = np.array([1, 2, 3], dtype=np.int64)
        for shard, piece in zip(
            shards, np.array_split(values, 8), strict=True
        ):
            shard.insert_array(piece)
        merged = merge_counting(shards, seed=27)
        merged.check_invariants()
        assert merged.total_inserted == 3
        assert merged.as_dict() == {1: 1, 2: 1, 3: 1}

    def test_delete_emptied_shard_with_raised_threshold(self):
        # A counting shard emptied by deletions can carry a raised
        # threshold; the merge must honour it (the merged threshold is
        # the max) without trying to subsample the empty sample.
        emptied = CountingSample(8, seed=23)
        values = zipf_stream(4_000, 50, 1.3, seed=29)
        emptied.insert_array(values)
        for value in values.tolist():
            emptied.delete(value)
        assert emptied.footprint == 0
        full = CountingSample(8, seed=31)
        full.insert_array(zipf_stream(4_000, 50, 1.3, seed=37))
        merged = merge_counting([emptied, full], seed=41)
        merged.check_invariants()
        assert merged.threshold >= max(emptied.threshold, full.threshold)
        # total_inserted is net of deletes: 4000 survive.
        assert merged.total_inserted == 4_000

    def test_concise_merge_empty_with_full(self):
        empty = ConciseSample(BOUND, seed=43)
        full = ConciseSample(BOUND, seed=47)
        full.insert_array(STREAM)
        merged = merge_concise([empty, full], seed=53)
        merged.check_invariants()
        assert merged.total_inserted == len(STREAM)
