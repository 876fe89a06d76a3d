"""Statistical equivalence of the vectorized and per-element paths.

The batch paths draw their randomness in array form, so they cannot
reproduce the per-element paths bitwise; Theorem 2 (concise) and
Theorem 5 (counting) say they produce samples with the *same law*.
These tests compare the two paths (and the k-shard merge against a
single-stream build) over many independent seeds with KS / chi-square
tests at a fixed, very small alpha, using pinned seeds throughout so
they are deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.core import (
    ConciseSample,
    CountingSample,
    merge_concise,
    merge_counting,
)
from repro.randkit.rng import spawn_seeds
from repro.streams import zipf_stream

# With pinned seeds the tests are deterministic; alpha only needs to
# be small enough that a correct implementation's fixed draw is very
# unlikely to sit in the rejection region.
ALPHA = 1e-4
TRIALS = 60
STREAM = zipf_stream(20_000, 1000, 1.25, seed=424242)
HOT_VALUE = int(np.bincount(STREAM).argmax())
BOUND = 100


def _concise_trials(bound: int, bulk: bool, base_seed: int):
    sizes, hot_counts = [], []
    for trial in range(TRIALS):
        sample = ConciseSample(bound, seed=base_seed + trial)
        if bulk:
            sample.insert_array(STREAM)
        else:
            sample.insert_many(STREAM.tolist())
        sample.check_invariants()
        sizes.append(sample.sample_size)
        hot_counts.append(sample.count_of(HOT_VALUE))
    return np.asarray(sizes), np.asarray(hot_counts)


def _counting_trials(bound: int, bulk: bool, base_seed: int):
    totals, hot_counts = [], []
    for trial in range(TRIALS):
        sample = CountingSample(bound, seed=base_seed + trial)
        if bulk:
            sample.insert_array(STREAM)
        else:
            sample.insert_many(STREAM.tolist())
        sample.check_invariants()
        totals.append(sample.total_count)
        hot_counts.append(sample.count_of(HOT_VALUE))
    return np.asarray(totals), np.asarray(hot_counts)


def _partitioned_shards(kind, shards: int, seed: int):
    """``shards`` samples fed contiguous splits of the stream, plus a
    merge seed; every seed is spawned from ``seed``."""
    seeds = spawn_seeds(seed, shards + 1)
    built = [kind(BOUND, seed=s) for s in seeds[:shards]]
    pieces = np.array_split(STREAM, shards)
    for shard, piece in zip(built, pieces, strict=True):
        shard.insert_array(piece)
    return built, seeds[shards]


class TestConciseBatchMatchesPerElement:
    def test_sample_size_distribution(self):
        bulk_sizes, bulk_hot = _concise_trials(BOUND, True, 1000)
        scalar_sizes, scalar_hot = _concise_trials(BOUND, False, 5000)
        assert stats.ks_2samp(bulk_sizes, scalar_sizes).pvalue > ALPHA
        assert stats.ks_2samp(bulk_hot, scalar_hot).pvalue > ALPHA

    def test_relation_size_identical(self):
        bulk = ConciseSample(BOUND, seed=3)
        bulk.insert_array(STREAM)
        scalar = ConciseSample(BOUND, seed=3)
        scalar.insert_many(STREAM.tolist())
        assert bulk.total_inserted == scalar.total_inserted == len(STREAM)


class TestCountingBatchMatchesPerElement:
    def test_total_count_distribution(self):
        bulk_totals, bulk_hot = _counting_trials(BOUND, True, 2000)
        scalar_totals, scalar_hot = _counting_trials(BOUND, False, 6000)
        assert stats.ks_2samp(bulk_totals, scalar_totals).pvalue > ALPHA
        # Hot values are admitted almost immediately on every path, so
        # their exact tail counts concentrate tightly; compare them
        # directly rather than through a rank test.
        assert abs(bulk_hot.mean() - scalar_hot.mean()) < 0.02 * max(
            1.0, scalar_hot.mean()
        )

    def test_admission_indicator_rates(self):
        """Chi-square: a mid-frequency value is present in the sample
        equally often under both paths."""
        value = int(
            np.argsort(np.bincount(STREAM))[-20]
        )  # 20th-hottest value
        present = np.zeros((2, 2), dtype=np.int64)
        for column, bulk in enumerate((False, True)):
            for trial in range(TRIALS):
                sample = CountingSample(BOUND, seed=9000 + trial)
                if bulk:
                    sample.insert_array(STREAM)
                else:
                    sample.insert_many(STREAM.tolist())
                present[column, int(value in sample)] += 1
        result = stats.chi2_contingency(present + 1)  # smoothed
        assert result.pvalue > ALPHA


class TestShardedMergeMatchesSingleStream:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_concise_merge_distribution(self, shards):
        merged_sizes, merged_hot = [], []
        for trial in range(TRIALS):
            parts, merge_seed = _partitioned_shards(
                ConciseSample, shards, 7000 + trial
            )
            merged = merge_concise(parts, seed=merge_seed)
            merged.check_invariants()
            assert merged.threshold >= max(
                shard.threshold for shard in parts
            )
            assert merged.total_inserted == len(STREAM)
            merged_sizes.append(merged.sample_size)
            merged_hot.append(merged.count_of(HOT_VALUE))
        single_sizes, single_hot = _concise_trials(BOUND, True, 8000)
        assert (
            stats.ks_2samp(merged_sizes, single_sizes).pvalue > ALPHA
        )
        assert stats.ks_2samp(merged_hot, single_hot).pvalue > ALPHA

    def test_counting_merge_counts_plausible(self):
        parts, merge_seed = _partitioned_shards(CountingSample, 3, 77)
        merged = merge_counting(parts, seed=merge_seed)
        merged.check_invariants()
        assert merged.threshold >= max(shard.threshold for shard in parts)
        true_hot = int(np.count_nonzero(STREAM == HOT_VALUE))
        # Hot values are counted exactly up to per-shard admission
        # delay (see repro.core.merge's caveat).
        assert merged.count_of(HOT_VALUE) > 0.9 * true_hot
        assert merged.total_inserted == len(STREAM)

    def test_merge_concise_respects_footprint_bound(self):
        shards = []
        for index in range(4):
            shard = ConciseSample(BOUND, seed=90 + index)
            shard.insert_array(STREAM)
            shards.append(shard)
        merged = merge_concise(shards, seed=99)
        merged.check_invariants()
        assert merged.footprint <= BOUND
        assert merged.threshold >= max(s.threshold for s in shards)
        assert merged.total_inserted == 4 * len(STREAM)
