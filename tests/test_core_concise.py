"""Unit tests for concise samples and their incremental maintenance."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.randkit import numpy_generator
from repro.core.base import SynopsisError
from repro.core.concise import ConciseSample
from repro.core.thresholds import MultiplicativeRaise
from repro.streams import zipf_stream


class TestConstruction:
    def test_rejects_tiny_footprint(self):
        with pytest.raises(SynopsisError):
            ConciseSample(1)

    def test_initial_state(self):
        sample = ConciseSample(10, seed=1)
        assert sample.footprint == 0
        assert sample.sample_size == 0
        assert sample.threshold == 1.0
        assert len(sample) == 0

    def test_from_state(self):
        sample = ConciseSample.from_state(
            {5: 3, 9: 1}, threshold=2.0, footprint_bound=10,
            total_inserted=8,
        )
        assert sample.sample_size == 4
        assert sample.footprint == 3  # one pair + one singleton
        assert sample.threshold == 2.0
        assert sample.total_inserted == 8
        sample.check_invariants()

    def test_from_state_rejects_overflow(self):
        with pytest.raises(SynopsisError):
            ConciseSample.from_state({1: 2, 2: 2}, 1.0, footprint_bound=3)

    def test_from_state_rejects_bad_counts(self):
        with pytest.raises(SynopsisError):
            ConciseSample.from_state({1: 0}, 1.0, footprint_bound=4)

    def test_from_state_rejects_bad_threshold(self):
        with pytest.raises(SynopsisError):
            ConciseSample.from_state({1: 1}, 0.5, footprint_bound=4)


class TestSlotInvariants:
    """check_invariants catches a slot map that disagrees with the arrays."""

    @staticmethod
    def _sample():
        sample = ConciseSample(64, seed=1)
        sample.insert_array(np.asarray([4, 4, 8, 15, 16, 16, 23], np.int64))
        sample.check_invariants()
        return sample

    def test_slot_points_at_other_value(self):
        sample = self._sample()
        sample._slot[4], sample._slot[8] = sample._slot[8], sample._slot[4]
        with pytest.raises(SynopsisError, match="slot map"):
            sample.check_invariants()

    def test_map_size_differs_from_live_length(self):
        sample = self._sample()
        del sample._slot[15]
        with pytest.raises(SynopsisError, match="slot map"):
            sample.check_invariants()

    def test_repeated_value(self):
        sample = self._sample()
        sample._values[sample._slot[8]] = 4
        with pytest.raises(SynopsisError, match="more than one slot"):
            sample.check_invariants()

    def test_zero_live_count(self):
        sample = self._sample()
        sample._counts[sample._slot[23]] = 0
        with pytest.raises(SynopsisError, match="non-positive"):
            sample.check_invariants()

    def test_slots_follow_first_admission_order(self):
        sample = ConciseSample(64, seed=1)
        for value in [9, 2, 9, 5]:
            sample.insert(value)
        sample.insert_array(np.asarray([7, 2, 1], np.int64))
        values, counts = sample.columnar_view()
        assert values.tolist() == [9, 2, 5, 1, 7]
        assert counts.tolist() == [2, 2, 1, 1, 1]


class TestRepresentation:
    def test_startup_keeps_everything(self):
        """At threshold 1 every insert enters the sample."""
        sample = ConciseSample(100, seed=2)
        for value in [3, 3, 3, 7, 9]:
            assert sample.insert(value) is True
        assert sample.count_of(3) == 3
        assert sample.count_of(7) == 1
        assert sample.sample_size == 5
        assert sample.footprint == 4  # pair (3,3) + two singletons

    def test_footprint_accounting_pairs_vs_singletons(self):
        sample = ConciseSample(100, seed=3)
        sample.insert(1)
        assert sample.footprint == 1
        sample.insert(1)  # singleton -> pair
        assert sample.footprint == 2
        sample.insert(1)  # pair count grows, no footprint change
        assert sample.footprint == 2
        sample.insert(2)
        assert sample.footprint == 3
        sample.check_invariants()

    def test_contains(self):
        sample = ConciseSample(10, seed=4)
        sample.insert(5)
        assert 5 in sample
        assert 6 not in sample

    def test_pairs_and_dict(self):
        sample = ConciseSample(10, seed=5)
        sample.insert_many([1, 1, 2])
        assert dict(sample.pairs()) == {1: 2, 2: 1}
        assert sample.as_dict() == {1: 2, 2: 1}

    def test_sample_points_expansion(self):
        sample = ConciseSample(10, seed=6)
        sample.insert_many([4, 4, 8])
        points = sample.sample_points()
        assert Counter(points.tolist()) == {4: 2, 8: 1}

    def test_sample_points_empty(self):
        assert len(ConciseSample(10, seed=7).sample_points()) == 0

    def test_count_histogram(self):
        sample = ConciseSample(20, seed=8)
        sample.insert_many([1, 1, 1, 2, 2, 3])
        assert sample.count_histogram() == {3: 1, 2: 1, 1: 1}

    def test_repr_mentions_key_stats(self):
        sample = ConciseSample(10, seed=9)
        text = repr(sample)
        assert "footprint" in text and "threshold" in text


class TestFootprintBound:
    @pytest.mark.parametrize("bound", [2, 10, 100])
    def test_bound_always_respected(self, bound):
        sample = ConciseSample(bound, seed=10)
        stream = zipf_stream(20_000, 1000, 0.5, seed=11)
        for value in stream.tolist():
            sample.insert(value)
            assert sample.footprint <= bound
        sample.check_invariants()

    def test_bound_respected_on_array_path(self):
        sample = ConciseSample(50, seed=12)
        sample.insert_array(zipf_stream(50_000, 2000, 1.0, seed=13))
        assert sample.footprint <= 50
        sample.check_invariants()

    def test_threshold_monotonically_nondecreasing(self):
        sample = ConciseSample(20, seed=14)
        thresholds = []
        for value in zipf_stream(5000, 500, 0.0, seed=15).tolist():
            sample.insert(value)
            thresholds.append(sample.threshold)
        assert thresholds == sorted(thresholds)

    def test_all_values_fit_no_raises(self):
        """If the domain is at most m/2, the concise sample is the
        exact histogram and the threshold never rises (paper: D/m <=
        0.5 keeps everything)."""
        sample = ConciseSample(100, seed=16)
        stream = zipf_stream(30_000, 50, 1.0, seed=17)
        sample.insert_array(stream)
        assert sample.threshold == 1.0
        assert sample.counters.threshold_raises == 0
        assert sample.sample_size == 30_000
        truth = Counter(stream.tolist())
        assert sample.as_dict() == dict(truth)


class TestMaintenanceStatistics:
    def test_sample_size_tracks_inverse_threshold(self):
        """E[sample-size] = inserts / threshold (paper Section 3.3)."""
        sample = ConciseSample(200, seed=18)
        sample.insert_array(zipf_stream(100_000, 10_000, 0.0, seed=19))
        expected = sample.total_inserted / sample.threshold
        assert sample.sample_size == pytest.approx(expected, rel=0.35)

    def test_uniformity_every_position_equally_likely(self):
        """Theorem 2: the maintained sample is uniform -- every stream
        position is a sample point equally often across trials."""
        n, bound, trials = 80, 16, 3000
        stream = np.arange(n)  # all distinct: counts are inclusion flags
        appearance = Counter()
        total_points = 0
        for trial in range(trials):
            sample = ConciseSample(bound, seed=30_000 + trial)
            for value in stream.tolist():
                sample.insert(value)
            appearance.update(sample.as_dict())
            total_points += sample.sample_size
        expected = total_points / n
        for element in range(n):
            assert appearance[element] == pytest.approx(
                expected, rel=0.3
            ), f"position {element} biased"

    def test_value_frequencies_proportional(self):
        """Sampled counts must be proportional to true frequencies."""
        stream = np.concatenate(
            [np.full(30_000, 1), np.full(10_000, 2), np.full(10_000, 3)]
        )
        rng = numpy_generator(5)
        rng.shuffle(stream)
        totals: Counter[int] = Counter()
        for trial in range(30):
            sample = ConciseSample(40, seed=40_000 + trial)
            sample.insert_array(stream)
            totals.update(sample.as_dict())
        assert totals[1] / totals[2] == pytest.approx(3.0, rel=0.25)
        assert totals[2] / totals[3] == pytest.approx(1.0, rel=0.25)

    def test_estimate_frequency_unbiased(self):
        stream = np.concatenate([np.full(8000, 7), np.full(2000, 9)])
        numpy_generator(6).shuffle(stream)
        estimates = []
        for trial in range(40):
            sample = ConciseSample(30, seed=50_000 + trial)
            sample.insert_array(stream)
            estimates.append(sample.estimate_frequency(7))
        assert float(np.mean(estimates)) == pytest.approx(8000, rel=0.15)


class TestArrayVsPerOpEquivalence:
    """The vectorized bulk path draws its randomness in array form, so
    it is *distributionally* (not bitwise) equivalent to the per-op
    path -- see tests/test_batch_equivalence.py for the statistical
    comparison.  Below the threshold (no randomness consumed) the two
    paths must agree exactly."""

    def test_exact_regime_matches_per_op(self):
        """While the threshold stays 1 every insert is admitted, so
        bulk and per-op ingestion are deterministic and identical."""
        stream = zipf_stream(30_000, 200, 1.2, seed=20)
        per_op = ConciseSample(1000, seed=21)
        for value in stream.tolist():
            per_op.insert(value)
        bulk = ConciseSample(1000, seed=21)
        bulk.insert_array(stream)
        assert per_op.threshold == 1.0
        assert bulk.threshold == 1.0
        assert per_op.as_dict() == bulk.as_dict()
        assert per_op.total_inserted == bulk.total_inserted

    def test_chunked_array_ingestion_equivalent(self):
        stream = zipf_stream(20_000, 300, 1.0, seed=22)
        whole = ConciseSample(1000, seed=23)
        whole.insert_array(stream)
        chunked = ConciseSample(1000, seed=23)
        for start in range(0, len(stream), 997):
            chunked.insert_array(stream[start : start + 997])
        assert whole.threshold == 1.0
        assert whole.as_dict() == chunked.as_dict()

    def test_bulk_path_keeps_invariants_under_eviction(self):
        stream = zipf_stream(30_000, 1000, 1.2, seed=20)
        bulk = ConciseSample(100, seed=21)
        bulk.insert_array(stream)
        bulk.check_invariants()
        assert bulk.threshold > 1.0
        assert bulk.total_inserted == len(stream)
        truth = Counter(stream.tolist())
        for value, count in bulk.pairs():
            assert count <= truth[value]


class TestCostModel:
    def test_no_flips_while_threshold_one(self):
        sample = ConciseSample(1000, seed=24)
        sample.insert_many(range(400))  # footprint 400 < 1000
        assert sample.counters.flips == 0
        assert sample.counters.lookups == 400

    def test_amortised_flips_bounded(self):
        """Flips per insert stay far below 1 on a uniform stream."""
        sample = ConciseSample(100, seed=25)
        sample.insert_array(zipf_stream(200_000, 10_000, 0.0, seed=26))
        assert sample.counters.flips_per_insert() < 0.05
        assert sample.counters.lookups_per_insert() < 0.05

    def test_lookups_only_for_admitted(self):
        sample = ConciseSample(50, seed=27)
        sample.insert_array(zipf_stream(50_000, 5000, 0.0, seed=28))
        # Every lookup corresponds to an admitted insert.
        assert sample.counters.lookups < sample.counters.inserts * 0.1


class TestThresholdPolicyIntegration:
    def test_custom_policy_used(self):
        aggressive = ConciseSample(
            20, seed=29, policy=MultiplicativeRaise(4.0)
        )
        gentle = ConciseSample(
            20, seed=29, policy=MultiplicativeRaise(1.05)
        )
        stream = zipf_stream(20_000, 2000, 0.0, seed=30)
        aggressive.insert_array(stream)
        gentle.insert_array(stream)
        assert (
            aggressive.counters.threshold_raises
            < gentle.counters.threshold_raises
        )

    def test_broken_policy_raises(self):
        class Stuck:
            def next_threshold(self, sample):
                return sample.threshold  # never raises

        sample = ConciseSample(4, seed=31, policy=Stuck())
        with pytest.raises(SynopsisError):
            sample.insert_many(range(100))
