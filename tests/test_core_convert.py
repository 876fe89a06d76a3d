"""Unit tests for counting-to-concise conversion (paper Section 4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.concise import ConciseSample
from repro.core.convert import counting_to_concise
from repro.core.counting import CountingSample
from repro.streams import zipf_stream


def _build_counting(seed: int, footprint: int = 64) -> CountingSample:
    sample = CountingSample(footprint, seed=seed)
    sample.insert_array(zipf_stream(30_000, 2000, 1.2, seed=seed + 1))
    return sample


class TestConversion:
    def test_returns_concise_sample(self):
        counting = _build_counting(1)
        concise = counting_to_concise(counting, seed=2)
        assert isinstance(concise, ConciseSample)
        concise.check_invariants()

    def test_source_untouched(self):
        counting = _build_counting(3)
        before = counting.as_dict()
        counting_to_concise(counting, seed=4)
        assert counting.as_dict() == before

    def test_values_subset_and_counts_bounded(self):
        counting = _build_counting(5)
        concise = counting_to_concise(counting, seed=6)
        source = counting.as_dict()
        for value, count in concise.pairs():
            assert value in source
            assert 1 <= count <= source[value]

    def test_every_source_value_survives_with_count_at_least_one(self):
        """The admission point itself is always kept."""
        counting = _build_counting(7)
        concise = counting_to_concise(counting, seed=8)
        assert set(concise.as_dict()) == set(counting.as_dict())

    def test_footprint_never_grows(self):
        for trial in range(10):
            counting = _build_counting(100 + trial)
            concise = counting_to_concise(counting, seed=200 + trial)
            assert concise.footprint <= counting.footprint

    def test_threshold_and_size_carried_over(self):
        counting = _build_counting(9)
        concise = counting_to_concise(counting, seed=10)
        assert concise.threshold == counting.threshold
        assert concise.total_inserted == counting.total_inserted

    def test_threshold_one_is_identity(self):
        counting = CountingSample(1000, seed=11)
        counting.insert_array(zipf_stream(5000, 100, 1.0, seed=12))
        assert counting.threshold == 1.0
        concise = counting_to_concise(counting, seed=13)
        assert concise.as_dict() == counting.as_dict()

    def test_deterministic(self):
        counting = _build_counting(14)
        a = counting_to_concise(counting, seed=15)
        b = counting_to_concise(counting, seed=15)
        assert a.as_dict() == b.as_dict()

    def test_resampled_counts_match_binomial_mean(self):
        """E[concise count] = 1 + (c - 1)/tau for a pair of count c."""
        state = CountingSample(10, seed=16).to_dict()
        state.update(threshold=10.0, counts=[[1, 500]])
        counting = CountingSample.from_dict(state, seed=16)
        draws = [
            counting_to_concise(counting, seed=1000 + trial).count_of(1)
            for trial in range(300)
        ]
        expected = 1 + (500 - 1) / 10.0
        assert float(np.mean(draws)) == pytest.approx(expected, rel=0.1)
