"""Unit tests for the universal hash families."""

from __future__ import annotations

import numpy as np
import pytest

from repro.randkit import numpy_generator
from repro.synopses.hashing import PairwiseHash, bit_hash_position


class TestPairwiseHash:
    def test_range(self):
        h = PairwiseHash(buckets=16, seed=1)
        assert all(0 <= h(x) < 16 for x in range(1000))

    def test_deterministic_per_seed(self):
        a = PairwiseHash(16, seed=2)
        b = PairwiseHash(16, seed=2)
        assert [a(x) for x in range(50)] == [b(x) for x in range(50)]

    def test_different_seeds_differ(self):
        a = PairwiseHash(1 << 20, seed=3)
        b = PairwiseHash(1 << 20, seed=4)
        assert [a(x) for x in range(20)] != [b(x) for x in range(20)]

    def test_roughly_uniform(self):
        h = PairwiseHash(10, seed=5)
        counts = np.bincount([h(x) for x in range(100_000)], minlength=10)
        assert counts.min() > 8_000
        assert counts.max() < 12_000

    def test_rejects_zero_buckets(self):
        with pytest.raises(ValueError):
            PairwiseHash(0, seed=1)

    def test_raw_full_range(self):
        h = PairwiseHash(4, seed=6)
        raw_values = {h.raw(x) for x in range(100)}
        assert len(raw_values) == 100  # injective on small inputs whp


class TestBitHashPosition:
    def test_zero_maps_to_top(self):
        assert bit_hash_position(0, max_bits=32) == 31

    def test_positions(self):
        assert bit_hash_position(0b1) == 0
        assert bit_hash_position(0b10) == 1
        assert bit_hash_position(0b1011000) == 3

    def test_capped_at_max_bits(self):
        assert bit_hash_position(1 << 40, max_bits=8) == 7

    def test_geometric_distribution(self):
        """Uniform hashes land on bit j with probability 2^-(j+1)."""
        rng = numpy_generator(11)
        hashes = rng.integers(1, 1 << 61, size=200_000)
        positions = [bit_hash_position(int(h)) for h in hashes]
        fraction_zero = np.mean([p == 0 for p in positions])
        fraction_one = np.mean([p == 1 for p in positions])
        assert fraction_zero == pytest.approx(0.5, abs=0.01)
        assert fraction_one == pytest.approx(0.25, abs=0.01)
