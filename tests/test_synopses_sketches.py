"""Unit tests for the Flajolet-Martin distinct-count sketch."""

from __future__ import annotations

import pytest

from repro.core.base import SynopsisError
from repro.synopses.fm import FlajoletMartinSketch


class TestFlajoletMartin:
    def test_estimate_scales_with_distinct(self):
        sketch_small = FlajoletMartinSketch(64, seed=1)
        sketch_large = FlajoletMartinSketch(64, seed=1)
        for value in range(100):
            sketch_small.insert(value)
        for value in range(10_000):
            sketch_large.insert(value)
        assert sketch_large.estimate() > 5 * sketch_small.estimate()

    def test_duplicates_do_not_move_estimate(self):
        a = FlajoletMartinSketch(32, seed=2)
        b = FlajoletMartinSketch(32, seed=2)
        for value in range(500):
            a.insert(value)
            b.insert(value)
            b.insert(value)  # duplicate everything
            b.insert(value)
        assert a.estimate() == b.estimate()

    def test_accuracy_within_expected_error(self):
        distinct = 5000
        sketch = FlajoletMartinSketch(256, seed=3)
        for value in range(distinct):
            sketch.insert(value)
        assert sketch.estimate() == pytest.approx(distinct, rel=0.25)

    def test_merge_is_union(self):
        a = FlajoletMartinSketch(64, seed=4)
        b = FlajoletMartinSketch(64, seed=4)
        union = FlajoletMartinSketch(64, seed=4)
        for value in range(1000):
            a.insert(value)
            union.insert(value)
        for value in range(1000, 2000):
            b.insert(value)
            union.insert(value)
        a.merge(b)
        assert a.estimate() == union.estimate()

    def test_merge_rejects_shape_mismatch(self):
        with pytest.raises(SynopsisError):
            FlajoletMartinSketch(64, seed=5).merge(
                FlajoletMartinSketch(32, seed=5)
            )

    def test_footprint(self):
        assert FlajoletMartinSketch(64, seed=6).footprint == 64

    def test_validation(self):
        with pytest.raises(SynopsisError):
            FlajoletMartinSketch(0)
        with pytest.raises(SynopsisError):
            FlajoletMartinSketch(8, bits_per_group=4)
