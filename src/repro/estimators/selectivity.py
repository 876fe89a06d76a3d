"""Predicate selectivity estimation.

Selectivity -- the fraction of rows matching a predicate -- drives the
query-optimizer use case the paper mentions ("techniques for fast
approximate answers can also be used ... within the query optimizer to
estimate plan costs").  Estimation works from a uniform sample or from a
histogram synopsis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.estimators.aggregates import estimate_count
from repro.estimators.intervals import ConfidenceInterval

__all__ = ["Predicate", "SelectivityEstimate", "estimate_selectivity"]


@dataclass(frozen=True)
class Predicate:
    """A simple single-attribute predicate: equality or closed range.

    Exactly one form is used: set ``equals`` for ``attr = v``, or
    ``low``/``high`` (either may be ``None`` for open ends) for range
    predicates.
    """

    equals: int | None = None
    low: float | None = None
    high: float | None = None

    def __post_init__(self) -> None:
        if self.equals is not None and (
            self.low is not None or self.high is not None
        ):
            raise ValueError("predicate is either equality or range")
        if (
            self.equals is None
            and self.low is None
            and self.high is None
        ):
            raise ValueError("empty predicate")
        if (
            self.low is not None
            and self.high is not None
            and self.high < self.low
        ):
            raise ValueError("range upper bound below lower bound")

    def mask(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of matching points."""
        if self.equals is not None:
            return points == self.equals
        mask = np.ones(len(points), dtype=bool)
        if self.low is not None:
            mask &= points >= self.low
        if self.high is not None:
            mask &= points <= self.high
        return mask

    def __str__(self) -> str:
        if self.equals is not None:
            return f"= {self.equals}"
        low = "-inf" if self.low is None else str(self.low)
        high = "+inf" if self.high is None else str(self.high)
        return f"in [{low}, {high}]"


@dataclass(frozen=True)
class SelectivityEstimate:
    """A selectivity estimate in ``[0, 1]`` with its interval."""

    selectivity: float
    interval: ConfidenceInterval
    sample_size: int


def estimate_selectivity(
    values: np.ndarray,
    predicate: Predicate,
    confidence: float = 0.95,
    *,
    counts: np.ndarray | None = None,
) -> SelectivityEstimate:
    """Estimate a predicate's selectivity from a uniform sample.

    The sample is given as in :func:`~repro.estimators.aggregates.estimate_count`
    (points, or ``(value, count)`` pairs with ``counts``).  Selectivity
    is the matching count of a population of one, so it shares that
    estimator's interval: CLT, or Wilson when no point or every point
    matches, where the CLT interval would collapse to zero width.
    """
    count = estimate_count(
        values, 1, predicate.mask, confidence, counts=counts
    )
    interval = count.interval
    clipped = ConfidenceInterval(
        max(0.0, interval.low), min(1.0, interval.high), confidence
    )
    return SelectivityEstimate(count.value, clipped, count.sample_size)
