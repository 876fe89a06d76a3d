"""COUNT / SUM / AVG estimation from a uniform sample.

Each estimator takes the sample as ``values`` with optional ``counts``:
either the sample points themselves (``counts=None``, every point
weighing one), or the ``(value, count)`` pairs of a concise sample's
:meth:`~repro.core.concise.ConciseSample.columnar_view`, where value
``values[i]`` stands for ``counts[i]`` sample points.  Both forms give
the same estimate from the same sample, but the pair form costs
``O(m)`` in the footprint rather than ``O(m')`` in the sample size --
the paper's point that a concise sample answers from its footprint.

Each returns an estimate with a CLT confidence interval.  More sample
points mean ``1/sqrt(m')`` narrower intervals -- the concrete payoff
of concise samples for aggregation queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.estimators.intervals import (
    ConfidenceInterval,
    clt_interval,
    empirical_bernstein_interval,
    hoeffding_count_interval,
    wilson_interval,
)

__all__ = [
    "AggregateEstimate",
    "estimate_average",
    "estimate_count",
    "estimate_matching_count",
    "estimate_sum",
]


@dataclass(frozen=True)
class AggregateEstimate:
    """An aggregate estimate with its confidence interval."""

    value: float
    interval: ConfidenceInterval
    sample_size: int


def _weights(
    values: np.ndarray, counts: np.ndarray | None
) -> tuple[np.ndarray, int]:
    """Per-value point counts (one per value without ``counts``) and
    their total ``m'``; an empty sample raises."""
    if counts is None:
        weights = np.ones(len(values), dtype=np.int64)
    elif np.shape(counts) != np.shape(values):
        raise ValueError("counts must give one count per value")
    else:
        weights = np.asarray(counts)
    size = int(weights.sum())
    if size == 0:
        raise ValueError("cannot estimate from an empty sample")
    return weights, size


def _predicate_mask(
    values: np.ndarray, predicate: Callable[[np.ndarray], np.ndarray] | None
) -> np.ndarray:
    if predicate is None:
        return np.ones(len(values), dtype=bool)
    mask = np.asarray(predicate(values), dtype=bool)
    if mask.shape != values.shape:
        raise ValueError("predicate must return one boolean per point")
    return mask


def _moments(
    values: np.ndarray, weights: np.ndarray
) -> tuple[float, float, float]:
    """Mean, ``ddof=1`` variance and range of ``repeat(values, weights)``.

    Computed from the pairs, without expanding them.  ``weights`` must
    sum to at least one; values of weight zero are no points at all.
    """
    size = int(weights.sum())
    mean = float(weights @ values) / size
    variance = (
        float(weights @ np.square(values - mean)) / (size - 1)
        if size > 1
        else 0.0
    )
    present = values[weights > 0]
    return mean, variance, float(present.max() - present.min())


def estimate_matching_count(
    matching: int,
    sample_size: int,
    population: int,
    confidence: float = 0.95,
    *,
    conservative: bool = False,
) -> AggregateEstimate:
    """Scale ``matching`` of ``sample_size`` sample points to a count.

    The estimator is ``population * (matching fraction)``; the interval
    is the CLT interval of the Bernoulli proportion, except at the
    degenerate proportions 0 and 1 where the CLT interval collapses to
    zero width (the classic Wald failure) -- there the Wilson score
    interval is used so "no sample point matched" is reported with
    honest uncertainty rather than false certainty.

    With ``conservative=True`` the interval is the distribution-free
    Hoeffding bound instead: wider, but guaranteed at any finite
    sample size rather than asymptotically -- what calibration
    auditing checks against.
    """
    if sample_size == 0:
        raise ValueError("cannot estimate from an empty sample")
    if population < 0:
        raise ValueError("population must be non-negative")
    m = sample_size
    proportion = matching / m
    estimate = population * proportion
    if conservative:
        return AggregateEstimate(
            float(estimate),
            hoeffding_count_interval(matching, m, population, confidence),
            m,
        )
    if matching == 0 or matching == m:
        wilson = wilson_interval(matching, m, confidence)
        interval = ConfidenceInterval(
            wilson.low * population, wilson.high * population, confidence
        )
        return AggregateEstimate(float(estimate), interval, m)
    standard_error = (
        population * math.sqrt(max(proportion * (1 - proportion), 0.0) / m)
    )
    return AggregateEstimate(
        float(estimate),
        clt_interval(float(estimate), float(standard_error), confidence),
        m,
    )


def estimate_count(
    values: np.ndarray,
    population: int,
    predicate: Callable[[np.ndarray], np.ndarray] | None = None,
    confidence: float = 0.95,
    *,
    conservative: bool = False,
    counts: np.ndarray | None = None,
) -> AggregateEstimate:
    """Estimate how many of the ``population`` rows match the predicate.

    Counts the matching sample points and scales them with
    :func:`estimate_matching_count`.  A ``None`` predicate is
    COUNT(*): the engine knows the population exactly.
    """
    weights, m = _weights(values, counts)
    if population < 0:
        raise ValueError("population must be non-negative")
    if predicate is None:
        exact = ConfidenceInterval(
            float(population), float(population), confidence
        )
        return AggregateEstimate(float(population), exact, m)
    matching = int(weights[_predicate_mask(values, predicate)].sum())
    return estimate_matching_count(
        matching, m, population, confidence, conservative=conservative
    )


def estimate_sum(
    values: np.ndarray,
    population: int,
    predicate: Callable[[np.ndarray], np.ndarray] | None = None,
    confidence: float = 0.95,
    *,
    conservative: bool = False,
    counts: np.ndarray | None = None,
) -> AggregateEstimate:
    """Estimate the sum of the attribute over matching rows.

    The per-sample contribution is ``value * 1[predicate]``; scaling
    its mean by ``population`` gives an unbiased sum estimate.  The
    points that do not match contribute zeros, so they enter as one
    zero value carrying all of their count.

    With ``conservative=True`` the interval is the empirical Bernstein
    bound over the contributions (range taken from the observed sample
    extremes, including 0 when some point does not match):
    finite-sample valid rather than asymptotic.
    """
    weights, m = _weights(values, counts)
    if population < 0:
        raise ValueError("population must be non-negative")
    mask = _predicate_mask(values, predicate)
    matched = weights[mask]
    contributions = np.append(values[mask].astype(np.float64), 0.0)
    contribution_weights = np.append(matched, m - int(matched.sum()))
    mean, variance, value_range = _moments(
        contributions, contribution_weights
    )
    estimate = population * mean
    if conservative:
        bernstein = empirical_bernstein_interval(
            mean, variance, value_range, m, confidence
        )
        interval = ConfidenceInterval(
            bernstein.low * population,
            bernstein.high * population,
            confidence,
        )
        return AggregateEstimate(float(estimate), interval, m)
    standard_error = population * math.sqrt(variance) / math.sqrt(m)
    return AggregateEstimate(
        float(estimate),
        clt_interval(float(estimate), float(standard_error), confidence),
        m,
    )


def estimate_average(
    values: np.ndarray,
    predicate: Callable[[np.ndarray], np.ndarray] | None = None,
    confidence: float = 0.95,
    *,
    conservative: bool = False,
    counts: np.ndarray | None = None,
) -> AggregateEstimate:
    """Estimate the average attribute value over matching rows.

    Uses only the matching sample points; raises :class:`ValueError`
    when none match (the sample carries no information about the
    average then -- the caller should fall back to the exact path).

    With ``conservative=True`` the interval is the empirical Bernstein
    bound over the matching points: finite-sample valid rather than
    asymptotic.
    """
    weights, _ = _weights(values, counts)
    mask = _predicate_mask(values, predicate)
    matched = weights[mask]
    m = int(matched.sum())
    if m == 0:
        raise ValueError("no sample point matches the predicate")
    mean, variance, value_range = _moments(
        values[mask].astype(np.float64), matched
    )
    if conservative:
        return AggregateEstimate(
            mean,
            empirical_bernstein_interval(
                mean, variance, value_range, m, confidence
            ),
            m,
        )
    standard_error = math.sqrt(variance) / math.sqrt(m)
    return AggregateEstimate(
        mean,
        clt_interval(mean, float(standard_error), confidence),
        m,
    )
