"""Sample-based distinct-value estimation [HNSS95].

Estimating the number of distinct values of an attribute from a sample
is notoriously hard (the paper cites [HNSS95] among the alternatives to
sketches).  Two standard estimators are provided; both consume the
*frequency profile* of the sample -- how many values appear exactly
once, twice, ... -- which a concise sample stores explicitly in its
``(value, count)`` pairs, no expansion needed.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

__all__ = [
    "first_order_jackknife",
    "frequency_profile",
    "guaranteed_error_estimator",
]


def frequency_profile(
    values: np.ndarray, *, counts: np.ndarray | None = None
) -> dict[int, int]:
    """``f_i``: how many distinct values occur exactly ``i`` times.

    ``values`` are sample points, or with ``counts`` the distinct
    values of a ``(value, count)`` view (a sample's
    ``columnar_view()``), whose counts are the profile's input as is.
    """
    if counts is None:
        _, counts = np.unique(values, return_counts=True)
    sizes, frequencies = np.unique(counts, return_counts=True)
    return dict(zip(sizes.tolist(), frequencies.tolist(), strict=True))


def _profile_stats(profile: Mapping[int, int]) -> tuple[int, int, int]:
    if not profile:
        return 0, 0, 0
    sizes = np.fromiter(profile.keys(), np.int64, len(profile))
    frequencies = np.fromiter(profile.values(), np.int64, len(profile))
    distinct = int(frequencies.sum())
    sample_size = int(sizes @ frequencies)
    singletons = int(profile.get(1, 0))
    return distinct, sample_size, singletons


def first_order_jackknife(
    profile: Mapping[int, int], population: int
) -> float:
    """The first-order jackknife estimator of the distinct count.

    ``D_hat = d / (1 - f_1 (1 - m/n) / m)`` with ``d`` distinct values
    in the sample, ``f_1`` sample singletons, ``m`` the sample size and
    ``n`` the relation size.  Biased low on skewed data but cheap and
    robust.
    """
    distinct, sample_size, singletons = _profile_stats(profile)
    if sample_size == 0:
        return 0.0
    if population < sample_size:
        raise ValueError("population must be at least the sample size")
    shrink = 1.0 - singletons * (1.0 - sample_size / population) / sample_size
    if shrink <= 0.0:
        # All-singleton sample from a huge population: the jackknife
        # degenerates; fall back to the birthday-style upper estimate.
        return float(population)
    return distinct / shrink


def guaranteed_error_estimator(
    profile: Mapping[int, int], population: int
) -> float:
    """The GEE estimator of Charikar et al., rooted in [HNSS95]'s
    hybrid: ``D_hat = sqrt(n/m) * f_1 + sum_{i>=2} f_i``.

    Scales up only the sample singletons (values plausibly unseen in
    proportion) and achieves the best possible worst-case error ratio
    ``O(sqrt(n/m))`` for sample-based estimation.
    """
    distinct, sample_size, singletons = _profile_stats(profile)
    if sample_size == 0:
        return 0.0
    if population < sample_size:
        raise ValueError("population must be at least the sample size")
    repeated = distinct - singletons
    return math.sqrt(population / sample_size) * singletons + repeated
