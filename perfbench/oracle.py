"""Seeded inputs and the exact oracle the benchmark checks answers by.

The program receives only the rows and queries generated here.  The
oracle keeps exact per-value counts of every row the benchmark has
acknowledged, so every approximate answer can be scored against the
truth at the moment it was asked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.engine import (
    AverageQuery,
    CountQuery,
    FrequencyQuery,
    HotListQuery,
    Query,
    SumQuery,
)
from repro.estimators.selectivity import Predicate
from repro.streams import ZipfDistribution

RELATION = "sales"
#: served-scan and cluster-mixed load the first attribute only; the
#: served-stream feed carries all four, one hot-list dashboard each.
ATTRIBUTES = ("item", "store", "region", "customer")
ATTRIBUTE = ATTRIBUTES[0]
DOMAIN = 100_000
SKEW = 1.25

# Stream identifiers keep every generated input independent of the
# others while deriving all of them from the one ``--seed``.
PRELOAD, BATCHES, QUERIES, RELABEL = 1, 2, 3, 5

_ZIPF = ZipfDistribution(DOMAIN, SKEW)


def derive_seed(seed: int, *path: int) -> int:
    """A child seed for one input stream (and batch) of a run.

    Any integer ``--seed`` works: it is taken modulo 2**64, because
    ``SeedSequence`` accepts only non-negative entropy.
    """
    entropy = [seed & (2**64 - 1), *path]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def columns(
    rows: int, seed: int, attributes: int, *path: int
) -> dict[str, np.ndarray]:
    """``rows`` bounded zipf-1.25 draws over ``1..DOMAIN``, as columns.

    The first column is the draw itself; each further column relabels
    it through a fixed seeded permutation of the domain.  Every column
    has the same skew, so dashboards over them cost the same, and a
    relation holds at most ``DOMAIN`` distinct rows, so its memory
    stops growing once the preload has seen the common values.
    """
    draws = _ZIPF.sample(rows, derive_seed(seed, *path))
    return {
        name: draws if column == 0 else _relabel(seed, column)[draws]
        for column, name in enumerate(ATTRIBUTES[:attributes])
    }


@lru_cache(maxsize=None)
def _relabel(seed: int, column: int) -> np.ndarray:
    """A permutation of ``0..DOMAIN`` that fixes 0."""
    rng = np.random.default_rng(derive_seed(seed, RELABEL, column))
    return np.concatenate([[0], 1 + rng.permutation(DOMAIN)])


def preload(rows: int, seed: int, attributes: int) -> dict[str, np.ndarray]:
    """The rows every set-up loads before the first timed request."""
    return columns(rows, seed, attributes, PRELOAD)


def batch(rows: int, seed: int, attributes: int, index: int) -> dict[str, np.ndarray]:
    """Ingest batch ``index`` of a run; regenerated, never stored."""
    return columns(rows, seed, attributes, BATCHES, index)


# -- query streams -------------------------------------------------------

COUNT, SUM, AVERAGE, FREQUENCY = range(4)
#: Query kinds by position, repeating.  The kinds cost different
#: amounts, so their shares are set to keep every reported percentile
#: well inside one kind: frequency (the cheapest) holds 5/8 of the
#: stream and so the median, sum (the dearest) the top 1/8 and so p95.
#: Point queries on distinct values also give the accuracy audit
#: thousands of nearly independent estimates per run.
PATTERN = (
    FREQUENCY, COUNT, FREQUENCY, SUM, FREQUENCY, AVERAGE, FREQUENCY, FREQUENCY,
)
_RANGE_SLOT = np.cumsum([0] + [kind != FREQUENCY for kind in PATTERN])
_POINT_SLOT = np.cumsum([0] + [kind == FREQUENCY for kind in PATTERN])
HEAD = 4_000  # point queries ask about the first HEAD values first
RANGE_SPAN = 20_000


@dataclass(frozen=True)
class QueryPlan:
    """A seeded stream of distinct range and point queries.

    Query ``i`` has kind ``PATTERN[i % 8]``.  Range queries cover
    ``[low, high]``; no two queries of one plan are equal, so a result
    cache never serves one of them.
    """

    lows: np.ndarray
    highs: np.ndarray
    points: np.ndarray

    def query(self, index: int) -> Query:
        cycle, offset = divmod(index, len(PATTERN))
        kind = PATTERN[offset]
        if kind == FREQUENCY:
            position = cycle * _POINT_SLOT[-1] + _POINT_SLOT[offset]
            return FrequencyQuery(RELATION, ATTRIBUTE, int(self.points[position]))
        position = cycle * _RANGE_SLOT[-1] + _RANGE_SLOT[offset]
        predicate = Predicate(
            low=int(self.lows[position]), high=int(self.highs[position])
        )
        if kind == COUNT:
            return CountQuery(RELATION, ATTRIBUTE, predicate)
        if kind == SUM:
            return SumQuery(RELATION, ATTRIBUTE, predicate)
        return AverageQuery(RELATION, ATTRIBUTE, predicate)


def query_plan(seed: int, ranges: int = 350_000) -> QueryPlan:
    """Distinct ranges and distinct point values.

    Ranges are 100..2,000 values wide and start anywhere in the first
    ``RANGE_SPAN`` values, so their sampling errors are close to
    independent and a run's accuracy figures average over many draws
    rather than one, while every range still holds enough rows that the
    sample has points in it (an average over no points is an error).
    Point values are a shuffled head, then a shuffled tail.
    """
    rng = np.random.default_rng(derive_seed(seed, QUERIES))
    widths = rng.integers(100, 2_000, size=2 * ranges)
    lows = 1 + (rng.random(2 * ranges) * (RANGE_SPAN - widths)).astype(np.int64)
    highs = lows + widths
    pairs = lows * (DOMAIN + 1) + highs
    _, first = np.unique(pairs, return_index=True)
    keep = np.sort(first)[:ranges]
    points = np.concatenate(
        [
            rng.permutation(np.arange(1, HEAD + 1)),
            rng.permutation(np.arange(HEAD + 1, DOMAIN + 1)),
        ]
    )
    return QueryPlan(lows[keep], highs[keep], points)


def dashboards(k: int) -> list[HotListQuery]:
    """One top-``k`` dashboard per attribute of the streaming feed.

    Equal ``k`` keeps every dashboard in one cost class, so the
    reported percentiles split cleanly into cache hits and misses.
    """
    return [HotListQuery(RELATION, name, k=k) for name in ATTRIBUTES]


# -- the exact oracle ----------------------------------------------------


class ExactCounts:
    """Exact occurrence counts of every acknowledged row."""

    def __init__(self) -> None:
        self.counts = np.zeros(DOMAIN + 1, dtype=np.int64)
        self.rows = 0
        self._prefix: tuple[np.ndarray, np.ndarray] | None = None

    def add(self, values: np.ndarray) -> None:
        self.counts += np.bincount(values, minlength=DOMAIN + 1)
        self.rows += len(values)
        self._prefix = None

    def _prefixes(self) -> tuple[np.ndarray, np.ndarray]:
        if self._prefix is None:
            values = np.arange(DOMAIN + 1, dtype=np.float64)
            self._prefix = (
                np.concatenate([[0], np.cumsum(self.counts)]),
                np.concatenate([[0.0], np.cumsum(self.counts * values)]),
            )
        return self._prefix

    def truth(self, query: Query) -> float:
        """The exact answer to a count/sum/average/frequency query."""
        if isinstance(query, FrequencyQuery):
            return float(self.counts[query.value])
        predicate = query.predicate
        low, high = predicate.low, predicate.high
        counts, sums = self._prefixes()
        count = float(counts[high + 1] - counts[low])
        total = float(sums[high + 1] - sums[low])
        if isinstance(query, CountQuery):
            return count
        if isinstance(query, SumQuery):
            return total
        return total / count if count else 0.0


@dataclass
class Accuracy:
    """Relative error, interval coverage and width against the truth."""

    errors: list[float] = field(default_factory=list)
    covered: int = 0
    intervals: int = 0
    half_widths: list[float] = field(default_factory=list)

    def score(self, estimate: float, truth: float, interval: object) -> None:
        """Score one estimate; ``interval`` may be ``None`` (unscored)."""
        if truth > 0:
            self.errors.append(abs(estimate - truth) / truth)
        if interval is None:
            return
        self.intervals += 1
        self.covered += interval.low <= truth <= interval.high
        if truth > 0:
            self.half_widths.append((interval.high - interval.low) / 2 / truth)

    def metrics(self) -> dict[str, float]:
        return {
            "rel_error_p50": float(np.median(self.errors)),
            "interval_coverage": self.covered / self.intervals,
            "interval_rel_halfwidth_p50": float(np.median(self.half_widths)),
        }
