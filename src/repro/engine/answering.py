"""The shared approximate-answer routing, parameterized by a source.

The answer path used to live inside
:class:`~repro.engine.engine.ApproximateAnswerEngine` only; the serving
layer's read-snapshot isolation needs the *same* routing to run against
a frozen copy of the synopses (a
:class:`~repro.engine.pinned.PinnedEngineView`), so the logic is
factored here behind the small :class:`AnswerSource` protocol: anything
that can look up a synopsis by ``(relation, attribute, role)`` and
report row counts / scan costs can answer queries.

Both implementations answer **byte-identically** from identical
synopsis state -- every function here is a deterministic, read-only
computation over the source -- which is exactly the property the
serving concurrency battery asserts against its serial oracle.
"""

from __future__ import annotations

from typing import Protocol

from repro.core.concise import ConciseSample
from repro.core.reservoir import ReservoirSample
from repro.engine.queries import (
    AverageQuery,
    CountQuery,
    DistinctCountQuery,
    FrequencyQuery,
    HotListQuery,
    JoinSizeQuery,
    Query,
    SelectivityQuery,
    SumQuery,
)
from repro.engine.registry import (
    DISTINCT,
    HISTOGRAM,
    HOTLIST,
    SAMPLE,
    SynopsisRole,
)
from repro.engine.responses import QueryResponse
from repro.estimators.aggregates import (
    estimate_average,
    estimate_count,
    estimate_matching_count,
    estimate_sum,
)
from repro.estimators.selectivity import estimate_selectivity

__all__ = [
    "AnswerSource",
    "NoSynopsisError",
    "answer_approximate",
    "estimate_distinct_value",
]


class NoSynopsisError(RuntimeError):
    """Raised when no registered synopsis can answer a query
    approximately and exact fallback was not allowed."""


class AnswerSource(Protocol):
    """What the approximate answer path reads: synopses plus counts.

    The live engine implements it over its registry and warehouse; a
    :class:`~repro.engine.pinned.PinnedEngineView` implements it over
    state captured at one ingest epoch.
    """

    @property
    def conservative_intervals(self) -> bool:
        """Whether estimates carry distribution-free intervals."""
        ...

    def lookup_synopsis(
        self, relation: str, attribute: str, role: SynopsisRole
    ) -> object | None:
        """The synopsis registered under a key, or ``None``."""
        ...

    def rows_loaded(self, relation: str) -> int:
        """Net rows observed for a relation (the population size)."""
        ...

    def scan_cost(self, relation: str) -> int:
        """Disk accesses a full base-data scan would cost."""
        ...


def _uniform_sample(
    source: AnswerSource, relation: str, attribute: str
) -> ConciseSample | ReservoirSample:
    """The uniform sample registered for an attribute."""
    sample = source.lookup_synopsis(relation, attribute, SAMPLE)
    if sample is None:
        raise NoSynopsisError(
            f"no sample registered for {relation}.{attribute}"
        )
    if not isinstance(sample, (ConciseSample, ReservoirSample)):
        raise NoSynopsisError(
            f"registered sample for {relation}.{attribute} has an "
            "unsupported type"
        )
    return sample


def estimate_distinct_value(
    source: AnswerSource, relation: str, attribute: str
) -> float:
    """Best-available distinct-count estimate for a join column."""
    sketch = source.lookup_synopsis(relation, attribute, DISTINCT)
    if sketch is not None:
        return float(sketch.estimate())  # type: ignore[attr-defined]
    sample = source.lookup_synopsis(relation, attribute, SAMPLE)
    if sample is not None:
        from repro.estimators.distinct import (
            frequency_profile,
            guaranteed_error_estimator,
        )

        uniform = _uniform_sample(source, relation, attribute)
        values, counts = uniform.columnar_view()
        if len(counts):
            return guaranteed_error_estimator(
                frequency_profile(values, counts=counts),
                max(source.rows_loaded(relation), uniform.sample_size),
            )
    # Fall back to the hot list's own support (a lower bound).
    reporter = source.lookup_synopsis(relation, attribute, HOTLIST)
    if reporter is not None:
        return float(len(reporter.report(10**6)))  # type: ignore[attr-defined]
    raise NoSynopsisError(
        f"no synopsis can estimate distinct({relation}.{attribute})"
    )


def _answer_join_size(
    source: AnswerSource, query: JoinSizeQuery
) -> QueryResponse:
    from repro.estimators.joins import join_size_from_hotlists

    sides = []
    for relation, attribute in (
        (query.left_relation, query.left_attribute),
        (query.right_relation, query.right_attribute),
    ):
        reporter = source.lookup_synopsis(relation, attribute, HOTLIST)
        if reporter is None:
            raise NoSynopsisError(
                f"no hot-list synopsis for {relation}.{attribute}"
            )
        sides.append(
            (
                reporter.report(  # type: ignore[attr-defined]
                    max(2, reporter.footprint_bound // 2)  # type: ignore[attr-defined]
                ),
                source.rows_loaded(relation),
                estimate_distinct_value(source, relation, attribute),
            )
        )
    (left_answer, left_total, left_distinct) = sides[0]
    (right_answer, right_total, right_distinct) = sides[1]
    estimate = join_size_from_hotlists(
        left_answer,
        right_answer,
        left_total,
        right_total,
        left_distinct,
        right_distinct,
    )
    exact_cost = source.scan_cost(query.left_relation) + source.scan_cost(
        query.right_relation
    )
    return QueryResponse(
        answer=estimate,
        interval=None,
        method="hotlist-join",
        is_exact=False,
        exact_cost_estimate=exact_cost,
    )


def _answer_from_histogram(
    query: "CountQuery | SelectivityQuery",
    histogram: object,
    population: int,
    scan_cost: int,
) -> QueryResponse:
    """Answer a count/selectivity query from a histogram synopsis."""
    predicate = query.predicate
    if predicate is None:
        count = float(population)
    elif predicate.equals is not None:
        count = float(
            histogram.estimate_equality(predicate.equals)  # type: ignore[attr-defined]
        )
    else:
        low = (
            predicate.low
            if predicate.low is not None
            else -float("inf")
        )
        high = (
            predicate.high
            if predicate.high is not None
            else float("inf")
        )
        count = float(histogram.estimate_range(low, high))  # type: ignore[attr-defined]
    if isinstance(query, SelectivityQuery):
        answer = count / population if population else 0.0
    else:
        answer = count
    return QueryResponse(
        answer=answer,
        interval=None,
        method=type(histogram).__name__,
        is_exact=False,
        exact_cost_estimate=scan_cost,
    )


def answer_approximate(
    source: AnswerSource, query: Query
) -> QueryResponse:
    """Answer a query from the source's synopses alone.

    Deterministic and read-only: two sources holding identical
    synopsis state return byte-identical responses.  Raises
    :class:`NoSynopsisError` when nothing registered can answer.
    """
    if isinstance(query, JoinSizeQuery):
        return _answer_join_size(source, query)
    scan_cost = source.scan_cost(query.relation)
    population = source.rows_loaded(query.relation)

    if isinstance(query, HotListQuery):
        reporter = source.lookup_synopsis(
            query.relation, query.attribute, HOTLIST
        )
        if reporter is None:
            raise NoSynopsisError(
                f"no hot-list synopsis for "
                f"{query.relation}.{query.attribute}"
            )
        answer = reporter.report(query.k)  # type: ignore[attr-defined]
        return QueryResponse(
            answer=answer,
            interval=reporter.top_interval(answer),  # type: ignore[attr-defined]
            method=type(reporter).__name__,
            is_exact=False,
            exact_cost_estimate=scan_cost,
        )

    if isinstance(query, DistinctCountQuery):
        sketch = source.lookup_synopsis(
            query.relation, query.attribute, DISTINCT
        )
        if sketch is None:
            raise NoSynopsisError(
                f"no distinct-count synopsis for "
                f"{query.relation}.{query.attribute}"
            )
        return QueryResponse(
            answer=float(sketch.estimate()),  # type: ignore[attr-defined]
            interval=None,
            method=type(sketch).__name__,
            is_exact=False,
            exact_cost_estimate=scan_cost,
        )

    if isinstance(query, (CountQuery, SelectivityQuery)):
        has_sample = (
            source.lookup_synopsis(query.relation, query.attribute, SAMPLE)
            is not None
        )
        histogram = source.lookup_synopsis(
            query.relation, query.attribute, HISTOGRAM
        )
        if not has_sample and histogram is not None:
            return _answer_from_histogram(
                query, histogram, population, scan_cost
            )

    sample = _uniform_sample(source, query.relation, query.attribute)
    conservative = source.conservative_intervals
    if isinstance(query, FrequencyQuery):
        # One count_of lookup: O(1) in a concise sample's dict.
        estimate = estimate_matching_count(
            sample.count_of(query.value),
            sample.sample_size,
            population,
            conservative=conservative,
        )
        return QueryResponse(
            answer=estimate.value,
            interval=estimate.interval,
            method="sample",
            is_exact=False,
            exact_cost_estimate=scan_cost,
        )

    # The (value, count) pairs: answers cost O(m) in the footprint,
    # never O(m') in the points the pairs stand for.
    values, counts = sample.columnar_view()
    if isinstance(query, CountQuery):
        mask = query.predicate.mask if query.predicate else None
        estimate = estimate_count(
            values,
            population,
            mask,
            conservative=conservative,
            counts=counts,
        )
    elif isinstance(query, SumQuery):
        mask = query.predicate.mask if query.predicate else None
        estimate = estimate_sum(
            values,
            population,
            mask,
            conservative=conservative,
            counts=counts,
        )
    elif isinstance(query, AverageQuery):
        mask = query.predicate.mask if query.predicate else None
        estimate = estimate_average(
            values, mask, conservative=conservative, counts=counts
        )
    elif isinstance(query, SelectivityQuery):
        if query.predicate is None:
            raise ValueError("selectivity query needs a predicate")
        selectivity = estimate_selectivity(
            values, query.predicate, counts=counts
        )
        return QueryResponse(
            answer=selectivity.selectivity,
            interval=selectivity.interval,
            method="sample",
            is_exact=False,
            exact_cost_estimate=scan_cost,
        )
    else:  # pragma: no cover - exhaustive routing guard
        raise TypeError(f"unsupported query {query!r}")

    return QueryResponse(
        answer=estimate.value,
        interval=estimate.interval,
        method="sample",
        is_exact=False,
        exact_cost_estimate=scan_cost,
    )
