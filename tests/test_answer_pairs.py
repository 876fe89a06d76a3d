"""Sample answers from (value, count) pairs match the expanded sample.

The answer path hands a sample's ``columnar_view()`` pairs to the
estimators and never expands them into the ``m'`` points they stand
for.  The oracle here is the expanded path written out: the view
repeated into points (``np.repeat``) and fed through the point-form
formulas -- the predicate mask over every point, the proportion, and
``mean``/``std(ddof=1)``/``ptp`` of the per-point contributions.  Every
answer surface (the live engine, a pinned view, and the op table's
``query_batch``) must agree with it to 1e-9 relative, for concise and
reservoir samples, with CLT and conservative intervals alike.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import pytest

from repro.core.concise import ConciseSample
from repro.core.reservoir import ReservoirSample
from repro.engine import (
    ApproximateAnswerEngine,
    AverageQuery,
    CountQuery,
    DataWarehouse,
    FrequencyQuery,
    JoinSizeQuery,
    SelectivityQuery,
    SumQuery,
)
from repro.engine.answering import estimate_distinct_value
from repro.engine.queries import Query
from repro.estimators.distinct import frequency_profile
from repro.estimators.intervals import (
    clt_interval,
    empirical_bernstein_interval,
    hoeffding_count_interval,
    wilson_interval,
)
from repro.estimators.selectivity import Predicate, estimate_selectivity
from repro.hotlist import CountingHotList
from repro.serving import codec
from repro.serving.ops import Operations
from repro.streams import zipf_stream

RELATION = "r"
ATTRIBUTE = "a"
ABSENT = 10**6

QUERIES: list[Query] = [
    FrequencyQuery(RELATION, ATTRIBUTE, 1),
    FrequencyQuery(RELATION, ATTRIBUTE, 7),
    FrequencyQuery(RELATION, ATTRIBUTE, ABSENT),
    CountQuery(RELATION, ATTRIBUTE),
    CountQuery(RELATION, ATTRIBUTE, Predicate(low=2, high=40)),
    CountQuery(RELATION, ATTRIBUTE, Predicate(equals=3)),
    CountQuery(RELATION, ATTRIBUTE, Predicate(low=0)),
    CountQuery(RELATION, ATTRIBUTE, Predicate(low=ABSENT)),
    SumQuery(RELATION, ATTRIBUTE),
    SumQuery(RELATION, ATTRIBUTE, Predicate(low=2, high=40)),
    SumQuery(RELATION, ATTRIBUTE, Predicate(low=0)),
    SumQuery(RELATION, ATTRIBUTE, Predicate(low=ABSENT)),
    AverageQuery(RELATION, ATTRIBUTE),
    AverageQuery(RELATION, ATTRIBUTE, Predicate(low=2, high=40)),
    AverageQuery(RELATION, ATTRIBUTE, Predicate(high=1)),
    AverageQuery(RELATION, ATTRIBUTE, Predicate(low=ABSENT)),
    SelectivityQuery(RELATION, ATTRIBUTE, Predicate(low=2, high=40)),
    SelectivityQuery(RELATION, ATTRIBUTE, Predicate(low=0)),
    SelectivityQuery(RELATION, ATTRIBUTE, Predicate(equals=ABSENT)),
]

#: name -> (sample factory, stream); the sample must be uniform.
SAMPLES: dict[str, tuple[Callable[[], object], np.ndarray]] = {
    "concise-tau-1": (
        lambda: ConciseSample(500, seed=1),
        zipf_stream(400, 50, 1.1, seed=2),
    ),
    "concise-tau-above-1": (
        lambda: ConciseSample(200, seed=3),
        zipf_stream(20_000, 1000, 1.2, seed=4),
    ),
    "reservoir-repeats": (
        lambda: ReservoirSample(300, seed=5),
        zipf_stream(20_000, 1000, 1.3, seed=6),
    ),
    "concise-single-point": (
        lambda: ConciseSample(50, seed=7),
        np.array([5], dtype=np.int64),
    ),
    "reservoir-single-point": (
        lambda: ReservoirSample(50, seed=8),
        np.array([5], dtype=np.int64),
    ),
}


def build(
    name: str, *, conservative: bool
) -> tuple[ApproximateAnswerEngine, object]:
    factory, stream = SAMPLES[name]
    warehouse = DataWarehouse()
    warehouse.create_relation(RELATION, [ATTRIBUTE])
    engine = ApproximateAnswerEngine(
        warehouse, conservative_intervals=conservative
    )
    sample = factory()
    engine.register_sample(RELATION, ATTRIBUTE, sample)
    if len(stream):
        warehouse.load_batch(RELATION, {ATTRIBUTE: stream})
    return engine, sample


def expanded_answer(
    points: np.ndarray, population: int, query: Query, conservative: bool
) -> tuple[float, float, float]:
    """(estimate, low, high) from the expanded points, point by point."""
    m = len(points)
    if m == 0:
        raise ValueError("cannot estimate from an empty sample")
    if isinstance(query, FrequencyQuery):
        mask = points == query.value
    elif query.predicate is None:
        mask = np.ones(m, dtype=bool)
    else:
        mask = query.predicate.mask(points)
    if isinstance(query, CountQuery) and query.predicate is None:
        return float(population), float(population), float(population)
    if isinstance(query, (FrequencyQuery, CountQuery, SelectivityQuery)):
        selectivity = isinstance(query, SelectivityQuery)
        scale = 1 if selectivity else population
        matching = int(mask.sum())
        proportion = matching / m
        if conservative and not selectivity:
            interval = hoeffding_count_interval(matching, m, population)
            low, high = interval.low, interval.high
        elif matching in (0, m):
            wilson = wilson_interval(matching, m)
            low, high = wilson.low * scale, wilson.high * scale
        else:
            interval = clt_interval(
                scale * proportion,
                scale * math.sqrt(proportion * (1 - proportion) / m),
            )
            low, high = interval.low, interval.high
        if selectivity:
            low, high = max(0.0, low), min(1.0, high)
        return scale * proportion, low, high
    if isinstance(query, SumQuery):
        contributions = np.where(mask, points.astype(np.float64), 0.0)
        scale = population
    else:
        contributions = points[mask].astype(np.float64)
        if len(contributions) == 0:
            raise ValueError("no sample point matches the predicate")
        scale = 1
    size = len(contributions)
    mean = float(contributions.mean())
    if conservative:
        variance = float(contributions.var(ddof=1)) if size > 1 else 0.0
        bernstein = empirical_bernstein_interval(
            mean, variance, float(np.ptp(contributions)), size
        )
        return scale * mean, bernstein.low * scale, bernstein.high * scale
    spread = float(contributions.std(ddof=1)) if size > 1 else 0.0
    interval = clt_interval(scale * mean, scale * spread / math.sqrt(size))
    return scale * mean, interval.low, interval.high


def via_engine(engine: ApproximateAnswerEngine, query: Query):
    return engine.answer(query)


def via_pinned(engine: ApproximateAnswerEngine, query: Query):
    return engine.pin_view().answer(query)


def via_query_batch(engine: ApproximateAnswerEngine, query: Query):
    operations = Operations(engine.warehouse, engine)
    reply = operations.query_batch({"queries": [codec.encode_query(query)]})
    return codec.decode_response(reply["answers"][0]["response"])


SURFACES = {
    "engine": via_engine,
    "pinned": via_pinned,
    "query_batch": via_query_batch,
}


def assert_close(actual: float, expected: float) -> None:
    assert actual == pytest.approx(expected, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("conservative", [False, True])
@pytest.mark.parametrize("name", sorted(SAMPLES))
@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_pairs_match_expanded_sample(name, conservative, surface):
    engine, sample = build(name, conservative=conservative)
    values, counts = sample.columnar_view()
    points = np.repeat(values, counts)
    population = engine.rows_loaded(RELATION)
    answer = SURFACES[surface]
    answered = 0
    for query in QUERIES:
        try:
            expected = expanded_answer(points, population, query, conservative)
        except ValueError:
            with pytest.raises(ValueError):
                answer(engine, query)
            continue
        response = answer(engine, query)
        estimate, low, high = expected
        assert_close(float(response.answer), estimate)
        assert_close(response.interval.low, low)
        assert_close(response.interval.high, high)
        answered += 1
    assert answered >= len(QUERIES) - 2


def test_samples_cover_both_thresholds_and_repeats():
    """The table exercises tau = 1, tau > 1, and repeated reservoir
    points, so the pairs differ from the points where it matters."""
    _, tau_one = build("concise-tau-1", conservative=False)
    assert tau_one.threshold == 1.0
    _, concise = build("concise-tau-above-1", conservative=False)
    assert concise.threshold > 1.0
    assert concise.sample_size > len(concise.columnar_view()[0])
    _, reservoir = build("reservoir-repeats", conservative=False)
    assert reservoir.columnar_view()[1].max() > 1


@pytest.mark.parametrize("surface", sorted(SURFACES))
@pytest.mark.parametrize("sample_type", [ConciseSample, ReservoirSample])
def test_average_with_no_match_raises(surface, sample_type):
    warehouse = DataWarehouse()
    warehouse.create_relation(RELATION, [ATTRIBUTE])
    engine = ApproximateAnswerEngine(warehouse)
    engine.register_sample(RELATION, ATTRIBUTE, sample_type(100, seed=1))
    warehouse.load_batch(RELATION, {ATTRIBUTE: np.arange(1, 50)})
    query = AverageQuery(RELATION, ATTRIBUTE, Predicate(low=ABSENT))
    with pytest.raises(ValueError, match="no sample point matches"):
        SURFACES[surface](engine, query)


@pytest.mark.parametrize("surface", sorted(SURFACES))
@pytest.mark.parametrize("sample_type", [ConciseSample, ReservoirSample])
def test_empty_sample_raises(surface, sample_type):
    warehouse = DataWarehouse()
    warehouse.create_relation(RELATION, [ATTRIBUTE])
    engine = ApproximateAnswerEngine(warehouse)
    engine.register_sample(RELATION, ATTRIBUTE, sample_type(100, seed=1))
    for query in QUERIES:
        if isinstance(query, CountQuery) and query.predicate is None:
            continue
        with pytest.raises(ValueError, match="empty sample"):
            SURFACES[surface](engine, query)


@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_no_answer_expands_the_sample(surface, monkeypatch):
    """Every sample query kind answers with expansion switched off."""

    def refuse(self):
        raise AssertionError("the answer path expanded the sample")

    engine, _ = build("concise-tau-above-1", conservative=False)
    engine.register_hotlist(RELATION, ATTRIBUTE, CountingHotList(200, seed=9))
    engine.warehouse.load_batch(
        RELATION, {ATTRIBUTE: zipf_stream(2_000, 1000, 1.2, seed=10)}
    )
    monkeypatch.setattr(ConciseSample, "sample_points", refuse)
    for query in QUERIES:
        if query == AverageQuery(RELATION, ATTRIBUTE, Predicate(low=ABSENT)):
            continue
        SURFACES[surface](engine, query)
    # The join estimate falls back to the sample's distinct estimate.
    join = JoinSizeQuery(RELATION, ATTRIBUTE, RELATION, ATTRIBUTE)
    assert SURFACES[surface](engine, join).answer > 0


@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_frequency_is_one_lookup(surface, monkeypatch):
    """A concise-sample frequency reads ``count_of`` and builds no view,
    so a point query right after an ingest stays O(1)."""

    def refuse(self):
        raise AssertionError("the frequency path built the columnar view")

    engine, _ = build("concise-tau-above-1", conservative=False)
    monkeypatch.setattr(ConciseSample, "columnar_view", refuse)
    for query in QUERIES:
        if isinstance(query, FrequencyQuery):
            SURFACES[surface](engine, query)


def test_distinct_profile_from_counts_matches_points():
    engine, sample = build("concise-tau-above-1", conservative=False)
    values, counts = sample.columnar_view()
    points = np.repeat(values, counts)
    assert frequency_profile(values, counts=counts) == frequency_profile(
        points
    )
    assert estimate_distinct_value(engine, RELATION, ATTRIBUTE) > 0


class TestSelectivityDegenerateProportions:
    """No match and full match get Wilson bounds, not a zero-width
    Wald interval that claims certainty."""

    def test_no_match_keeps_upper_room(self):
        estimate = estimate_selectivity(np.arange(10), Predicate(equals=99))
        assert estimate.selectivity == 0.0
        assert estimate.interval.low == 0.0
        assert estimate.interval.high > 0.0

    def test_full_match_keeps_lower_room(self):
        estimate = estimate_selectivity(np.arange(10), Predicate(low=0))
        assert estimate.selectivity == 1.0
        assert estimate.interval.high == 1.0
        assert estimate.interval.low < 1.0

    @pytest.mark.parametrize("size", [6, 9, 13, 21, 39])
    def test_estimate_stays_inside_its_interval(self, size):
        points = np.arange(size)
        for predicate in (Predicate(low=0), Predicate(equals=-1)):
            estimate = estimate_selectivity(points, predicate)
            assert estimate.selectivity in estimate.interval
