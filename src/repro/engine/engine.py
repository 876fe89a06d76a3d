"""The approximate answer engine (paper Figures 1-2).

The engine subscribes to a warehouse's load stream, forwards attribute
values to registered synopses, and answers queries from those synopses
alone -- zero base-data accesses -- returning a
:class:`~repro.engine.responses.QueryResponse` with an accuracy
measure.  Callers can demand exactness (``exact=True``) to model the
user's follow-up decision; the exact path scans base data and is
charged accordingly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.concise import ConciseSample
from repro.core.counting import CountingSample
from repro.core.reservoir import ReservoirSample
from repro.engine import answering
from repro.engine.answering import NoSynopsisError
from repro.engine.cache import EpochToken, QueryResultCache
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
    SynopsisRegistry,
    SynopsisRole,
)
from repro.engine.protocols import DistinctSketch, Histogram
from repro.engine.responses import QueryResponse
from repro.engine.warehouse import DataWarehouse
from repro.hotlist.base import HotListAnswer, HotListReporter
from repro.obs.audit import CalibrationAuditor
from repro.obs.tracing import ActiveTrace, Tracer
from repro.stats.frequency import FrequencyTable

if TYPE_CHECKING:
    from repro.engine.pinned import PinnedEngineView

__all__ = ["ApproximateAnswerEngine", "NoSynopsisError"]


class _EngineTap:
    """The engine's warehouse subscription, row- and batch-capable.

    A plain bound method cannot carry the ``observe_batch`` attribute
    the warehouse probes for, so the engine registers this adapter:
    per-row events call the engine's ``_observe`` and whole batches go
    to ``_observe_batch``.
    """

    def __init__(self, engine: "ApproximateAnswerEngine") -> None:
        self._engine = engine

    def __call__(
        self, relation_name: str, row: tuple, is_insert: bool
    ) -> None:
        self._engine._observe(relation_name, row, is_insert)

    def observe_batch(
        self, relation_name: str, columns: dict[str, np.ndarray]
    ) -> None:
        self._engine._observe_batch(relation_name, columns)


class ApproximateAnswerEngine:
    """Routes queries to synopses maintained over the load stream.

    Parameters
    ----------
    warehouse:
        The warehouse whose load stream the engine observes.
    budget_words:
        Optional total memory budget for all registered synopses.
    tracer:
        Optional :class:`~repro.obs.tracing.Tracer`; when set (at
        construction or later via the ``tracer`` attribute) every
        :meth:`answer` call is recorded as a query span; an
        :class:`~repro.serving.server.AQPServer` over this engine
        traces exactly when it is set.  The engine never reads a
        clock itself -- timing lives entirely in the tracer.
    cache:
        Optional :class:`~repro.engine.cache.QueryResultCache`; when
        set, approximate answers are memoized and invalidated by the
        ingest epochs of the relations each query reads.  The exact
        path is never cached -- it must scan base data and charge the
        disk accesses every time.
    auditor:
        Optional :class:`~repro.obs.audit.CalibrationAuditor`; when
        set, a seeded fraction of approximate answers (cache hits
        included) is shadowed with the exact path and scored against
        the claimed interval.  Audit shadows charge base-data disk
        accesses -- that is the price of the calibration signal.
    conservative_intervals:
        When true, count/sum/average estimates carry distribution-free
        (Hoeffding / empirical-Bernstein) intervals instead of CLT
        ones: wider, but valid at any finite sample size, so audited
        coverage provably meets the claimed confidence.
    """

    def __init__(
        self,
        warehouse: DataWarehouse,
        budget_words: int | None = None,
        *,
        tracer: Tracer | None = None,
        cache: QueryResultCache | None = None,
        auditor: CalibrationAuditor | None = None,
        conservative_intervals: bool = False,
    ) -> None:
        self.warehouse = warehouse
        self.registry = SynopsisRegistry(budget_words)
        self.tracer = tracer
        self.cache = cache
        self.auditor = auditor
        self.conservative_intervals = conservative_intervals
        self._row_counts: dict[str, int] = {}
        self._composites: dict[str, list[tuple[str, ...]]] = {}
        self._synopsis_epochs: dict[str, int] = {}
        warehouse.add_observer(_EngineTap(self))

    # ------------------------------------------------------------------
    # Load-stream observation
    # ------------------------------------------------------------------

    def _observe(self, relation_name: str, row: tuple, is_insert: bool) -> None:
        """Forward one load event to every synopsis on that relation."""
        delta = 1 if is_insert else -1
        self._row_counts[relation_name] = (
            self._row_counts.get(relation_name, 0) + delta
        )
        relation = self.warehouse.relation(relation_name)
        for attribute_index, attribute in enumerate(relation.attributes):
            value = row[attribute_index]
            self._forward(relation_name, attribute, int(value), is_insert)
        for attributes in self._composites.get(relation_name, []):
            from repro.engine.composite import (
                composite_name,
                encode_composite,
            )

            encoded = encode_composite(
                tuple(
                    int(row[relation.attribute_index(attribute)])
                    for attribute in attributes
                )
            )
            self._forward(
                relation_name,
                composite_name(attributes),
                encoded,
                is_insert,
            )

    def _forward(
        self,
        relation_name: str,
        attribute: str,
        value: int,
        is_insert: bool,
    ) -> None:
        """Deliver one attribute value to the synopses registered on it."""
        for _, synopsis in self.registry.for_attribute(
            relation_name, attribute
        ):
            if not hasattr(synopsis, "insert"):
                # Statically built synopses (histograms) do not observe
                # the load stream; they are rebuilt on demand.
                continue
            if is_insert:
                synopsis.insert(value)
            else:
                delete = getattr(synopsis, "delete", None)
                if delete is None:
                    raise RuntimeError(
                        f"synopsis {synopsis!r} cannot handle deletes; "
                        "use a counting sample or remove it before "
                        "deleting from the warehouse"
                    )
                delete(value)

    def _observe_batch(
        self, relation_name: str, columns: dict[str, np.ndarray]
    ) -> None:
        """Forward a whole load batch to every synopsis in one call."""
        length = len(next(iter(columns.values())))
        self._row_counts[relation_name] = (
            self._row_counts.get(relation_name, 0) + length
        )
        relation = self.warehouse.relation(relation_name)
        for attribute in relation.attributes:
            self._forward_batch(
                relation_name, attribute, columns[attribute]
            )
        for attributes in self._composites.get(relation_name, []):
            from repro.engine.composite import (
                composite_name,
                encode_composite_array,
            )

            encoded = encode_composite_array(
                tuple(columns[attribute] for attribute in attributes)
            )
            self._forward_batch(
                relation_name, composite_name(attributes), encoded
            )

    def _forward_batch(
        self,
        relation_name: str,
        attribute: str,
        values: np.ndarray,
    ) -> None:
        """Deliver one attribute column to the synopses registered on it."""
        prepared: np.ndarray | None = None
        for _, synopsis in self.registry.for_attribute(
            relation_name, attribute
        ):
            if not hasattr(synopsis, "insert"):
                # Statically built synopses (histograms) do not observe
                # the load stream; they are rebuilt on demand.
                continue
            if prepared is None:
                prepared = np.asarray(values)
                if prepared.dtype.kind not in "iu":
                    # Per-row forwarding casts with int(); match it.
                    prepared = prepared.astype(np.int64)
            insert_array = getattr(synopsis, "insert_array", None)
            if insert_array is not None:
                insert_array(prepared)
                continue
            insert_many = getattr(synopsis, "insert_many", None)
            if insert_many is not None:
                insert_many(prepared.tolist())
                continue
            insert = synopsis.insert
            rows = prepared.tolist()
            for value in rows:
                insert(value)

    def rows_loaded(self, relation_name: str) -> int:
        """Net rows the engine has observed for a relation."""
        return self._row_counts.get(relation_name, 0)

    def adopt_row_counts(self) -> None:
        """Prime population counts from the warehouse's live rows.

        A fresh engine attached to a recovered warehouse has observed
        no load events, yet sample-scaling estimators need the
        population size; without this the engine would answer as if
        every relation were empty until new loads arrive.
        """
        for name in self.warehouse.relation_names():
            self._row_counts[name] = self.warehouse.relation(name).size

    # ------------------------------------------------------------------
    # Registration conveniences
    # ------------------------------------------------------------------

    def register_sample(
        self,
        relation: str,
        attribute: str,
        sample: ConciseSample | CountingSample | ReservoirSample,
    ) -> None:
        """Register a uniform-sample synopsis for aggregates."""
        self.registry.register(relation, attribute, SAMPLE, sample)
        self.bump_epoch(relation)

    def register_hotlist(
        self, relation: str, attribute: str, reporter: HotListReporter
    ) -> None:
        """Register a hot-list reporter."""
        self.registry.register(relation, attribute, HOTLIST, reporter)
        self.bump_epoch(relation)

    def register_distinct(
        self, relation: str, attribute: str, sketch: DistinctSketch
    ) -> None:
        """Register a distinct-count sketch."""
        self.registry.register(relation, attribute, DISTINCT, sketch)
        self.bump_epoch(relation)

    def register_histogram(
        self, relation: str, attribute: str, histogram: Histogram
    ) -> None:
        """Register a statically built histogram synopsis.

        Histograms do not observe the load stream (they are rebuilt on
        demand from a backing sample); the engine uses them to answer
        range COUNT and SELECTIVITY queries when no uniform sample is
        registered, or via :meth:`refresh_histogram` after loads.
        """
        self.registry.register(relation, attribute, HISTOGRAM, histogram)
        self.bump_epoch(relation)

    def refresh_histogram(
        self, relation: str, attribute: str, histogram: Histogram
    ) -> None:
        """Swap in a freshly rebuilt histogram for an attribute."""
        self.registry.unregister(relation, attribute, HISTOGRAM)
        self.registry.register(relation, attribute, HISTOGRAM, histogram)
        self.bump_epoch(relation)

    def register_composite_hotlist(
        self,
        relation: str,
        attributes: tuple[str, ...],
        reporter: HotListReporter,
    ) -> str:
        """Register a hot list over an ordered attribute tuple.

        Returns the canonical attribute name under which the composite
        is addressable in queries, e.g. ``"store_id+product_id"``.
        Answers carry encoded values; decode them with
        :func:`repro.engine.composite.decode_composite_answer`.  Only
        attribute pairs are accepted: a wider tuple's packed code
        overflows the int64 values the samples hold.
        """
        from repro.engine.composite import composite_name

        if len(attributes) > 2:
            raise ValueError(
                "a composite hot list covers at most two attributes "
                "(wider tuples overflow the samples' int64 values)"
            )
        table = self.warehouse.relation(relation)
        for attribute in attributes:
            table.attribute_index(attribute)  # validates existence
        name = composite_name(attributes)
        self.registry.register(relation, name, HOTLIST, reporter)
        self._composites.setdefault(relation, [])
        if attributes not in self._composites[relation]:
            self._composites[relation].append(tuple(attributes))
        self.bump_epoch(relation)
        return name

    # ------------------------------------------------------------------
    # Cache epochs
    # ------------------------------------------------------------------

    def bump_epoch(self, relation: str) -> None:
        """Advance a relation's synopsis epoch.

        Invalidates every cached answer over the relation.  The engine
        bumps it automatically when a synopsis is (re-)registered or a
        histogram refreshed; call it manually after mutating a
        registered synopsis out of band (e.g. merging a distributed
        partial sample into it).
        """
        self._synopsis_epochs[relation] = (
            self._synopsis_epochs.get(relation, 0) + 1
        )

    def _epoch_token(self, query: Query) -> EpochToken:
        """Current epochs of every relation the query reads.

        Combines the relation's own ingest epoch (advanced by inserts,
        batches, and deletes -- snapshot restore replaces the relation
        object, which restarts the sequence from its row count) with
        the engine's synopsis epoch (advanced by registrations and
        :meth:`bump_epoch`).
        """
        synopsis_epochs = self._synopsis_epochs
        if isinstance(query, JoinSizeQuery):
            names = sorted({query.left_relation, query.right_relation})
            return tuple(
                (
                    name,
                    (
                        self.warehouse.relation(name).epoch,
                        synopsis_epochs.get(name, 0),
                    ),
                )
                for name in names
            )
        # Single-relation fast path: this runs on every cache hit, so
        # skip the set/sort round trip the join case needs.
        name = query.relation
        return (
            (
                name,
                (
                    self.warehouse.relation(name).epoch,
                    synopsis_epochs.get(name, 0),
                ),
            ),
        )

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------

    def answer(
        self,
        query: Query,
        exact: bool = False,
        *,
        trace: ActiveTrace | None = None,
    ) -> QueryResponse:
        """Answer a query, approximately by default.

        With ``exact=True`` the base data is scanned (and the response
        carries the disk cost); otherwise the engine answers purely
        from synopses and raises :class:`NoSynopsisError` when none is
        registered for the query.

        When a cache is attached, approximate answers are served from
        it while the target relations' epochs are unchanged; any
        ingest into a relation invalidates exactly that relation's
        entries.  When a tracer is attached, the call is recorded as
        one query span (including errors, which are re-raised), with
        the cache outcome on the span and child spans for the cache
        lookup, synopsis answering, exact fallback, and audit shadow
        phases; a caller holding an open query ``trace`` (the server)
        hands it in, and the engine records into it instead of opening
        a root of its own.  When an auditor is attached, approximate
        answers may additionally be shadowed with the exact path and
        scored.
        """
        root = None
        if trace is None and self.tracer is not None:
            trace = root = self.tracer.start_trace()
        cache_status: str | None = None
        try:
            if exact:
                if trace is not None:
                    with trace.child("exact_fallback"):
                        response = self._answer_exact(query)
                else:
                    response = self._answer_exact(query)
            else:
                response, cache_status = self._answer_with_cache(
                    query, trace
                )
                self._maybe_audit(query, response, trace)
            if trace is not None:
                trace.record_query(
                    query, response, requested_exact=exact, cache=cache_status
                )
        except BaseException as error:
            if trace is not None:
                trace.record_query(query, error=error, requested_exact=exact)
            raise
        finally:
            if root is not None:
                root.finish()
        return response

    def _answer_with_cache(
        self, query: Query, trace: ActiveTrace | None
    ) -> tuple[QueryResponse, str | None]:
        """The approximate path, through the cache when one is attached.

        Returns the response and the span-level cache outcome (``None``
        without a cache; an invalidated lookup reports ``"miss"`` on
        the root span -- the finer ``"invalidated"`` status lives on
        the ``cache_lookup`` child).
        """
        if self.cache is None:
            if trace is not None:
                with trace.child("synopsis_answer"):
                    return self._answer_approximate(query), None
            return self._answer_approximate(query), None
        epochs = self._epoch_token(query)
        if trace is not None:
            with trace.child("cache_lookup") as scope:
                cached, outcome = self.cache.lookup(query, epochs)
                scope.status = outcome
        else:
            cached, outcome = self.cache.lookup(query, epochs)
        if cached is not None:
            return cached, "hit"
        if trace is not None:
            with trace.child("synopsis_answer"):
                response = self._answer_approximate(query)
        else:
            response = self._answer_approximate(query)
        self.cache.put(query, epochs, response)
        return response, "miss"

    def _maybe_audit(
        self,
        query: Query,
        response: QueryResponse,
        trace: ActiveTrace | None,
    ) -> None:
        """Shadow this answer with the exact path if the auditor says so.

        Runs on cache hits too: a stale-but-served answer is exactly
        the kind calibration auditing exists to catch.
        """
        auditor = self.auditor
        if auditor is None or not auditor.should_audit(query):
            return
        if trace is not None:
            with trace.child("audit_shadow") as scope:
                observation = auditor.shadow(
                    query, response, self._answer_exact
                )
                if observation is not None and observation.error is not None:
                    scope.status = "error"
        else:
            auditor.shadow(query, response, self._answer_exact)

    # -- approximate paths ---------------------------------------------
    # The routing itself lives in repro.engine.answering, shared with
    # pinned snapshot views; the engine is one AnswerSource over its
    # live registry and warehouse.

    def lookup_synopsis(
        self, relation: str, attribute: str, role: SynopsisRole
    ) -> object | None:
        """The registered synopsis for a key, or ``None``."""
        return self.registry.lookup(relation, attribute, role)

    def scan_cost(self, relation: str) -> int:
        """Disk accesses a full base-data scan would cost."""
        return self.warehouse.scan_cost(relation)

    def pin_view(self) -> PinnedEngineView:
        """Freeze the current synopsis state into a read-only view.

        The view deep-copies every registered synopsis plus the row
        counts and scan costs, so it keeps answering at this instant's
        ingest epoch while the live engine absorbs further loads --
        the serving layer's read-snapshot isolation.
        """
        from repro.engine.pinned import PinnedEngineView

        return PinnedEngineView.capture(self)

    def _estimate_distinct(self, relation: str, attribute: str) -> float:
        """Best-available distinct-count estimate for a join column."""
        return answering.estimate_distinct_value(self, relation, attribute)

    def _answer_join_size_exact(
        self, query: JoinSizeQuery
    ) -> QueryResponse:
        before = self.warehouse.counters.disk_accesses
        left = self.warehouse.exact_column(
            query.left_relation, query.left_attribute
        )
        right = self.warehouse.exact_column(
            query.right_relation, query.right_attribute
        )
        cost = self.warehouse.counters.disk_accesses - before
        left_values, left_counts = np.unique(left, return_counts=True)
        right_values, right_counts = np.unique(right, return_counts=True)
        _, left_index, right_index = np.intersect1d(
            left_values,
            right_values,
            assume_unique=True,
            return_indices=True,
        )
        size = float(left_counts[left_index] @ right_counts[right_index])
        return QueryResponse(
            answer=size,
            interval=None,
            method="exact-scan",
            is_exact=True,
            disk_accesses=cost,
            exact_cost_estimate=cost,
        )

    def _answer_approximate(self, query: Query) -> QueryResponse:
        return answering.answer_approximate(self, query)

    # -- exact path ------------------------------------------------------

    def _answer_exact(self, query: Query) -> QueryResponse:
        if isinstance(query, JoinSizeQuery):
            return self._answer_join_size_exact(query)
        before = self.warehouse.counters.disk_accesses
        column = self.warehouse.exact_column(query.relation, query.attribute)
        cost = self.warehouse.counters.disk_accesses - before

        if isinstance(query, HotListQuery):
            table = FrequencyTable(column)
            from repro.hotlist.base import HotListEntry

            entries = tuple(
                HotListEntry(value, float(count))
                for value, count in table.top_k(query.k)
            )
            answer: float | HotListAnswer = HotListAnswer(
                k=query.k, entries=entries
            )
        elif isinstance(query, FrequencyQuery):
            answer = float(np.count_nonzero(column == query.value))
        elif isinstance(query, CountQuery):
            mask = (
                query.predicate.mask(column)
                if query.predicate
                else np.ones(len(column), dtype=bool)
            )
            answer = float(mask.sum())
        elif isinstance(query, SumQuery):
            mask = (
                query.predicate.mask(column)
                if query.predicate
                else np.ones(len(column), dtype=bool)
            )
            answer = float(column[mask].sum())
        elif isinstance(query, AverageQuery):
            mask = (
                query.predicate.mask(column)
                if query.predicate
                else np.ones(len(column), dtype=bool)
            )
            matching = column[mask]
            if len(matching) == 0:
                raise ValueError("no row matches the predicate")
            answer = float(matching.mean())
        elif isinstance(query, DistinctCountQuery):
            answer = float(len(np.unique(column)))
        elif isinstance(query, SelectivityQuery):
            if query.predicate is None:
                raise ValueError("selectivity query needs a predicate")
            if len(column) == 0:
                answer = 0.0
            else:
                answer = float(query.predicate.mask(column).mean())
        else:  # pragma: no cover - exhaustive routing guard
            raise TypeError(f"unsupported query {query!r}")

        return QueryResponse(
            answer=answer,
            interval=None,
            method="exact-scan",
            is_exact=True,
            disk_accesses=cost,
            exact_cost_estimate=cost,
        )
