"""One span record and one tracer for every traced op.

The paper has two runtime decisions worth watching: Figure 1's choice
to answer approximately or to have "an exact answer computed from the
base data", and footnote 2's "snapshots and/or logs stored on disk".
Both are traced here, through one :class:`Span` record and one
:class:`Tracer`.

Every op opens a *root* span named for its kind -- ``"query"``,
``"checkpoint"`` or ``"recovery"`` -- carrying a deterministic
``trace_id`` (a per-tracer sequence shared by all root kinds, no
randomness) and the op's own fields.  Phases of the op are *child*
spans under it: ``queue_wait``, ``cache_lookup``, ``synopsis_answer``,
``exact_fallback`` and ``audit_shadow``.  A finished root updates the
metrics exactly once and lands in the tracer's ring buffer, which
:meth:`Tracer.drain` hands off wholesale to a
:class:`~repro.obs.sink.TraceSink`, so every span is exported once.

Callers never read a clock themselves (reprolint RL005/RL009): the
tracer owns an injected :data:`~repro.obs.clock.Clock`; callers hold
the opaque :class:`ActiveTrace` between :meth:`Tracer.start_trace` and
:meth:`ActiveTrace.finish`, and wrap phases in
:meth:`ActiveTrace.child`.  A caller that already holds an open trace
(the server, for a query request) hands it down, so one served query
is one trace.
"""

from __future__ import annotations

import itertools
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs import clock as obs_clock
from repro.obs.metrics import MetricsRegistry, get_registry

__all__ = ["ActiveTrace", "ChildScope", "Span", "Tracer"]

#: Process-wide tracer instance sequence: keeps trace ids unique when
#: several tracers drain into one sink, without any randomness (the
#: ids must be deterministic for a given call sequence -- RL001).
_TRACER_SEQUENCE = itertools.count(1)


@dataclass(frozen=True)
class Span:
    """One traced op (a root) or one phase of it (a child).

    Attributes
    ----------
    trace_id / span_id / parent_id:
        Trace identity: deterministic, sequence-based ids.  Roots have
        span id ``"<trace_id>:0"`` and ``parent_id is None``; children
        are numbered ``1, 2, ...`` in execution order.
    name:
        Root kind (``"query"``, ``"checkpoint"``, ``"recovery"``) or
        phase name.
    duration_seconds:
        Wall time by the tracer's injected clock.
    status:
        ``"ok"``, or the exception class name when the op raised.
        Phases report their own outcome (cache lookups use ``"hit"`` /
        ``"miss"`` / ``"invalidated"``, failed phases ``"error"``).
    fields:
        The op's own fields, flattened into :meth:`to_dict`.  A query
        root has ``query, relation, attribute, method, is_exact,
        requested_exact, answer, interval_low, interval_high,
        confidence, exact_cost_estimate, error, cache,
        result_cardinality, top_value, top_count``; a checkpoint or
        recovery root has ``sequence, replayed_operations,
        checkpoint_sequence, torn_tail_dropped``.  Children have none.
    children:
        A root's phase spans, in execution order.
    """

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    duration_seconds: float
    status: str
    fields: dict[str, Any] = field(default_factory=dict)
    children: tuple[Span, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        """The span as one flat JSON-able record.

        Children are *not* inlined: sinks export them as separate
        flat records keyed by ``trace_id``/``parent_id``, and
        :func:`repro.obs.sink.span_tree` reassembles the tree.
        """
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "duration_seconds": self.duration_seconds,
            "status": self.status,
            **self.fields,
        }


class ChildScope:
    """Mutable handle yielded by :meth:`ActiveTrace.child`.

    The caller sets :attr:`status` before the scope closes (cache
    outcome, audit failure); an exception escaping the scope forces
    ``"error"``.
    """

    __slots__ = ("status",)

    def __init__(self) -> None:
        self.status = "ok"


def _answer_summary(
    answer: Any,
) -> tuple[int | None, int | None, float | None]:
    """Cardinality and top item of a structured (hot-list) answer.

    Duck-typed on ``entries`` so the obs layer never imports
    ``repro.hotlist``; scalar answers return all-``None``.
    """
    entries = getattr(answer, "entries", None)
    if entries is None:
        return None, None, None
    if not entries:
        return 0, None, None
    top = entries[0]
    return len(entries), int(top.value), float(top.estimated_count)


def _query_target(query: Any) -> tuple[str, str]:
    if query is None:
        return "?", "?"
    relation = getattr(query, "relation", None)
    if relation is not None:
        return str(relation), str(getattr(query, "attribute", ""))
    # Join queries carry two sides.
    left = getattr(query, "left_relation", "?")
    right = getattr(query, "right_relation", "?")
    left_attr = getattr(query, "left_attribute", "?")
    right_attr = getattr(query, "right_attribute", "?")
    return f"{left}*{right}", f"{left_attr}*{right_attr}"


class ActiveTrace:
    """An open root span: identity, start time, op fields, children.

    Created by :meth:`Tracer.start_trace`, it carries its tracer, so
    whoever holds it can add phases (:meth:`child`), record the op's
    outcome (:meth:`record_query`) and close it (:meth:`finish`).
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "started",
        "status",
        "fields",
        "children",
        "_tracer",
        "_next",
    )

    def __init__(
        self, tracer: Tracer, name: str, trace_id: str, started: float
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = f"{trace_id}:0"
        self.started = started
        self.status = "ok"
        self.fields: dict[str, Any] = {}
        self.children: list[Span] = []
        self._tracer = tracer
        self._next = 1

    @contextmanager
    def child(self, name: str) -> Iterator[ChildScope]:
        """Record one phase of the op as a child span.

        The yielded :class:`ChildScope` lets the caller set a phase
        status; exceptions escaping the scope mark the child
        ``"error"`` and propagate.
        """
        clock = self._tracer._clock
        scope = ChildScope()
        started = clock()
        try:
            yield scope
        except BaseException:
            scope.status = "error"
            raise
        finally:
            self.children.append(
                Span(
                    trace_id=self.trace_id,
                    span_id=f"{self.trace_id}:{self._next}",
                    parent_id=self.span_id,
                    name=name,
                    duration_seconds=max(0.0, clock() - started),
                    status=scope.status,
                )
            )
            self._next += 1

    def record_query(
        self,
        query: Any,
        response: Any = None,
        *,
        error: BaseException | None = None,
        requested_exact: bool = False,
        cache: str | None = None,
    ) -> None:
        """Set a query root's fields from its response or its error.

        ``query`` is ``None`` when the request failed before a query
        could be decoded.
        """
        relation, attribute = _query_target(query)
        name = type(query).__name__ if query is not None else "?"
        if error is not None:
            self.status = type(error).__name__
            response = None
        interval = getattr(response, "interval", None)
        answer = getattr(response, "answer", None)
        cardinality, top_value, top_count = _answer_summary(answer)
        self.fields = {
            "query": name,
            "relation": relation,
            "attribute": attribute,
            "method": (
                "error"
                if error is not None
                else str(getattr(response, "method", "unknown"))
            ),
            "is_exact": bool(getattr(response, "is_exact", False)),
            "requested_exact": requested_exact,
            "answer": (
                float(answer) if isinstance(answer, (int, float)) else None
            ),
            "interval_low": (
                float(interval.low) if interval is not None else None
            ),
            "interval_high": (
                float(interval.high) if interval is not None else None
            ),
            "confidence": (
                float(interval.confidence) if interval is not None else None
            ),
            "exact_cost_estimate": int(
                getattr(response, "exact_cost_estimate", 0)
            ),
            "error": self.status if error is not None else None,
            "cache": cache,
            "result_cardinality": cardinality,
            "top_value": top_value,
            "top_count": top_count,
        }

    def finish(self, status: str | None = None, **fields: Any) -> Span:
        """Close the root, export its metrics once, and buffer it.

        ``status`` and ``fields``, when given, are recorded first.
        """
        if status is not None:
            self.status = status
        self.fields.update(fields)
        return self._tracer._close(self)


class Tracer:
    """Spans for queries, checkpoints and recoveries, plus metrics.

    Parameters
    ----------
    registry:
        Metrics sink; defaults to the process-wide active registry
        (a no-op registry unless observability was enabled).
    clock:
        Injected monotonic clock; tests pass a
        :class:`~repro.obs.clock.FakeClock`.
    max_spans:
        Ring-buffer capacity for :meth:`spans`.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        *,
        clock: obs_clock.Clock = obs_clock.monotonic,
        max_spans: int = 256,
    ) -> None:
        self._registry = registry if registry is not None else get_registry()
        self._clock = clock
        self._spans: deque[Span] = deque(maxlen=max_spans)
        self._prefix = f"t{next(_TRACER_SEQUENCE)}"
        self._trace_counter = itertools.count(1)

    def start_trace(self, name: str = "query") -> ActiveTrace:
        """Open a root span of kind ``name``."""
        trace_id = f"{self._prefix}-{next(self._trace_counter):08d}"
        return ActiveTrace(self, name, trace_id, self._clock())

    def spans(self) -> tuple[Span, ...]:
        """The most recent root spans, oldest first."""
        return tuple(self._spans)

    def drain(self) -> tuple[Span, ...]:
        """Hand the buffered root spans off and clear the ring buffer.

        The single-export handoff used by
        :meth:`repro.obs.sink.TraceSink.drain`: a span returned here is
        gone from the tracer, so repeated drains never double-export.
        """
        spans = tuple(self._spans)
        self._spans.clear()
        return spans

    # -- internals ------------------------------------------------------

    def _close(self, trace: ActiveTrace) -> Span:
        span = Span(
            trace_id=trace.trace_id,
            span_id=trace.span_id,
            parent_id=None,
            name=trace.name,
            duration_seconds=max(0.0, self._clock() - trace.started),
            status=trace.status,
            fields=dict(trace.fields),
            children=tuple(trace.children),
        )
        self._spans.append(span)
        self._export(span)
        return span

    def _export(self, span: Span) -> None:
        registry = self._registry
        fields = span.fields
        if span.name == "query":
            query = fields["query"]
            registry.counter(
                "repro_queries_total",
                "Engine queries answered, by query type, path, and exactness",
                {
                    "query": query,
                    "method": fields["method"],
                    "exact": "true" if fields["is_exact"] else "false",
                },
            ).inc()
            registry.histogram(
                "repro_query_seconds",
                "Estimator latency per engine query",
                {"query": query},
            ).observe(span.duration_seconds)
            if fields["requested_exact"]:
                registry.counter(
                    "repro_exact_fallbacks_total",
                    "Queries where the caller demanded the exact fallback",
                    {"query": query},
                ).inc()
            if fields["error"] is not None:
                registry.counter(
                    "repro_query_errors_total",
                    "Engine queries that raised",
                    {"query": query, "error": fields["error"]},
                ).inc()
        elif span.name == "checkpoint":
            registry.counter(
                "repro_checkpoints_total",
                "Checkpoint attempts, by outcome",
                {"outcome": span.status},
            ).inc()
            registry.histogram(
                "repro_checkpoint_seconds",
                "Wall time per checkpoint write",
            ).observe(span.duration_seconds)
        elif span.name == "recovery":
            registry.counter(
                "repro_recovery_runs_total",
                "Recovery attempts, by outcome",
                {"outcome": span.status},
            ).inc()
            registry.histogram(
                "repro_recovery_seconds",
                "Wall time per recovery (snapshot load plus log replay)",
            ).observe(span.duration_seconds)
            registry.counter(
                "repro_recovery_replayed_operations_total",
                "WAL operations replayed on top of checkpoints",
            ).inc(fields["replayed_operations"])
            if fields["torn_tail_dropped"]:
                registry.counter(
                    "repro_recovery_torn_tails_total",
                    "Recoveries that dropped and repaired a torn WAL tail",
                ).inc()
