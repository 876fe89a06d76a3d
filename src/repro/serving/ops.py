"""The backend operations shared by the AQP server and the shard worker.

:class:`Operations` owns one warehouse, its engine and (optionally) the
:class:`~repro.persist.recovery.RecoveryManager` that makes them
durable, and serves the op table :data:`OPS` over them.  Both network
fronts run their ops through it:

* :class:`~repro.serving.server.AQPServer` serves ``create_relation``,
  ``ingest`` and ``stats`` from the table and answers ``query`` with the
  same checks, adding only what is its own -- sessions, pinned/live
  mode, admission, draining and tracing;
* the shard worker (:mod:`repro.cluster.worker`) serves the whole table
  from its blocking loop.

So there is one set of parameter checks, one exception -> error-code
map (:func:`describe_error`) and one decoder of ingest columns
(:func:`decode_ingest_columns`).  Ingest columns use the format of
:mod:`repro.persist.columns`, the batch WAL record's format: binary
integer columns (``{attribute: <int8..int64 array>}``, carried in the
frame's binary section), or tagged lists ``{attribute: {"kind": "int",
"values": [...]}}``.  Only integer columns are accepted.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.core.concise import ConciseSample
from repro.core.counting import CountingSample
from repro.engine.answering import NoSynopsisError
from repro.engine.engine import ApproximateAnswerEngine
from repro.engine.queries import Query
from repro.engine.registry import HOTLIST, SAMPLE
from repro.engine.relation import RelationError
from repro.engine.snapshots import Snapshotable, snapshot_synopsis
from repro.engine.warehouse import DataWarehouse
from repro.hotlist.concise import ConciseHotList
from repro.hotlist.counting import CountingHotList
from repro.persist.columns import decode_columns
from repro.persist.recovery import RecoveryManager
from repro.serving import codec
from repro.serving.protocol import (
    BAD_REQUEST,
    INTERNAL,
    NO_SYNOPSIS,
    QUERY_ERROR,
    ProtocolError,
)

__all__ = [
    "OPS",
    "Operations",
    "decode_ingest_columns",
    "decode_query",
    "describe_error",
    "flag",
    "string",
]

#: ``register_synopsis`` kinds: (sample type, hot-list reporter type).
_Kind = tuple[Callable[..., Snapshotable], Callable[..., ConciseHotList | CountingHotList]]
_KINDS: dict[str, _Kind] = {
    "concise-sample": (ConciseSample, ConciseHotList),
    "counting-sample": (CountingSample, CountingHotList),
}


def describe_error(error: Exception) -> tuple[str, str]:
    """The ``(code, message)`` of the failure envelope for an error."""
    if isinstance(error, ProtocolError):
        return error.code, error.message
    if isinstance(error, NoSynopsisError):
        return NO_SYNOPSIS, str(error)
    if isinstance(error, (ValueError, RelationError)):
        return QUERY_ERROR, str(error)
    return INTERNAL, f"{type(error).__name__}: {error}"


def string(params: dict[str, Any], key: str) -> str:
    """A required non-empty string param."""
    value = params.get(key)
    if not isinstance(value, str) or not value:
        raise ProtocolError(
            BAD_REQUEST, f"{key!r} must be a non-empty string"
        )
    return value


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def flag(params: dict[str, Any], key: str) -> bool:
    """An optional boolean param (absent means false)."""
    value = params.get(key, False)
    if not isinstance(value, bool):
        raise ProtocolError(BAD_REQUEST, f"{key!r} must be true or false")
    return value


def decode_query(payload: Any) -> Query:
    """A wire query, or ``bad-request`` when it does not decode."""
    try:
        return codec.decode_query(payload)
    except ValueError as error:
        raise ProtocolError(BAD_REQUEST, str(error)) from error


def decode_ingest_columns(payload: Any) -> dict[str, np.ndarray]:
    """The ingest ``columns`` param as equal-length ``int64`` arrays."""
    if not isinstance(payload, dict) or not payload:
        raise ProtocolError(
            BAD_REQUEST, "'columns' must be a non-empty object"
        )
    for attribute, column in payload.items():
        if isinstance(column, np.ndarray):
            # As with lists, an empty column passes: a list of no
            # values encodes as an empty float array.
            integral = column.dtype.kind == "i" or not len(column)
        else:
            integral = isinstance(column, dict) and column.get("kind") == "int"
        if not integral:
            raise ProtocolError(
                BAD_REQUEST,
                f"column {attribute!r} must be a binary or tagged integer "
                "column",
            )
    try:
        return decode_columns(payload)
    except (TypeError, ValueError, OverflowError) as error:
        raise ProtocolError(
            BAD_REQUEST, f"bad ingest columns: {error}"
        ) from error


class Operations:
    """The op table's backend: a warehouse, its engine, a manager.

    Handlers read ``self.warehouse`` and ``self.engine`` on every call,
    so a wrapper installed on either object later still sees the
    traffic.  ``register_synopsis``, ``synopsis`` and ``checkpoint``
    need the manager.
    """

    def __init__(
        self,
        warehouse: DataWarehouse,
        engine: ApproximateAnswerEngine,
        manager: RecoveryManager | None = None,
    ) -> None:
        self.warehouse = warehouse
        self.engine = engine
        self.manager = manager

    def call(self, op: str, params: dict[str, Any]) -> dict[str, Any]:
        """Run one op of :data:`OPS`; the caller maps what it raises
        with :func:`describe_error`."""
        handler = OPS.get(op)
        if handler is None:
            raise ProtocolError(BAD_REQUEST, f"unknown op {op!r}")
        return handler(self, params)

    def _durable(self) -> RecoveryManager:
        if self.manager is None:
            raise ProtocolError(BAD_REQUEST, "no recovery manager")
        return self.manager

    def create_relation(self, params: dict[str, Any]) -> dict[str, Any]:
        relation = string(params, "relation")
        attributes = params.get("attributes")
        if not isinstance(attributes, list) or not all(
            isinstance(attribute, str) and attribute
            for attribute in attributes
        ):
            raise ProtocolError(
                BAD_REQUEST, "'attributes' must be a list of strings"
            )
        self.warehouse.create_relation(relation, attributes)
        return {"relation": relation}

    def register_synopsis(self, params: dict[str, Any]) -> dict[str, Any]:
        """A sample (and with ``hotlist`` a hot list) on one attribute.

        Every parameter is checked before the engine or the manager is
        touched, so a refused request leaves nothing registered.
        """
        manager = self._durable()
        relation = string(params, "relation")
        attribute = string(params, "attribute")
        kind = string(params, "kind")
        if kind not in _KINDS:
            raise ProtocolError(BAD_REQUEST, f"unknown synopsis kind {kind!r}")
        bound = params.get("footprint_bound")
        if not _is_int(bound) or bound <= 0:
            raise ProtocolError(
                BAD_REQUEST, "'footprint_bound' must be a positive integer"
            )
        hotlist = flag(params, "hotlist")
        seeds = params.get("seeds")
        needed = 2 if hotlist else 1
        if not isinstance(seeds, list) or len(seeds) < needed or not all(
            _is_int(seed) for seed in seeds
        ):
            raise ProtocolError(
                BAD_REQUEST, f"'seeds' must list at least {needed} integers"
            )
        self.warehouse.relation(relation).attribute_index(attribute)
        sample_type, reporter_type = _KINDS[kind]
        sample = sample_type(bound, seed=seeds[0])
        # The engine refuses a second sample on the attribute before
        # anything is registered; a sample-less hot list cannot exist.
        self.engine.register_sample(relation, attribute, sample)
        manager.bind(relation, attribute, sample, role=SAMPLE)
        if hotlist:
            reporter = reporter_type(bound, seed=seeds[1])
            self.engine.register_hotlist(relation, attribute, reporter)
            manager.bind(relation, attribute, reporter.sample, role=HOTLIST)
        # Bindings become durable with the checkpoint; without it a
        # crash before the first post-registration checkpoint would
        # recover relations but silently drop the synopses.
        return {"sequence": manager.checkpoint()}

    def ingest(self, params: dict[str, Any]) -> dict[str, Any]:
        relation = string(params, "relation")
        columns = decode_ingest_columns(params.get("columns"))
        # The ack: load_batch returned, so the relation, every
        # registered synopsis, and (when a recovery manager observes
        # the warehouse) the WAL have all absorbed the batch.
        return {"rows": self.warehouse.load_batch(relation, columns)}

    def query(self, params: dict[str, Any]) -> dict[str, Any]:
        query = decode_query(params.get("query"))
        exact = flag(params, "exact")
        response = self.engine.answer(query, exact=exact)
        relation = getattr(query, "relation", None)
        return {
            "response": codec.encode_response(response),
            "relation_rows": (
                self.engine.rows_loaded(relation)
                if relation is not None
                else 0
            ),
        }

    def query_batch(self, params: dict[str, Any]) -> dict[str, Any]:
        queries = params.get("queries")
        if not isinstance(queries, list):
            raise ProtocolError(BAD_REQUEST, "'queries' must be a list")
        return {
            "answers": [self.query({"query": query}) for query in queries]
        }

    def synopsis(self, params: dict[str, Any]) -> dict[str, Any]:
        """The snapshot of one bound synopsis, selected by its role."""
        relation = string(params, "relation")
        attribute = string(params, "attribute")
        role = params.get("role", SAMPLE)
        if role not in (SAMPLE, HOTLIST):
            raise ProtocolError(
                BAD_REQUEST, f"'role' must be {SAMPLE} or {HOTLIST}"
            )
        for binding in self._durable().bindings:
            if (binding.relation, binding.attribute, binding.role) == (
                relation,
                attribute,
                role,
            ):
                return {"state": snapshot_synopsis(binding.synopsis)}
        raise NoSynopsisError(
            f"no {role} synopsis bound for {relation}.{attribute}"
        )

    def stats(self, params: dict[str, Any]) -> dict[str, Any]:
        names = self.warehouse.relation_names()
        result: dict[str, Any] = {
            "relations": {
                name: self.warehouse.relation(name).size for name in names
            },
            "rows": {name: self.engine.rows_loaded(name) for name in names},
        }
        if self.manager is not None:
            result["sequence"] = self.manager.sequence
            result["bindings"] = len(self.manager.bindings)
        return result

    def checkpoint(self, params: dict[str, Any]) -> dict[str, Any]:
        return {"sequence": self._durable().checkpoint()}


#: The op table: op name -> handler.
OPS: dict[str, Callable[[Operations, dict[str, Any]], dict[str, Any]]] = {
    "create_relation": Operations.create_relation,
    "register_synopsis": Operations.register_synopsis,
    "ingest": Operations.ingest,
    "query": Operations.query,
    "query_batch": Operations.query_batch,
    "synopsis": Operations.synopsis,
    "stats": Operations.stats,
    "checkpoint": Operations.checkpoint,
}
