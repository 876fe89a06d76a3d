"""The approximate answer engine set-up of the paper's Figure 2.

New data loaded into the warehouse "is also observed by an approximate
answer engine.  This engine maintains various summary statistics ...
Queries are sent to the approximate answer engine.  Whenever possible,
the engine uses its synopses to promptly return a query response,
consisting of an approximate answer and an accuracy measure."

* :class:`~repro.engine.relation.Relation` and
  :class:`~repro.engine.warehouse.DataWarehouse` -- the (simulated)
  base-data store, with disk-access accounting.
* :class:`~repro.engine.engine.ApproximateAnswerEngine` -- observes
  warehouse loads, maintains registered synopses within a memory
  budget, and answers queries without touching base data (falling back
  to an exact scan only on request).
* :mod:`~repro.engine.queries` / :mod:`~repro.engine.responses` -- the
  query and response types.
"""

from repro.engine.cache import QueryResultCache
from repro.engine.composite import (
    composite_name,
    decode_composite,
    decode_composite_answer,
    encode_composite,
)
from repro.engine.answering import NoSynopsisError
from repro.engine.engine import ApproximateAnswerEngine
from repro.engine.pinned import PinnedEngineView
from repro.engine.policy import (
    AnswerPolicy,
    PolicyDecision,
    answer_with_policy,
)
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
from repro.engine.registry import BudgetExceeded, SynopsisRegistry
from repro.engine.relation import Relation
from repro.engine.responses import QueryResponse
from repro.engine.snapshots import restore_synopsis, snapshot_synopsis
from repro.engine.warehouse import DataWarehouse

__all__ = [
    "AnswerPolicy",
    "ApproximateAnswerEngine",
    "AverageQuery",
    "BudgetExceeded",
    "CountQuery",
    "DataWarehouse",
    "DistinctCountQuery",
    "FrequencyQuery",
    "HotListQuery",
    "JoinSizeQuery",
    "NoSynopsisError",
    "PinnedEngineView",
    "PolicyDecision",
    "Query",
    "answer_with_policy",
    "QueryResponse",
    "QueryResultCache",
    "Relation",
    "SelectivityQuery",
    "SumQuery",
    "SynopsisRegistry",
    "composite_name",
    "decode_composite",
    "decode_composite_answer",
    "encode_composite",
    "restore_synopsis",
    "snapshot_synopsis",
]
