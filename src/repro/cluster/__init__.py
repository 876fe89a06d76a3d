"""Multi-process sharded warehouse (scatter/gather over framed IPC).

The paper's Theorem-2/5 subsample merges (:mod:`repro.core.merge`)
make concise and counting synopses losslessly mergeable.  This package
runs the BlinkDB-style shape across *processes*: ``k`` warehouse
shards, each a worker process owning its own WAL/checkpoint directory
through the existing :mod:`repro.persist` stack, coordinated by a
:class:`~repro.cluster.coordinator.ShardedWarehouse` front that
scatters value-hash-partitioned ingest batches, gathers per-shard
synopsis answers, and merges them.

Failover is part of the contract: the coordinator detects a dead
shard, respawns it (the worker replays its own WAL via
:class:`~repro.persist.recovery.RecoveryManager`), and keeps serving
from the survivors in degraded mode -- every answer carries a
``shards_responding/shards_total`` pair so intervals stay honest.
"""

from repro.cluster.coordinator import ShardedWarehouse
from repro.cluster.errors import (
    ClusterError,
    ShardCrashed,
    ShardUnavailable,
)
from repro.cluster.gather import ClusterAnswer
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.partition import (
    partition_columns,
    partition_keys,
    shard_of_keys,
    shard_of_value,
)
from repro.cluster.worker import ShardConfig

__all__ = [
    "ClusterAnswer",
    "ClusterError",
    "ClusterMetrics",
    "ShardConfig",
    "ShardCrashed",
    "ShardUnavailable",
    "ShardedWarehouse",
    "partition_columns",
    "partition_keys",
    "shard_of_keys",
    "shard_of_value",
]
