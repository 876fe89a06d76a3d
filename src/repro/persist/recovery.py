"""The recovery manager: snapshot + log-suffix replay (footnote 2).

The paper's footnote 2 prescribes "combinations of snapshots and/or
logs stored on disk" for persistence; :class:`RecoveryManager` is that
combination made operational.  On the live side it taps the
warehouse's load stream (Figure 2) and appends one durable WAL record
per acknowledged operation; :meth:`RecoveryManager.checkpoint`
atomically snapshots the warehouse and every bound synopsis, rotates
the log, and garbage-collects what the snapshot covers.  After a
crash, :meth:`RecoveryManager.recover` rebuilds the exact
pre-crash state: load the newest checkpoint, replay the WAL suffix
into the relations *and* the bound synopses (Theorem 5's
insert/delete replay), and repair any tolerated torn tail.

The durability contract (with ``sync_every=1``):

* an operation is **acknowledged** when the warehouse call returns,
  which happens only after its WAL record's fsync point;
* recovery restores a prefix of the attempted operations that
  includes every acknowledged one -- at most the single in-flight
  record may be lost (torn tail) or silently present (crash after the
  write, before the acknowledgment reached the caller);
* corruption and gaps never produce a silently wrong sample: they
  raise the typed errors of :mod:`repro.persist.errors`.

Restored synopses are *statistically* equivalent, not bitwise: they
carry the same sample + threshold state but a fresh RNG stream
(Theorem 2's induction is over the invariant state, not the
generator).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.engine.relation import Relation
from repro.engine.snapshots import (
    Snapshotable,
    restore_synopsis,
    snapshot_synopsis,
)
from repro.engine.warehouse import DataWarehouse
from repro.obs.tracing import Tracer
from repro.persist.checkpoint import CheckpointStore
from repro.persist.columns import decode_columns, encode_columns
from repro.persist.errors import LogGapError, ReplayError
from repro.persist.framing import TornTail
from repro.persist.wal import read_operations, record_range
from repro.randkit.rng import ReproRandom

__all__ = ["RecoveredState", "RecoveryManager", "SynopsisBinding"]


class _WarehouseTap:
    """The manager's load-stream observer, row- and batch-capable.

    A plain bound method cannot expose the ``observe_batch`` attribute
    :meth:`DataWarehouse.load_batch` probes for, so the manager
    subscribes this small forwarding object instead: per-row events go
    to ``RecoveryManager._observe`` (one ``op`` record each) and whole
    batches to ``RecoveryManager._observe_batch`` (one columnar
    ``batch`` record, one buffered write, one fsync point).
    """

    __slots__ = ("_manager",)

    def __init__(self, manager: "RecoveryManager") -> None:
        self._manager = manager

    def __call__(
        self, relation: str, row: tuple, is_insert: bool
    ) -> None:
        self._manager._observe(relation, row, is_insert)

    def observe_batch(
        self, relation: str, columns: Mapping[str, np.ndarray]
    ) -> None:
        self._manager._observe_batch(relation, columns)


@dataclass(frozen=True)
class SynopsisBinding:
    """One synopsis fed by one attribute of one relation.

    ``role`` says what the synopsis serves: ``"sample"`` (aggregates)
    or ``"hotlist"`` (a hot-list reporter's backing sample).
    """

    relation: str
    attribute: str
    synopsis: Snapshotable
    role: str = "sample"


@dataclass
class RecoveredState:
    """What :meth:`RecoveryManager.recover` rebuilt.

    Attributes
    ----------
    warehouse:
        The restored base data.
    synopses:
        ``(relation, attribute) -> synopsis`` for every binding the
        checkpoint carried.
    sequence:
        The last operation sequence applied (checkpoint + replay).
    replayed:
        How many WAL records were replayed on top of the snapshot.
    checkpoint_sequence:
        The snapshot's sequence (-1 when no checkpoint existed).
    torn_tail:
        The tolerated-and-repaired torn tail, if recovery dropped one.
    """

    warehouse: DataWarehouse
    synopses: dict[tuple[str, str], Snapshotable] = field(
        default_factory=dict
    )
    sequence: int = 0
    replayed: int = 0
    checkpoint_sequence: int = -1
    torn_tail: TornTail | None = None

    def synopsis(self, relation: str, attribute: str) -> Snapshotable:
        """Look up one restored synopsis."""
        return self.synopses[(relation, attribute)]


class RecoveryManager:
    """Durable WAL tap + checkpointing + recovery over one store.

    Parameters
    ----------
    store:
        The durable state (checkpoint files + WAL directory).
    tracer:
        Recovery-path observability; defaults to a tracer on the
        process-wide registry (a no-op unless obs was enabled).
    """

    def __init__(
        self,
        store: CheckpointStore,
        *,
        tracer: Tracer | None = None,
    ) -> None:
        self._store = store
        self._tracer = tracer if tracer is not None else Tracer()
        self._warehouse: DataWarehouse | None = None
        self._tap = _WarehouseTap(self)
        self._bindings: list[SynopsisBinding] = []
        self._sequence = 0  # last acknowledged operation sequence
        # Relations the open WAL segment carries a schema record for;
        # an op on any other relation writes its schema first.
        self._segment_relations: set[str] = set()

    @property
    def store(self) -> CheckpointStore:
        """The durable store this manager writes to."""
        return self._store

    @property
    def sequence(self) -> int:
        """The last acknowledged operation sequence."""
        return self._sequence

    @property
    def bindings(self) -> tuple[SynopsisBinding, ...]:
        """The registered synopsis bindings."""
        return tuple(self._bindings)

    # ------------------------------------------------------------------
    # Live side: tap the load stream, write the WAL
    # ------------------------------------------------------------------

    def attach(self, warehouse: DataWarehouse) -> None:
        """Subscribe to a warehouse's load stream and open the WAL.

        Every subsequent load operation is appended to the WAL before
        the warehouse call returns: one ``op`` record per row event,
        or one columnar ``batch`` record per whole
        :meth:`~repro.engine.warehouse.DataWarehouse.load_batch` call
        (the durable batch-ingest fast path -- a single buffered write
        regardless of batch size).

        The store's ``sync_every`` dial trades throughput for
        durability.  At ``sync_every=1`` (the default) every record
        reaches its fsync point before the warehouse call returns --
        the acknowledgment point of the durability contract -- which
        for *per-row* ingest costs one fsync per row; a whole batch is
        one record, so batch ingest pays one fsync per batch at the
        very same durability.  With group commit (``sync_every=k``)
        fsyncs amortise over ``k`` records and a crash may lose up to
        the last ``k-1`` acknowledged records; the recovered state is
        still a consistent prefix.
        """
        if self._warehouse is not None:
            raise RuntimeError("already attached to a warehouse")
        self._warehouse = warehouse
        if self._store.wal.open_base is None:
            self._store.wal.open_segment(self._sequence + 1)
        self._append_schema()
        warehouse.add_observer(self._tap)

    def _append_schema(self) -> None:
        """Write the relation schemas into the open segment.

        Makes every segment self-describing, so a crash *before the
        first checkpoint* is still recoverable: replay can re-create
        the relations from the WAL alone.  Relations created after
        :meth:`attach` are described lazily by :meth:`_observe` at
        their first logged operation.
        """
        if self._warehouse is None:
            return
        relations = {
            name: list(self._warehouse.relation(name).attributes)
            for name in self._warehouse.relation_names()
        }
        self._segment_relations = set(relations)
        if relations:
            self._store.wal.append(
                {"kind": "schema", "relations": relations}
            )

    def _append_schema_for(self, relation: str) -> None:
        """Describe one late-created relation in the open segment.

        A relation created after :meth:`attach` (or after the last
        checkpoint rotation) has no schema record yet; its first
        operation must not become durable before the schema that makes
        it replayable, or recovery of the whole store would fail with
        a :class:`~repro.persist.errors.ReplayError`.
        """
        if self._warehouse is None:
            return
        attributes = list(self._warehouse.relation(relation).attributes)
        self._store.wal.append(
            {"kind": "schema", "relations": {relation: attributes}}
        )
        self._segment_relations.add(relation)

    def drain(self) -> None:
        """Force every buffered WAL record to stable storage.

        The serving layer's graceful-shutdown hook: with
        ``sync_every > 1`` the group-commit buffer may hold acked-ish
        records that are not yet durable; draining syncs them without
        closing the segment, so the manager keeps logging if shutdown
        is aborted.
        """
        self._store.wal.sync()

    def detach(self) -> None:
        """Unsubscribe and close the open WAL segment."""
        if self._warehouse is not None:
            self._warehouse.remove_observer(self._tap)
            self._warehouse = None
        self._store.wal.close()

    def _observe(self, relation: str, row: tuple, is_insert: bool) -> None:
        if relation not in self._segment_relations:
            self._append_schema_for(relation)
        sequence = self._sequence + 1
        self._store.wal.append(
            {
                "kind": "op",
                "sequence": sequence,
                "relation": relation,
                "row": list(row),
                "insert": is_insert,
            }
        )
        self._sequence = sequence

    def _observe_batch(
        self, relation: str, columns: Mapping[str, np.ndarray]
    ) -> None:
        """Log one whole load batch as a single columnar WAL record.

        The record carries the batch's ``[first_sequence,
        last_sequence]`` range and every attribute as a dtype-tagged
        column, so replay can rebuild the arrays and drive the
        vectorized ingest paths.  A late-created relation's schema
        record rides in the same buffered write, keeping the
        "schema durable no later than its first op" invariant at one
        write and one fsync point for the whole batch.
        """
        length = len(next(iter(columns.values()))) if columns else 0
        if length == 0:
            return
        records: list[dict[str, Any]] = []
        described = relation in self._segment_relations
        if not described and self._warehouse is not None:
            attributes = list(
                self._warehouse.relation(relation).attributes
            )
            records.append(
                {"kind": "schema", "relations": {relation: attributes}}
            )
        first = self._sequence + 1
        last = self._sequence + length
        records.append(
            {
                "kind": "batch",
                "first_sequence": first,
                "last_sequence": last,
                "relation": relation,
                "columns": encode_columns(columns),
            }
        )
        self._store.wal.append_many(records)
        if not described:
            self._segment_relations.add(relation)
        self._sequence = last

    def bind(
        self,
        relation: str,
        attribute: str,
        synopsis: Snapshotable,
        *,
        role: str = "sample",
    ) -> SynopsisBinding:
        """Register a synopsis for checkpointing and replay.

        Bindings, roles included, live in the checkpoint payload: a
        binding made after the last checkpoint is not yet durable, so
        checkpoint soon after binding.
        """
        binding = SynopsisBinding(relation, attribute, synopsis, role)
        self._bindings.append(binding)
        return binding

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------

    def checkpoint(self, *, keep: int = 1) -> int:
        """Snapshot everything, rotate the WAL, collect garbage.

        Returns the checkpoint's sequence.  The order is the classic
        one: sync the log, write the snapshot atomically, *then* drop
        the log prefix and older snapshots the new snapshot covers --
        a crash between any two steps leaves a recoverable store.
        """
        if self._warehouse is None:
            raise RuntimeError("attach a warehouse before checkpointing")
        trace = self._tracer.start_trace("checkpoint")
        sequence = self._sequence
        try:
            state = {
                "relations": {
                    name: self._warehouse.relation(name).to_dict()
                    for name in self._warehouse.relation_names()
                },
                "synopses": [
                    {
                        "relation": binding.relation,
                        "attribute": binding.attribute,
                        "role": binding.role,
                        "state": snapshot_synopsis(binding.synopsis),
                    }
                    for binding in self._bindings
                ],
            }
            self._store.wal.sync()
            self._store.write_checkpoint(sequence, state)
            self._store.wal.open_segment(sequence + 1)
            self._append_schema()
            self._store.wal.truncate_through(sequence)
            self._store.prune_checkpoints(keep=keep)
            self._store.remove_temporaries()
        except BaseException as error:
            trace.status = type(error).__name__
            raise
        finally:
            trace.finish(
                sequence=sequence,
                replayed_operations=0,
                checkpoint_sequence=sequence,
                torn_tail_dropped=False,
            )
        return sequence

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover(
        self,
        *,
        seed: int,
        tolerate_torn_tail: bool = True,
    ) -> RecoveredState:
        """Rebuild warehouse + synopses as snapshot + log-suffix replay.

        ``seed`` re-seeds the restored synopses' randomness (their
        invariant sample/threshold state comes from the snapshot).
        With ``tolerate_torn_tail`` (the default), a torn record at
        the physical tail of the last WAL segment is dropped, reported
        on the result, and the damaged segment truncated to its clean
        prefix; in strict mode it raises
        :class:`~repro.persist.errors.TornWriteError`.

        Any corruption, gap, or replay inconsistency raises a typed
        :class:`~repro.persist.errors.RecoveryError` -- partial state
        is never returned.
        """
        trace = self._tracer.start_trace("recovery")
        try:
            state = self._recover(seed=seed, tolerate=tolerate_torn_tail)
        except Exception as error:
            trace.finish(
                type(error).__name__,
                sequence=self._sequence,
                replayed_operations=0,
                checkpoint_sequence=-1,
                torn_tail_dropped=False,
            )
            raise
        trace.finish(
            sequence=state.sequence,
            replayed_operations=state.replayed,
            checkpoint_sequence=state.checkpoint_sequence,
            torn_tail_dropped=state.torn_tail is not None,
        )
        return state

    def _recover(self, *, seed: int, tolerate: bool) -> RecoveredState:
        store = self._store
        store.wal.close()  # recovery reads segments, never appends

        latest = store.latest_checkpoint()  # errors propagate: no fallback
        checkpoint_sequence = latest[0] if latest is not None else -1
        snapshot = latest[1] if latest is not None else {}

        operations, schemas, torn = read_operations(
            store.filesystem,
            store.wal.directory,
            tolerate_torn_tail=tolerate,
        )

        base_sequence = max(checkpoint_sequence, 0)
        suffix = []
        for operation in operations:
            covered = record_range(operation)
            if covered is None or covered[1] <= base_sequence:
                continue
            suffix.append(operation)
        if suffix:
            first = record_range(suffix[0])
            assert first is not None
            # A batch record straddling the checkpoint boundary is
            # tolerated by slicing during replay, so contiguity only
            # requires the first surviving record to *cover* or abut
            # the checkpoint sequence.
            if first[0] > base_sequence + 1:
                raise LogGapError(
                    base_sequence + 1, first[0], source="recovery"
                )

        warehouse = DataWarehouse()
        for payload in snapshot.get("relations", {}).values():
            warehouse.attach_relation(Relation.from_dict(payload))
        for name, attributes in schemas.items():
            # Relations the WAL knows but the checkpoint predates
            # (or there is no checkpoint at all).
            if name not in warehouse.relation_names():
                warehouse.create_relation(name, attributes)

        rng = ReproRandom(seed)
        bindings: list[SynopsisBinding] = []
        for entry in snapshot.get("synopses", []):
            restored = restore_synopsis(
                entry["state"], seed=rng.fork().seed
            )
            relation_name = str(entry["relation"])
            attribute = str(entry["attribute"])
            role = entry.get("role")
            if role is None:
                # Checkpoints written before roles were stored bound
                # the sample first and a hot list's backing sample
                # second on the same attribute.
                role = (
                    "hotlist"
                    if any(
                        (b.relation, b.attribute)
                        == (relation_name, attribute)
                        for b in bindings
                    )
                    else "sample"
                )
            bindings.append(
                SynopsisBinding(
                    relation_name, attribute, restored, str(role)
                )
            )

        replayed = 0
        sequence = base_sequence
        for operation in suffix:
            if operation.get("kind") == "batch":
                applied, sequence = self._replay_batch(
                    warehouse, bindings, operation, sequence
                )
                replayed += applied
                continue
            relation_name = str(operation["relation"])
            row = tuple(operation["row"])
            is_insert = bool(operation["insert"])
            try:
                if is_insert:
                    warehouse.insert(relation_name, row)
                else:
                    warehouse.delete(relation_name, row)
            except Exception as error:
                raise ReplayError(
                    f"operation {operation['sequence']} does not apply "
                    f"to relation {relation_name!r}: {error}"
                ) from error
            for binding in bindings:
                if binding.relation != relation_name:
                    continue
                relation = warehouse.relation(relation_name)
                value = int(
                    row[relation.attribute_index(binding.attribute)]
                )
                if is_insert:
                    binding.synopsis.insert(value)
                elif hasattr(binding.synopsis, "delete"):
                    binding.synopsis.delete(value)
                else:
                    raise ReplayError(
                        f"operation {operation['sequence']} deletes from "
                        f"{binding.relation}.{binding.attribute}, but "
                        f"{type(binding.synopsis).__name__} cannot "
                        "replay deletes (Theorem 5 needs a counting "
                        "sample)"
                    )
            replayed += 1
            sequence = int(operation["sequence"])

        if torn is not None:
            # Truncate the last segment to its clean prefix -- without
            # this, a second recovery would find the same torn record
            # mid-WAL once new segments are appended after it.
            store.wal.repair_tail(torn.offset)

        self._warehouse = None
        self._bindings = bindings
        self._sequence = sequence
        return RecoveredState(
            warehouse=warehouse,
            synopses={
                (binding.relation, binding.attribute): binding.synopsis
                for binding in bindings
            },
            sequence=sequence,
            replayed=replayed,
            checkpoint_sequence=checkpoint_sequence,
            torn_tail=torn,
        )

    @staticmethod
    def _replay_batch(
        warehouse: DataWarehouse,
        bindings: list[SynopsisBinding],
        operation: Mapping[str, Any],
        sequence: int,
    ) -> tuple[int, int]:
        """Replay one columnar batch record, vectorized end to end.

        Decodes the dtype-tagged columns back into arrays, drives
        :meth:`~repro.engine.warehouse.DataWarehouse.load_batch` (one
        ``np.unique`` update instead of a row loop) and each matching
        binding's ``insert_array`` fast path.  A batch straddling the
        checkpoint boundary is sliced to its unapplied suffix first.
        Returns ``(rows applied, new sequence)``.
        """
        relation_name = str(operation["relation"])
        first = int(operation["first_sequence"])
        last = int(operation["last_sequence"])
        try:
            columns = decode_columns(operation["columns"])
        except ValueError as error:
            raise ReplayError(
                f"batch record [{first}, {last}] cannot be decoded: "
                f"{error}"
            ) from error
        length = last - first + 1
        if any(len(values) != length for values in columns.values()):
            raise ReplayError(
                f"batch record [{first}, {last}] declares {length} "
                "rows but its columns disagree"
            )
        skip = sequence - first + 1
        if skip > 0:
            # The checkpoint already covers a prefix of this batch.
            columns = {
                name: values[skip:] for name, values in columns.items()
            }
        try:
            applied = warehouse.load_batch(relation_name, columns)
        except Exception as error:
            raise ReplayError(
                f"batch record [{first}, {last}] does not apply to "
                f"relation {relation_name!r}: {error}"
            ) from error
        for binding in bindings:
            if binding.relation != relation_name:
                continue
            try:
                values = columns[binding.attribute]
            except KeyError:
                raise ReplayError(
                    f"batch record [{first}, {last}] carries no column "
                    f"for {binding.relation}.{binding.attribute}"
                ) from None
            insert_array = getattr(binding.synopsis, "insert_array", None)
            if insert_array is not None:
                insert_array(np.asarray(values))
            else:  # pragma: no cover - all snapshotable synopses vectorize
                for value in values.tolist():
                    binding.synopsis.insert(int(value))
        return applied, last
