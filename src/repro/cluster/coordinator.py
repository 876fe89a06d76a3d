"""The scatter/gather coordinator over a fleet of shard workers.

:class:`ShardedWarehouse` owns N worker processes
(:mod:`repro.cluster.worker`), each with a private WAL/checkpoint
directory, and presents the single-process warehouse API: create
relations, register synopses, load columnar batches, answer queries.
Batches are split by value-hash partitioning
(:mod:`repro.cluster.partition`) and scattered; answers are gathered
and combined with the estimator algebra of
:mod:`repro.cluster.gather`, or -- for frequency and equality
aggregates on the partition attribute -- routed to the single owner
shard.

Failover contract
-----------------
A dead worker (socket EOF, reset, or request timeout) is detected at
the next conversation with it.  The coordinator marks the shard down,
counts a failover, and -- with ``auto_restart`` (the default) --
respawns the worker, whose boot *is* WAL replay: it rejoins with every
acknowledged batch and registration restored.  While a shard is down,
queries are served **degraded** from the survivors and the returned
:class:`~repro.cluster.gather.ClusterAnswer` says so via
``shards_responding < shards_total``.  Operations that cannot honestly
degrade -- ingest to the dead owner, registration, lossless
Theorem-2/5 merges -- wait for recovery and raise
:class:`~repro.cluster.errors.ShardUnavailable` if it never comes.

Ingest is *not* atomic across shards: if a worker dies mid-scatter the
survivors keep the rows they acknowledged and
:class:`~repro.cluster.errors.ShardCrashed` reports the partition that
was lost (its shard recovers to the last acknowledged batch).

Randomness discipline (RL016): every seed handed to a worker --
recovery seeds per incarnation, synopsis seeds per registration, merge
seeds per gather -- is derived through
:func:`repro.randkit.spawn_seeds` chains from the coordinator's one
master seed.  No RNG object crosses a process boundary.
"""

from __future__ import annotations

import multiprocessing
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.cluster.errors import ClusterError, ShardCrashed, ShardUnavailable
from repro.cluster.gather import (
    ClusterAnswer,
    merge_hotlist_responses,
    merge_ratio_responses,
    merge_scalar_responses,
)
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.partition import partition_columns, shard_of_value
from repro.cluster.worker import (
    HELLO_ID,
    MAX_FRAME_BYTES,
    ShardConfig,
    worker_main,
)
from repro.core.concise import ConciseSample
from repro.core.counting import CountingSample
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
from repro.engine.registry import HOTLIST, SAMPLE
from repro.engine.snapshots import restore_synopsis
from repro.faults.plan import FaultPlan
from repro.obs.clock import monotonic
from repro.obs.metrics import MetricsRegistry
from repro.persist.columns import encode_columns
from repro.randkit import spawn_seeds
from repro.serving import codec
from repro.serving.protocol import (
    FrameDecoder,
    ProtocolError,
    encode_request,
    parse_reply,
)

__all__ = ["ShardedWarehouse"]

_RECV_BYTES = 1 << 16


class _ShardHandle:
    """Coordinator-side state of one worker: process, socket, lock.

    The lock serializes conversations on the socket, so concurrent
    coordinator calls (an ingest thread racing a query thread) each
    get a clean request/reply exchange.
    """

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Any = None
        self.sock: socket.socket | None = None
        self.decoder: FrameDecoder | None = None
        self.lock = threading.Lock()
        self.state = "down"  # "up" | "down" | "recovering"
        self.incarnation = 0
        self.request_count = 0
        self.ready = threading.Event()
        self.last_hello: dict[str, Any] | None = None

    def close_socket(self) -> None:
        """Close and forget the socket; a failing close changes nothing."""
        if self.sock is not None:
            with suppress(OSError):
                self.sock.close()
            self.sock = None


class ShardedWarehouse:
    """A multi-process warehouse behind one scatter/gather front."""

    def __init__(
        self,
        shards: int,
        directory: str | Path,
        *,
        seed: int = 0,
        sync_every: int = 1,
        registry: MetricsRegistry | None = None,
        start_method: str | None = None,
        fault_plans: Mapping[int, FaultPlan] | None = None,
        request_timeout: float = 30.0,
        auto_restart: bool = True,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be positive")
        self._shards = shards
        self._directory = Path(directory)
        self._sync_every = sync_every
        self._request_timeout = request_timeout
        self._auto_restart = auto_restart
        # Fault plans apply to the first incarnation only: a respawned
        # worker boots clean, which is what lets failover tests kill a
        # shard once and watch it come back.
        self._fault_plans = dict(fault_plans or {})
        self._ctx = multiprocessing.get_context(
            start_method or "forkserver"
        )
        self.metrics = ClusterMetrics(registry)
        # Seed tree: one master fans out to per-shard masters (whose
        # children seed each incarnation's recovery), a registration
        # master, and a merge master.  spawn_seeds everywhere (RL016).
        tree = spawn_seeds(seed, shards + 2)
        self._shard_masters = tree[:shards]
        self._registration_master = tree[shards]
        self._merge_master = tree[shards + 1]
        self._registration_count = 0
        self._merge_count = 0
        self._state_lock = threading.Lock()
        self._handles = [_ShardHandle(index) for index in range(shards)]
        self._pool = ThreadPoolExecutor(
            max_workers=shards, thread_name_prefix="repro-cluster"
        )
        # relation -> partition attributes; (relation, attribute) ->
        # registration spec ({"kind", "hotlist"}).
        self._partition_by: dict[str, tuple[str, ...]] = {}
        self._synopses: dict[tuple[str, str], dict[str, Any]] = {}
        self._closed = False
        self.metrics.shards_total.set(shards)
        self.metrics.shards_up.set(0)
        self.metrics.degraded.set(1)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ShardedWarehouse":
        """Spawn every worker and block until all have recovered."""
        list(
            self._pool.map(
                lambda handle: self._boot_shard(handle),
                self._handles,
            )
        )
        failed = [h.index for h in self._handles if h.state != "up"]
        if failed:
            raise ShardUnavailable(failed[0], "start")
        return self

    def __enter__(self) -> "ShardedWarehouse":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Say goodbye to every live worker and reap the processes."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            with handle.lock:
                if handle.sock is not None and handle.state == "up":
                    try:
                        self._converse(handle, "bye", {})
                    except (ClusterError, OSError):
                        pass
                self._teardown_locked(handle)
        self._pool.shutdown(wait=True)
        self.metrics.shards_up.set(0)

    def _teardown_locked(self, handle: _ShardHandle) -> None:
        handle.close_socket()
        if handle.process is not None:
            handle.process.join(timeout=5)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=5)
            handle.process = None
        handle.state = "down"
        handle.ready.clear()

    # ------------------------------------------------------------------
    # Spawning and failover
    # ------------------------------------------------------------------

    def _recovery_seed(self, index: int, incarnation: int) -> int:
        chain = spawn_seeds(self._shard_masters[index], incarnation + 1)
        return chain[incarnation]

    def _boot_shard(self, handle: _ShardHandle) -> None:
        """Spawn one worker and wait for its hello (blocking)."""
        incarnation = handle.incarnation
        plan = (
            self._fault_plans.get(handle.index)
            if incarnation == 0
            else None
        )
        config = ShardConfig(
            index=handle.index,
            directory=str(self._directory / f"shard-{handle.index:02d}"),
            recovery_seed=self._recovery_seed(handle.index, incarnation),
            sync_every=self._sync_every,
            fault_plan=plan,
        )
        parent, child = socket.socketpair()
        process = self._ctx.Process(
            target=worker_main, args=(config, child), daemon=True
        )
        process.start()
        child.close()
        parent.settimeout(self._request_timeout)
        decoder = FrameDecoder(
            max_frame_bytes=MAX_FRAME_BYTES,
            source=f"coordinator<-shard-{handle.index}",
        )
        try:
            hello = _read_reply(parent, decoder, HELLO_ID, handle.index)
        except (OSError, ProtocolError, ClusterError):
            parent.close()
            process.join(timeout=5)
            with handle.lock:
                handle.state = "down"
                handle.ready.clear()
            return
        with handle.lock:
            handle.process = process
            handle.sock = parent
            handle.decoder = decoder
            handle.incarnation = incarnation + 1
            handle.last_hello = hello
            handle.state = "up"
            handle.ready.set()
        self._refresh_health_gauges()

    def _on_shard_death(self, handle: _ShardHandle, reason: str) -> None:
        """Handle-lock held: mark down, count, and maybe respawn."""
        if handle.state != "up":
            return
        handle.state = "down"
        handle.ready.clear()
        self.metrics.failovers_total.inc()
        handle.close_socket()
        if handle.process is not None and handle.process.is_alive():
            handle.process.kill()
        self._refresh_health_gauges()
        if self._auto_restart and not self._closed:
            handle.state = "recovering"
            self.metrics.restarts_total.inc()
            thread = threading.Thread(
                target=self._boot_shard,
                args=(handle,),
                name=f"repro-cluster-respawn-{handle.index}",
                daemon=True,
            )
            thread.start()

    def _refresh_health_gauges(self) -> None:
        up = sum(1 for h in self._handles if h.state == "up")
        self.metrics.shards_up.set(up)
        self.metrics.degraded.set(0 if up == self._shards else 1)

    @property
    def shards(self) -> int:
        return self._shards

    @property
    def shards_up(self) -> int:
        return sum(1 for h in self._handles if h.state == "up")

    def wait_until_healthy(self, timeout: float | None = None) -> bool:
        """Block until every shard is up (or the timeout expires)."""
        deadline = None if timeout is None else monotonic() + timeout
        for handle in self._handles:
            remaining: float | None = None
            if deadline is not None:
                remaining = max(0.0, deadline - monotonic())
            if not handle.ready.wait(remaining):
                return False
        return True

    def kill_shard(self, index: int) -> None:
        """Hard-kill one worker (test hook; detection is lazy)."""
        handle = self._handles[index]
        process = handle.process
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=5)

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------

    def _converse(
        self,
        handle: _ShardHandle,
        op: str,
        params: dict[str, Any],
    ) -> dict[str, Any]:
        """One request/reply exchange; handle lock must be held."""
        sock = handle.sock
        decoder = handle.decoder
        if sock is None or decoder is None or handle.state != "up":
            raise ShardUnavailable(handle.index, op)
        handle.request_count += 1
        request_id = (
            f"{handle.index}:{handle.incarnation}:{handle.request_count}"
        )
        try:
            sock.sendall(encode_request(request_id, op, params))
            return _read_reply(sock, decoder, request_id, handle.index)
        except (TimeoutError, socket.timeout) as exc:
            self._on_shard_death(handle, f"timeout: {exc}")
            raise ShardCrashed(handle.index, "request timed out")
        except (OSError, ProtocolError, ShardCrashed) as exc:
            self._on_shard_death(handle, str(exc))
            raise ShardCrashed(handle.index, str(exc))

    def _request(
        self,
        handle: _ShardHandle,
        op: str,
        params: dict[str, Any],
    ) -> dict[str, Any]:
        """One locked exchange with latency + outcome metrics."""
        started = monotonic()
        try:
            with handle.lock:
                result = self._converse(handle, op, params)
        except _RemoteError:
            self.metrics.requests_total(op, "error").inc()
            raise
        except ClusterError:
            self.metrics.requests_total(op, "crash").inc()
            raise
        elapsed = monotonic() - started
        if op == "ingest":
            self.metrics.shard_ingest_seconds(handle.index).observe(
                elapsed
            )
        elif op in ("query", "query_batch"):
            self.metrics.shard_query_seconds(handle.index).observe(
                elapsed
            )
        self.metrics.requests_total(op, "ok").inc()
        return result

    def _up_handles(self) -> list[_ShardHandle]:
        return [h for h in self._handles if h.state == "up"]

    def _scatter(
        self,
        op: str,
        params_of: Callable[[_ShardHandle], dict[str, Any]],
        handles: Sequence[_ShardHandle],
    ) -> list[tuple[_ShardHandle, dict[str, Any]]]:
        """Fan one op out; gather the successes, absorb the crashes."""
        targets = [(handle, params_of(handle)) for handle in handles]
        self.metrics.scatter_fanout.set(len(targets))

        def one(
            item: tuple[_ShardHandle, dict[str, Any]],
        ) -> tuple[_ShardHandle, dict[str, Any]] | None:
            handle, params = item
            try:
                return handle, self._request(handle, op, params)
            except (ShardCrashed, ShardUnavailable):
                return None

        replies = list(self._pool.map(one, targets))
        return [reply for reply in replies if reply is not None]

    def _scatter_all(
        self,
        op: str,
        params_of: Callable[[_ShardHandle], dict[str, Any]],
    ) -> list[tuple[_ShardHandle, dict[str, Any]]]:
        """Fan one op out to every shard; all must reply.

        Waits out in-flight recoveries first, and raises
        :class:`ShardUnavailable` for the lowest shard that stays down
        or does not answer.  Replies come back in shard order.
        """
        if not self.wait_until_healthy(timeout=self._request_timeout):
            for handle in self._handles:
                if handle.state != "up":
                    raise ShardUnavailable(handle.index, op)
        replies = self._scatter(op, params_of, self._handles)
        answered = {handle.index for handle, _ in replies}
        for handle in self._handles:
            if handle.index not in answered:
                raise ShardUnavailable(handle.index, op)
        return sorted(replies, key=lambda reply: reply[0].index)

    # ------------------------------------------------------------------
    # Warehouse API
    # ------------------------------------------------------------------

    def create_relation(
        self,
        name: str,
        attributes: Sequence[str],
        *,
        partition_by: Sequence[str] | None = None,
    ) -> None:
        """Create a relation on every shard (requires a full fleet)."""
        attributes = tuple(str(a) for a in attributes)
        key = tuple(partition_by) if partition_by else attributes[:1]
        for attr in key:
            if attr not in attributes:
                raise ValueError(
                    f"partition attribute {attr!r} is not in {name!r}"
                )
        self._scatter_all(
            "create_relation",
            lambda _h: {"relation": name, "attributes": attributes},
        )
        self._partition_by[name] = key

    def register_synopsis(
        self,
        relation: str,
        attribute: str,
        *,
        kind: str = "concise-sample",
        footprint_bound: int = 1000,
        hotlist: bool = False,
    ) -> None:
        """Register one synopsis (plus optional hot list) fleet-wide.

        Per-shard sample seeds come from a fresh ``spawn_seeds`` chain
        per registration, so shard samples are mutually independent
        and reproducible from the coordinator's master seed alone.
        """
        self._registration_count += 1
        chain = spawn_seeds(
            self._registration_master, self._registration_count
        )
        shard_seeds = spawn_seeds(
            chain[self._registration_count - 1], 2 * self._shards
        )

        def params(handle: _ShardHandle) -> dict[str, Any]:
            base = 2 * handle.index
            return {
                "relation": relation,
                "attribute": attribute,
                "kind": kind,
                "footprint_bound": footprint_bound,
                "seeds": shard_seeds[base : base + 2],
                "hotlist": hotlist,
            }

        self._scatter_all("register_synopsis", params)
        self._synopses[(relation, attribute)] = {
            "kind": kind,
            "hotlist": hotlist,
            "footprint_bound": footprint_bound,
        }

    def load_batch(
        self,
        relation: str,
        columns: Mapping[str, np.ndarray],
    ) -> int:
        """Partition one columnar batch and scatter it to its owners.

        Returns the number of rows acknowledged.  Raises
        :class:`ShardCrashed` if an owner died mid-batch (its rows are
        lost until re-sent; the other shards keep theirs) and
        :class:`ShardUnavailable` if an owner stayed down past the
        request timeout.
        """
        partition_by = self._partition_by.get(relation)
        if partition_by is None:
            raise KeyError(f"unknown relation {relation!r}")
        pieces = partition_columns(columns, partition_by, self._shards)
        targets = [
            (self._handles[shard], piece)
            for shard, piece in enumerate(pieces)
            if piece
        ]
        for handle, _piece in targets:
            if handle.state != "up" and not handle.ready.wait(
                self._request_timeout
            ):
                raise ShardUnavailable(handle.index, "ingest")
        self.metrics.scatter_fanout.set(len(targets))

        def one(item: tuple[_ShardHandle, dict[str, np.ndarray]]) -> int:
            handle, piece = item
            rows = len(next(iter(piece.values())))
            result = self._request(
                handle,
                "ingest",
                {
                    "relation": relation,
                    "columns": encode_columns(dict(piece)),
                },
            )
            self.metrics.ingest_rows_total(handle.index).inc(rows)
            return int(result["rows"])

        return sum(self._pool.map(one, targets))

    def checkpoint(self) -> None:
        """Force a checkpoint on every live shard."""
        self._scatter("checkpoint", lambda _h: {}, self._up_handles())

    def stats(self) -> dict[int, dict[str, Any]]:
        """Per-shard worker stats, keyed by shard index."""
        replies = self._scatter("stats", lambda _h: {}, self._up_handles())
        return {handle.index: result for handle, result in replies}

    # ------------------------------------------------------------------
    # Answering
    # ------------------------------------------------------------------

    def answer(self, query: Query) -> ClusterAnswer:
        """Answer one query: routed to the owner shard when the
        partition key pins the value, scattered and gathered otherwise.
        """
        if isinstance(query, JoinSizeQuery):
            raise ClusterError(
                "join-size queries are not supported on a sharded "
                "warehouse; merge the synopses and ask one engine"
            )
        owner = self._route(query)
        if owner is not None:
            handle = self._handles[owner]
            if handle.state == "up" or handle.ready.wait(
                self._request_timeout
            ):
                try:
                    result = self._request(
                        handle,
                        "query",
                        {"query": codec.encode_query(query)},
                    )
                except ShardCrashed:
                    pass  # fall through to a degraded scatter
                else:
                    return self._routed(result)
        if isinstance(query, AverageQuery):
            answer = self._answer_average(query)
        elif isinstance(query, SelectivityQuery):
            answer = self._answer_selectivity(query)
        else:
            answer = self._answer_scatter(query)
        if answer.degraded:
            self.metrics.degraded_answers_total.inc()
        return answer

    def answer_batch(
        self, queries: Sequence[Query]
    ) -> list[ClusterAnswer]:
        """Answer many queries, batching routed ones per owner shard.

        Routed queries to the same owner travel in one
        ``query_batch`` frame -- the fan-out path that makes query
        throughput scale with the shard count.
        """
        routed: dict[int, list[int]] = {}
        answers: list[ClusterAnswer | None] = [None] * len(queries)
        for position, query in enumerate(queries):
            owner = self._route(query)
            if owner is not None and self._handles[owner].state == "up":
                routed.setdefault(owner, []).append(position)
            else:
                answers[position] = self.answer(query)

        def one_owner(item: tuple[int, list[int]]) -> None:
            owner, positions = item
            handle = self._handles[owner]
            payloads = [
                codec.encode_query(queries[position])
                for position in positions
            ]
            try:
                result = self._request(
                    handle, "query_batch", {"queries": payloads}
                )
            except ClusterError:
                for position in positions:
                    answers[position] = self.answer(queries[position])
                return
            for position, entry in zip(
                positions, result["answers"], strict=True
            ):
                answers[position] = self._routed(entry)

        list(self._pool.map(one_owner, routed.items()))
        assert all(answer is not None for answer in answers)
        return [answer for answer in answers if answer is not None]

    def _routed(self, result: dict[str, Any]) -> ClusterAnswer:
        """An owner shard's answer: it holds every row with the routed
        value, so the answer has full coverage."""
        return ClusterAnswer(
            response=codec.decode_response(result["response"]),
            shards_responding=self._shards,
            shards_total=self._shards,
        )

    def _route(self, query: Query) -> int | None:
        """The owner shard when the partition key pins one value."""
        if self._shards == 1:
            return 0
        relation = getattr(query, "relation", None)
        if relation is None:
            return None
        key = self._partition_by.get(relation)
        if key is None or len(key) != 1:
            return None
        if getattr(query, "attribute", None) != key[0]:
            return None
        if isinstance(query, FrequencyQuery):
            return shard_of_value(int(query.value), self._shards)
        if isinstance(query, (CountQuery, SumQuery)):
            predicate = query.predicate
            if predicate is not None and predicate.equals is not None:
                return shard_of_value(
                    int(predicate.equals), self._shards
                )
        return None

    def _answer_scatter(self, query: Query) -> ClusterAnswer:
        handles = self._up_handles()
        if isinstance(query, DistinctCountQuery):
            key = self._partition_by.get(query.relation, ())
            if tuple(key) != (query.attribute,):
                raise ClusterError(
                    "distinct counts only merge across shards when "
                    "the attribute is the partition key (per-shard "
                    "value sets must be disjoint)"
                )
        replies = self._scatter(
            "query",
            lambda _h: {"query": codec.encode_query(query)},
            handles,
        )
        if not replies:
            raise ShardUnavailable(0, "query")
        responses = [
            codec.decode_response(result["response"])
            for _handle, result in replies
        ]
        responding = len(replies)
        if isinstance(query, HotListQuery):
            return merge_hotlist_responses(
                responses, query.k, responding, self._shards
            )
        return merge_scalar_responses(responses, responding, self._shards)

    def _answer_average(self, query: AverageQuery) -> ClusterAnswer:
        """AVERAGE = scattered SUM over scattered COUNT (or exact
        per-shard row counts when there is no predicate)."""
        sum_query = SumQuery(
            query.relation, query.attribute, query.predicate
        )
        count_query = CountQuery(
            query.relation, query.attribute, query.predicate
        )
        payloads = [
            codec.encode_query(sum_query),
            codec.encode_query(count_query),
        ]
        replies = self._scatter(
            "query_batch",
            lambda _h: {"queries": payloads},
            self._up_handles(),
        )
        if not replies:
            raise ShardUnavailable(0, "query")
        numerators = []
        denominators = []
        for _handle, result in replies:
            sum_entry, count_entry = result["answers"]
            numerators.append(
                codec.decode_response(sum_entry["response"])
            )
            if query.predicate is None:
                denominators.append(float(sum_entry["relation_rows"]))
            else:
                count = codec.decode_response(count_entry["response"])
                denominators.append(float(count.answer))
        return merge_ratio_responses(
            numerators,
            denominators,
            len(replies),
            self._shards,
            method="cluster:average",
        )

    def _answer_selectivity(
        self, query: SelectivityQuery
    ) -> ClusterAnswer:
        """SELECTIVITY = scattered predicate COUNT over exact rows."""
        count_query = CountQuery(
            query.relation, query.attribute, query.predicate
        )
        payload = {"query": codec.encode_query(count_query)}
        replies = self._scatter(
            "query", lambda _h: payload, self._up_handles()
        )
        if not replies:
            raise ShardUnavailable(0, "query")
        numerators = [
            codec.decode_response(result["response"])
            for _handle, result in replies
        ]
        denominators = [
            float(result["relation_rows"]) for _handle, result in replies
        ]
        return merge_ratio_responses(
            numerators,
            denominators,
            len(replies),
            self._shards,
            method="cluster:selectivity",
        )

    # ------------------------------------------------------------------
    # Theorem-2/5 synopsis gathering
    # ------------------------------------------------------------------

    def merged_synopsis(
        self,
        relation: str,
        attribute: str,
        *,
        role: int | str = SAMPLE,
        footprint_bound: int | None = None,
    ) -> ConciseSample | CountingSample:
        """Gather every shard's synopsis and merge per Theorem 2/5.

        ``role`` picks the aggregate sample (``"sample"`` or ``0``) or
        the hot list's backing sample (``"hotlist"`` or ``1``).
        Needs the full fleet (a partial merge would silently drop a
        partition); waits out recoveries first.  The merged footprint
        bound defaults to the sum of the shard bounds, matching the
        equal-total-footprint comparison of the statistical tests.
        """
        params = {
            "relation": relation,
            "attribute": attribute,
            "role": (SAMPLE, HOTLIST)[role] if isinstance(role, int) else role,
        }
        replies = self._scatter_all("synopsis", lambda _h: params)
        self._merge_count += 1
        chain = spawn_seeds(self._merge_master, self._merge_count)
        seeds = spawn_seeds(chain[self._merge_count - 1], len(replies) + 1)
        restored = [
            restore_synopsis(result["state"], seed=seeds[i])
            for i, (_handle, result) in enumerate(replies)
        ]
        bound = footprint_bound
        if bound is None:
            bound = sum(
                synopsis.footprint_bound for synopsis in restored
            )
        first = restored[0]
        if isinstance(first, CountingSample):
            counting = [s for s in restored if isinstance(s, CountingSample)]
            if len(counting) != len(restored):
                raise ClusterError("mixed synopsis kinds across shards")
            from repro.core.merge import merge_counting

            return merge_counting(
                counting, seed=seeds[-1], footprint_bound=bound
            )
        if isinstance(first, ConciseSample):
            concise = [s for s in restored if isinstance(s, ConciseSample)]
            if len(concise) != len(restored):
                raise ClusterError("mixed synopsis kinds across shards")
            from repro.core.merge import merge_concise

            return merge_concise(
                concise, seed=seeds[-1], footprint_bound=bound
            )
        raise ClusterError(
            f"cannot merge {type(first).__name__} synopses"
        )

    # ------------------------------------------------------------------
    # Introspection helpers (tests, obs report)
    # ------------------------------------------------------------------

    def shard_states(self) -> list[str]:
        """The per-shard coordinator view ("up"/"down"/"recovering")."""
        return [handle.state for handle in self._handles]

    def hello_of(self, index: int) -> dict[str, Any] | None:
        """The most recent hello frame of one shard (None before boot)."""
        return self._handles[index].last_hello


def _read_reply(
    sock: socket.socket, decoder: FrameDecoder, request_id: str, index: int
) -> dict[str, Any]:
    """Read frames until the reply to ``request_id`` arrives."""
    while True:
        data = sock.recv(_RECV_BYTES)
        if not data:
            raise ShardCrashed(index, "socket closed")
        for payload in decoder.feed(data):
            reply_id, result, error = parse_reply(payload)
            if reply_id != request_id:
                continue  # stale frame from a dead exchange
            if error is not None:
                raise _RemoteError(*error)
            assert result is not None
            return result


class _RemoteError(ClusterError):
    """A worker answered with a protocol-level error envelope."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message
