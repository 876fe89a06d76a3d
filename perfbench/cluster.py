"""The cluster workload: sharded ingest beside dashboard refreshes.

A :class:`~repro.cluster.ShardedWarehouse` with ``SHARDS`` worker
processes (one per core of the reference machine) holds a concise
sample and a hot list on the partition key.  One caller loops: one
``load_batch`` of ``INGEST_ROWS`` rows, then one *refresh* -- a single
``answer_batch`` call carrying ``POINTS`` routed frequency queries and
one scatter count, sum and average.  One query request is one
refresh.  Requests carry batches because a scatter round trip per
query measures process wake-ups rather than the cluster (NOTES.md).
"""

from __future__ import annotations

import gc
import multiprocessing
from multiprocessing import resource_tracker
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

import repro.cluster.coordinator as coordinator
from repro.cluster import ShardedWarehouse, partition_columns
from repro.engine import AverageQuery, CountQuery, FrequencyQuery, SumQuery
from repro.estimators.selectivity import Predicate
from repro.persist.columns import encode_columns
from repro.serving.protocol import encode_request

import oracle
from measure import SETUPS, Phase, overhead_ratios, peak_rss_mib, percentile
from oracle import ATTRIBUTE, RELATION, Accuracy, ExactCounts
from spans import SpanRecorder, TraceSwitch, profile_requests

SHARDS = 2
PRELOAD = 1_000_000
FOOTPRINT = 4_000  # per shard
INGEST_ROWS = 20_000
POINTS = 64
AUDIT_REFRESHES = 100
REFRESH = 4  # oracle stream identifier of the refresh queries
#: Point queries ask about the densest values, where a per-shard
#: sample at this footprint still holds several copies of each.
POINT_HEAD = 2_000


def refresh_queries(seed: int, index: int) -> list[Any]:
    """Refresh ``index``: routed point queries, then three scatters.

    The scatter range is wide and starts in the dense head: a shard's
    sample at this footprint holds only a few points per hundred
    values further out, and an average over no points has no answer.
    """
    rng = np.random.default_rng(oracle.derive_seed(seed, REFRESH, index))
    values = rng.integers(1, POINT_HEAD + 1, size=POINTS)
    low = int(rng.integers(1, 2_000))
    predicate = Predicate(low=low, high=low + int(rng.integers(2_000, 20_000)))
    return [FrequencyQuery(RELATION, ATTRIBUTE, int(v)) for v in values] + [
        CountQuery(RELATION, ATTRIBUTE, predicate),
        SumQuery(RELATION, ATTRIBUTE, predicate),
        AverageQuery(RELATION, ATTRIBUTE, predicate),
    ]


def build(preload: dict, seed: int, workdir: Path) -> ShardedWarehouse:
    """Start the fleet, register the synopses and preload (timed)."""
    warehouse = ShardedWarehouse(
        SHARDS, workdir, seed=oracle.derive_seed(seed, 12), start_method="spawn"
    )
    warehouse.start()
    warehouse.create_relation(RELATION, [ATTRIBUTE])
    warehouse.register_synopsis(
        RELATION, ATTRIBUTE, footprint_bound=FOOTPRINT, hotlist=True
    )
    warehouse.load_batch(RELATION, preload)
    return warehouse


class ClusterRun:
    """The seeded ingest/refresh loop, executed phase by phase.

    Checks that need no oracle run inline; ``log`` keeps every ack and
    the answers of the audit window for the oracle replay.
    """

    def __init__(self, seed: int, warehouse: ShardedWarehouse) -> None:
        self.seed = seed
        self.warehouse = warehouse
        self.cycles = 0
        self.log: list[tuple[int, int, list]] = []
        self.failures: list[str] = []

    def batch(self, index: int) -> dict[str, np.ndarray]:
        return oracle.batch(INGEST_ROWS, self.seed, 1, index)

    def run(self, seconds: float, switch: TraceSwitch | None = None) -> Phase:
        """Run the loop for ``seconds``; with a ``switch``, every other
        iteration is traced."""
        phase = Phase(tracing=switch is not None)
        started = perf_counter()
        deadline = started + seconds
        try:
            while True:
                recorder = switch.set(self.cycles % 2 == 1) if switch else None
                self._cycle(phase, recorder)
                if (
                    perf_counter() >= deadline
                    and phase.enough()
                    and self.cycles > AUDIT_REFRESHES
                ):
                    break
        finally:
            if switch is not None:
                switch.set(False)
        phase.wall = perf_counter() - started
        return phase

    def _cycle(self, phase: Phase, recorder: SpanRecorder | None) -> None:
        index = self.cycles
        columns = self.batch(index)
        root = recorder.begin("cluster.ingest") if recorder else -1
        started = perf_counter()
        try:
            ack = self.warehouse.load_batch(RELATION, columns)
        except Exception as error:  # noqa: BLE001 - counted, run fails
            self.failures.append(f"ingest {index}: {error!r}")
            ack = -1
        phase.record("ingest", perf_counter() - started, recorder is not None)
        if recorder:
            recorder.end(root)
            phase.traced_rows += INGEST_ROWS
            phase.request_bytes += sum(
                len(encode_request("0", "ingest", {"relation": RELATION, "columns": encode_columns(piece)}))
                for piece in partition_columns(columns, [ATTRIBUTE], SHARDS)
                if piece
            )
        phase.ingest_rows += INGEST_ROWS
        queries = refresh_queries(self.seed, index)
        root = recorder.begin("cluster.refresh") if recorder else -1
        started = perf_counter()
        try:
            answers = self.warehouse.answer_batch(queries)
        except Exception as error:  # noqa: BLE001 - counted, run fails
            self.failures.append(f"refresh {index}: {error!r}")
            answers = []
        phase.record("query", perf_counter() - started, recorder is not None)
        if recorder:
            recorder.end(root)
        phase.queries += len(queries)
        phase.routed += POINTS
        if len(answers) != len(queries):
            self.failures.append(f"refresh {index}: {len(answers)} answers")
        for answer in answers:
            if answer.degraded:
                self.failures.append(f"refresh {index}: degraded answer {answer}")
            elif answer.interval is None:
                self.failures.append(f"refresh {index}: promised interval missing")
        # Answers are kept for the fixed audit window only, so memory
        # does not grow with the program's speed.
        self.log.append((index, ack, answers if index < AUDIT_REFRESHES else None))
        self.cycles += 1


def check(run: ClusterRun, preload: dict) -> tuple[dict, Accuracy, list[str]]:
    """Replay the log against the oracle; see ``served.check``."""
    failures = list(run.failures)
    truth = ExactCounts()
    truth.add(preload[ATTRIBUTE])
    accuracy = Accuracy()
    for index, ack, answers in run.log:
        if ack != INGEST_ROWS:
            failures.append(f"ingest {index} acked {ack} of {INGEST_ROWS} rows")
        else:
            truth.add(run.batch(index)[ATTRIBUTE])
        if not answers:
            continue
        for query, answer in zip(refresh_queries(run.seed, index), answers):
            if answer.interval is not None and not answer.degraded:
                accuracy.score(float(answer.answer), truth.truth(query), answer.interval)
    warehouse = run.warehouse
    rows = sum(stats["rows"][RELATION] for stats in warehouse.stats().values())
    if rows != truth.rows:
        failures.append(f"shards hold {rows} rows, oracle {truth.rows}")
    merged = []
    for role in (0, 1):
        try:
            synopsis = warehouse.merged_synopsis(RELATION, ATTRIBUTE, role=role)
            synopsis.check_invariants()
            merged.append(synopsis)
        except Exception as error:  # noqa: BLE001 - any drift fails the run
            failures.append(f"merged synopsis {role}: {error!r}")
    sample = merged[0] if merged else None
    guards = {
        "tau": sample.threshold if sample else 0.0,
        "sample_size": sample.sample_size if sample else 0,
        "footprint": sample.footprint if sample else 0,
        "rows": truth.rows,
    }
    return guards, accuracy, failures


def wrap_layers(recorder: SpanRecorder) -> None:
    """Spans around the coordinator's partition, encode and gather."""
    recorder.wrap(coordinator, "partition_columns", "cluster.partition")
    recorder.wrap(coordinator, "encode_columns", "cluster.encode")
    for name in ("merge_scalar_responses", "merge_ratio_responses", "merge_hotlist_responses"):
        recorder.wrap(coordinator, name, "cluster.gather")


def layer_metrics(
    phase: Phase, recorder: SpanRecorder, guards: dict
) -> tuple[dict[str, float], list]:
    profiles = profile_requests(recorder.spans)
    ingests = [p for p in profiles if p.root == "cluster.ingest"]
    refreshes = [p for p in profiles if p.root == "cluster.refresh"]

    def p50(members: list, name: str, self_time: bool = False) -> float:
        values = [
            (p.self_time if self_time else p.total_time)[name] for p in members
        ]
        return percentile(values, 50) * 1e3

    return {
        "cluster.partition_ms_p50": p50(ingests, "cluster.partition"),
        "cluster.encode_ms_p50": p50(ingests, "cluster.encode"),
        "cluster.ingest_bytes_per_row": phase.request_bytes / phase.traced_rows,
        "cluster.ingest_wait_ms_p50": p50(ingests, "cluster.ingest", True),
        "cluster.query_wait_ms_p50": p50(refreshes, "cluster.refresh", True),
        "cluster.gather_ms_p50": p50(refreshes, "cluster.gather"),
        "cluster.routed_share": phase.routed / phase.queries,
        "core.sample_size": guards["sample_size"],
        "core.footprint": guards["footprint"],
        "core.tau": guards["tau"],
    }, profiles


def _close(warehouse: ShardedWarehouse) -> float:
    """Close the fleet; returns the workers' summed peak RSS in MiB."""
    worker_rss = sum(
        peak_rss_mib(child.pid) for child in multiprocessing.active_children()
    )
    warehouse.close()
    return worker_rss


def run_cluster(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    preload = oracle.preload(PRELOAD, seed, 1)
    setups, states = [], []
    warehouse = None
    worker_rss = 0.0
    for attempt in range(SETUPS):
        if warehouse is not None:
            worker_rss = max(worker_rss, _close(warehouse))
            warehouse = None
            gc.collect()
        started = perf_counter()
        warehouse = build(preload, seed, workdir / f"setup-{attempt}")
        setups.append(perf_counter() - started)
        states.append(
            sorted((i, s["rows"][RELATION]) for i, s in warehouse.stats().items())
        )
    run = ClusterRun(seed, warehouse)
    result: dict[str, Any] = {"setup_seconds": setups}
    try:
        recorder = SpanRecorder()
        phase = run.run(seconds, TraceSwitch(recorder, wrap_layers) if trace else None)
        guards, accuracy, failures = check(run, preload)
    finally:
        worker_rss = max(worker_rss, _close(warehouse))
        # Spawning workers started multiprocessing's resource tracker;
        # stop it and wait for it, so the run leaves no process behind.
        resource_tracker._resource_tracker._stop()
    guards["setup_state"] = states[0]
    if any(state != states[0] for state in states):
        failures.append(f"set-ups disagree: {states}")
    if trace:
        layers, result["profiles"] = layer_metrics(phase, recorder, guards)
        result["layers"] = {**layers, **overhead_ratios(phase)}
    result.update(
        phase=phase,
        attempted=phase.attempted,
        guards=guards,
        accuracy=accuracy,
        failures=failures,
        worker_rss_mib=worker_rss,
    )
    return result
