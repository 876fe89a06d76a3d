"""The served workloads: one AQPClient against an in-process AQPServer.

Server and client share one event loop in the benchmark process, so a
round trip measures the serving stack rather than scheduler wake-ups
between two processes (see NOTES.md).  Both workloads are closed
loops with a single caller.

* ``served-scan`` -- distinct count/sum/average range queries and
  frequency point queries over a 4M-row preload, so every request
  misses the result cache and is answered from the concise sample.
  A light trickle of ingests (one batch per ``SCAN_INGEST_EVERY``
  queries, no WAL) gives the ingest class its samples.
* ``served-stream`` -- a feed writing beside dashboard reads: each
  cycle ingests one four-column batch through a WAL, then reads every
  hot-list dashboard ``STREAM_READS`` times; the first read of each
  dashboard after the ingest misses the cache and the rest hit.
"""

from __future__ import annotations

import gc
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

from repro.core import ConciseSample
from repro.engine import ApproximateAnswerEngine, DataWarehouse, QueryResultCache
from repro.estimators.intervals import ConfidenceInterval
from repro.hotlist.counting import CountingHotList
from repro.obs.metrics import MetricsRegistry
from repro.persist.checkpoint import CheckpointStore
from repro.persist.recovery import RecoveryManager
from repro.serving import AQPClient, AQPServer
from repro.serving.protocol import encode_request
from repro.stats.theory import compensation_constant, counting_miss_quantile

import oracle
from measure import SETUPS, Phase, overhead_ratios, percentile
from oracle import ATTRIBUTE, ATTRIBUTES, RELATION, Accuracy, ExactCounts
from spans import SpanRecorder, TraceSwitch, profile_requests

SCAN_PRELOAD = 4_000_000
SCAN_FOOTPRINT = 32_000
SCAN_INGEST_EVERY = 12
SCAN_INGEST_ROWS = 1_000
SCAN_AUDIT_QUERIES = 6_000

STREAM_PRELOAD = 1_000_000
STREAM_FOOTPRINT = 2_000
STREAM_TOP_K = 100
STREAM_READS = 4
STREAM_INGEST_ROWS = 2_000
#: One fsync per 64 WAL records keeps flushing ingests (1 in 64) above
#: the p95 rank, so they show in throughput and not in the tails.
STREAM_SYNC_EVERY = 64
STREAM_AUDIT_CYCLES = 300


@dataclass
class Program:
    """The objects one set-up builds and hands to the program."""

    warehouse: DataWarehouse
    engine: ApproximateAnswerEngine
    cache: QueryResultCache
    server: AQPServer
    client: AQPClient
    #: attribute -> the synopsis registered on it
    synopses: dict[str, Any]
    store: CheckpointStore | None = None
    manager: RecoveryManager | None = None
    wal_metrics: MetricsRegistry | None = None

    @property
    def sample(self) -> Any:
        """The sample behind the first attribute's synopsis."""
        return _sample_of(self.synopses[ATTRIBUTE])

    async def close(self) -> None:
        await self.client.bye()
        await self.server.shutdown()
        if self.manager is not None:
            self.manager.detach()
        if self.store is not None:
            self.store.close()


def _sample_of(synopsis: Any) -> Any:
    """A hot list's backing sample, or the sample itself."""
    return getattr(synopsis, "sample", synopsis)


async def build(workload: str, preload: dict, seed: int, workdir: Path) -> Program:
    """Construct the program and preload it (the timed set-up)."""
    scan = workload == "served-scan"
    attributes = list(preload)
    warehouse = DataWarehouse()
    warehouse.create_relation(RELATION, attributes)
    cache = QueryResultCache()
    engine = ApproximateAnswerEngine(warehouse, cache=cache)
    synopses: dict[str, Any] = {}
    for column, attribute in enumerate(attributes):
        synopsis_seed = oracle.derive_seed(seed, 10, column)
        if scan:
            synopses[attribute] = ConciseSample(SCAN_FOOTPRINT, seed=synopsis_seed)
            engine.register_sample(RELATION, attribute, synopses[attribute])
        else:
            synopses[attribute] = CountingHotList(STREAM_FOOTPRINT, seed=synopsis_seed)
            engine.register_hotlist(RELATION, attribute, synopses[attribute])
    store = manager = wal_metrics = None
    if not scan:
        wal_metrics = MetricsRegistry()
        store = CheckpointStore(
            workdir, sync_every=STREAM_SYNC_EVERY, registry=wal_metrics
        )
        manager = RecoveryManager(store)
        manager.attach(warehouse)
    warehouse.load_batch(RELATION, preload)
    server = AQPServer(warehouse, engine, manager=manager)
    client = await AQPClient.connect(*(await server.start()))
    await client.hello()
    return Program(
        warehouse, engine, cache, server, client, synopses,
        store, manager, wal_metrics,
    )


class ServedRun:
    """One workload's schedule, executed phase by phase.

    The schedule is a pure function of the seed; a phase runs it from
    where the previous phase stopped until its deadline passes at an
    operation (or cycle) boundary and both classes support their p95.
    Checks that need no oracle run inline; ``log`` keeps what the
    oracle replay needs -- every ack, the answers of the fixed audit
    window, and the values of later hot lists -- so the benchmark's
    memory does not grow with the program's speed.
    """

    def __init__(self, workload: str, seed: int, program: Program) -> None:
        self.scan = workload == "served-scan"
        self.seed = seed
        self.program = program
        self.plan = oracle.query_plan(seed) if self.scan else None
        self.boards = oracle.dashboards(STREAM_TOP_K)
        self.ingest_rows = SCAN_INGEST_ROWS if self.scan else STREAM_INGEST_ROWS
        self.attributes = len(program.synopses)
        self.step = 0
        self.batches = 0
        self.log: list[tuple[Any, ...]] = []
        self.failures: list[str] = []
        #: (cycle, dashboard) -> the hot list's threshold when it answered
        self.thresholds: dict[tuple[int, int], float] = {}

    def batch(self, index: int) -> dict[str, np.ndarray]:
        return oracle.batch(self.ingest_rows, self.seed, self.attributes, index)

    async def _ingest(self, phase: Phase, recorder: SpanRecorder | None) -> None:
        columns = {
            name: values.tolist() for name, values in self.batch(self.batches).items()
        }
        root = recorder.begin("serving.ingest") if recorder else -1
        started = perf_counter()
        try:
            ack = await self.program.client.ingest(RELATION, columns)
        except Exception as error:  # noqa: BLE001 - counted, run fails
            self.failures.append(f"ingest {self.batches}: {error!r}")
            ack = -1
        elapsed = perf_counter() - started
        if recorder:
            recorder.end(root)
            phase.request_bytes += len(
                encode_request(0, "ingest", {"relation": RELATION, "columns": columns})
            )
            phase.traced_rows += self.ingest_rows
        phase.record("ingest", elapsed, recorder is not None)
        phase.ingest_rows += self.ingest_rows
        self.log.append(("ingest", self.batches, ack))
        self.batches += 1

    async def _query(
        self, query: Any, phase: Phase, recorder: SpanRecorder | None
    ) -> Any:
        root = recorder.begin("serving.query") if recorder else -1
        started = perf_counter()
        try:
            response = await self.program.client.query(query, mode="live")
        except Exception as error:  # noqa: BLE001 - counted, run fails
            self.failures.append(f"query {query!r}: {error!r}")
            response = None
        elapsed = perf_counter() - started
        if recorder:
            recorder.end(root)
        phase.record("query", elapsed, recorder is not None)
        return response

    async def run(self, seconds: float, switch: TraceSwitch | None = None) -> Phase:
        """Run the schedule for ``seconds``; with a ``switch``, every
        other loop iteration is traced."""
        phase = Phase(tracing=switch is not None)
        cache = self.program.cache
        hits0, misses0 = cache.stats["hits"], cache.stats["misses"]
        wal0 = _wal_counters(self.program.wal_metrics)
        started = perf_counter()
        deadline = started + seconds
        try:
            if self.scan:
                await self._scan(phase, switch, deadline)
            else:
                await self._stream(phase, switch, deadline)
        finally:
            if switch is not None:
                switch.set(False)
        phase.wall = perf_counter() - started
        phase.cache_hits = cache.stats["hits"] - hits0
        phase.cache_lookups = phase.cache_hits + cache.stats["misses"] - misses0
        wal1 = _wal_counters(self.program.wal_metrics)
        phase.wal_bytes = wal1[0] - wal0[0]
        phase.wal_fsyncs = wal1[1] - wal0[1]
        return phase

    async def _scan(self, phase: Phase, switch, deadline: float) -> None:
        while True:
            block, position = divmod(self.step, SCAN_INGEST_EVERY + 1)
            recorder = switch.set(block % 2 == 1) if switch else None
            if position == SCAN_INGEST_EVERY:
                await self._ingest(phase, recorder)
            else:
                index = self.step - block
                query = self.plan.query(index)
                response = await self._query(query, phase, recorder)
                if response is None:
                    pass  # the failure is recorded
                elif response.interval is None:
                    self.failures.append(f"query {index}: promised interval missing")
                elif index < SCAN_AUDIT_QUERIES:
                    self.log.append(("query", index, response))
            self.step += 1
            if (
                perf_counter() >= deadline
                and phase.enough()
                and self.step > SCAN_AUDIT_QUERIES
            ):
                return

    async def _stream(self, phase: Phase, switch, deadline: float) -> None:
        while True:
            recorder = switch.set(self.batches % 2 == 1) if switch else None
            await self._ingest(phase, recorder)
            cycle = self.batches - 1
            misses = []
            for read in range(STREAM_READS):
                for board, query in enumerate(self.boards):
                    response = await self._query(query, phase, recorder)
                    if read:
                        if response != misses[board]:
                            self.failures.append(
                                f"cycle {cycle} board {board}: cached answer differs"
                            )
                        continue
                    misses.append(response)
                    if response is None:
                        continue
                    if response.interval is None:
                        self.failures.append(
                            f"cycle {cycle} board {board}: promised top interval missing"
                        )
                    elif cycle < STREAM_AUDIT_CYCLES:
                        sample = _sample_of(self.program.synopses[query.attribute])
                        self.thresholds[(cycle, board)] = sample.threshold
                        self.log.append(("board", cycle, board, response))
                    else:
                        values = np.array(response.answer.values())
                        self.log.append(("values", cycle, board, values))
            if (
                perf_counter() >= deadline
                and phase.enough()
                and self.batches > STREAM_AUDIT_CYCLES
            ):
                return


def _wal_counters(registry: MetricsRegistry | None) -> tuple[float, float]:
    if registry is None:
        return 0.0, 0.0
    return (
        registry.value("repro_wal_bytes_written_total"),
        registry.value("repro_wal_fsyncs_total"),
    )


# -- checking ------------------------------------------------------------


async def check(run: ServedRun, preload: dict) -> tuple[dict, Accuracy, list[str]]:
    """Replay the log against the oracle.

    Returns the workload-property guards, the accuracy of the audited
    answers, and every failed check.
    """
    failures = list(run.failures)
    truth = {name: ExactCounts() for name in preload}
    for name, values in preload.items():
        truth[name].add(values)
    accuracy = Accuracy()
    for entry in run.log:
        if entry[0] == "ingest":
            _, index, ack = entry
            if ack != run.ingest_rows:
                failures.append(f"ingest {index} acked {ack} of {run.ingest_rows} rows")
                continue
            for name, values in run.batch(index).items():
                truth[name].add(values)
        elif entry[0] == "query":
            _, index, response = entry
            exact = truth[ATTRIBUTE].truth(run.plan.query(index))
            accuracy.score(float(response.answer), exact, response.interval)
        elif entry[0] == "board":
            _, cycle, board, response = entry
            failures.extend(
                f"cycle {cycle} board {board}: {failure}"
                for failure in _check_hotlist(
                    response,
                    truth[ATTRIBUTES[board]].counts,
                    run.thresholds[(cycle, board)],
                    accuracy,
                )
            )
        else:
            _, cycle, board, values = entry
            if values.size == 0 or not truth[ATTRIBUTES[board]].counts[values].all():
                failures.append(f"cycle {cycle} board {board}: bad hot list {values}")
    program = run.program
    rows = truth[ATTRIBUTE].rows
    served = (await program.client.stats())["relations"][RELATION]
    if served != rows:
        failures.append(f"relation holds {served} rows, oracle {rows}")
    for name, synopsis in program.synopses.items():
        try:
            _sample_of(synopsis).check_invariants()
        except Exception as error:  # noqa: BLE001 - any drift fails the run
            failures.append(f"{name} check_invariants: {error!r}")
    sample = program.sample
    guards = {
        "tau": sample.threshold,
        "sample_size": sample.sample_size if run.scan else sample.total_count,
        "footprint": sample.footprint,
        "rows": rows,
    }
    return guards, accuracy, failures


def _check_hotlist(
    response: Any, counts: np.ndarray, tau: float, accuracy: Accuracy
) -> list[str]:
    """Check and score one hot-list answer of the audit window.

    The served answer carries the program's interval for its top entry
    only: ``[raw, raw + counting_miss_quantile(tau)]`` around the raw
    count, whose derivation does not depend on rank.  The audit applies
    the same interval to every reported entry (raw = estimate minus the
    compensation ``c-hat``), so a run scores hundreds of independent
    claims instead of one per dashboard.
    """
    entries = response.answer.entries
    if not entries:
        return ["empty hot list"]
    top = response.interval
    if top is None:
        return ["promised top interval missing"]
    failures = [
        f"reported value {entry.value} never loaded"
        for entry in entries
        if counts[entry.value] == 0
    ]
    offset = compensation_constant(tau) if tau > 1 else 0.0
    slack = counting_miss_quantile(tau, top.confidence)
    raw = entries[0].estimated_count - max(0.0, offset)
    if abs(top.low - raw) > 1e-6 or abs(top.high - (raw + slack)) > 1e-6:
        failures.append(f"top interval {top} does not match its derivation")
    for entry in entries:
        raw = entry.estimated_count - max(0.0, offset)
        interval = ConfidenceInterval(raw, raw + slack, top.confidence)
        accuracy.score(entry.estimated_count, float(counts[entry.value]), interval)
    return failures


# -- tracing ---------------------------------------------------------------


def wrap_layers(recorder: SpanRecorder, program: Program) -> None:
    """Spans around every call the server makes into a lower layer."""
    recorder.wrap(program.engine, "answer", "engine.answer")
    recorder.wrap(program.warehouse, "load_batch", "engine.load_batch")
    for synopsis in program.synopses.values():
        recorder.wrap(synopsis, "insert_array", "core.insert")
        if isinstance(synopsis, ConciseSample):
            recorder.wrap(synopsis, "sample_points", "core.expand")
        else:
            recorder.wrap(synopsis, "report", "hotlist.report")
            recorder.wrap(synopsis, "top_interval", "hotlist.report")
    if program.store is not None:
        recorder.wrap(program.store.wal, "append_many", "persist.wal")


def layer_metrics(
    run: ServedRun, phase: Phase, recorder: SpanRecorder
) -> tuple[dict[str, float], list]:
    """Per-layer metrics of the traced requests, and their profiles.

    Cache and WAL counters cover the whole phase; traced and untraced
    iterations do the same work.
    """
    profiles = profile_requests(recorder.spans)
    queries = [p for p in profiles if p.root == "serving.query"]
    ingests = [p for p in profiles if p.root == "serving.ingest"]

    def p50(values: list[float]) -> float:
        return percentile(values, 50) * 1e3 if values else 0.0

    def called(members: list, name: str) -> list[float]:
        return [p.total_time[name] for p in members if p.calls.get(name)]

    answer = [p.total_time["engine.answer"] for p in queries]
    sample = run.program.sample
    rows = phase.traced_rows
    return {
        "serving.query_self_ms_p50": p50([p.self_time["serving.query"] for p in queries]),
        "serving.ingest_self_ms_p50": p50([p.self_time["serving.ingest"] for p in ingests]),
        "serving.ingest_bytes_per_row": phase.request_bytes / rows,
        "engine.answer_ms_p50": p50(answer),
        "engine.answer_ms_p95": percentile(answer, 95) * 1e3,
        "engine.cache_hit_ratio": phase.cache_hits / phase.cache_lookups,
        "engine.load_batch_self_ms_p50": p50(
            [p.self_time["engine.load_batch"] for p in ingests]
        ),
        "core.expand_ms_p50": p50(called(queries, "core.expand")),
        "core.expand_calls_per_query": (
            sum(p.calls.get("core.expand", 0) for p in queries) / len(queries)
        ),
        "core.sample_size": sample.sample_size if run.scan else sample.total_count,
        "core.footprint": sample.footprint,
        "core.tau": sample.threshold,
        "core.insert_us_per_row": (
            sum(p.total_time["core.insert"] for p in ingests) / rows * 1e6
        ),
        "hotlist.report_ms_p50": p50(called(queries, "hotlist.report")),
        "persist.wal_ms_p50": p50(called(ingests, "persist.wal")),
        "persist.wal_bytes_per_row": phase.wal_bytes / phase.ingest_rows,
        "persist.syncs_per_1k_rows": phase.wal_fsyncs / phase.ingest_rows * 1e3,
    }, profiles


# -- the workload ------------------------------------------------------------


async def run_served(
    workload: str, seed: int, seconds: float, trace: bool, workdir: Path
) -> dict:
    scan = workload == "served-scan"
    preload = oracle.preload(
        SCAN_PRELOAD if scan else STREAM_PRELOAD, seed, 1 if scan else len(ATTRIBUTES)
    )
    setups, states = [], []
    program = None
    for attempt in range(SETUPS):
        if program is not None:
            await program.close()
            program = None
            gc.collect()
        directory = workdir / f"setup-{attempt}"
        shutil.rmtree(directory, ignore_errors=True)
        started = perf_counter()
        program = await build(workload, preload, seed, directory)
        setups.append(perf_counter() - started)
        states.append(
            [
                (s.threshold, s.footprint, s.sample_size if scan else s.total_count)
                for s in map(_sample_of, program.synopses.values())
            ]
        )
    run = ServedRun(workload, seed, program)
    result: dict[str, Any] = {"setup_seconds": setups}
    try:
        if trace:
            recorder = SpanRecorder()
            switch = TraceSwitch(recorder, lambda r: wrap_layers(r, program))
            phase = await run.run(seconds, switch)
            layers, result["profiles"] = layer_metrics(run, phase, recorder)
            result["layers"] = {**layers, **overhead_ratios(phase)}
        else:
            phase = await run.run(seconds)
        guards, accuracy, failures = await check(run, preload)
    finally:
        await program.close()
    hits = phase.cache_hits
    if scan:
        designed = 0
        ok = (
            guards["tau"] >= 5
            and guards["sample_size"] >= 8 * guards["footprint"]
            and hits == 0
        )
    else:
        cycles = run.batches
        designed = cycles * len(ATTRIBUTES) * (STREAM_READS - 1)
        ok = hits == designed
    guards.update(cache_hits=hits, designed_hits=designed, setup_state=states[0])
    if not ok or any(state != states[0] for state in states):
        failures.append(f"workload property guard failed: {guards}")
    result.update(
        phase=phase,
        attempted=phase.attempted,
        guards=guards,
        accuracy=accuracy,
        failures=failures,
    )
    return result
