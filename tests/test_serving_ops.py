"""One request-handling core behind both network fronts.

The AQP server and the shard worker run their ops through the same op
table (:mod:`repro.serving.ops`).  These tests drive both fronts over
real sockets -- the server over TCP, the worker's blocking loop on a
``socket.socketpair()`` in a thread -- and check that:

* every malformed request of one table gets the same error code from
  both fronts, and changes nothing;
* a refused ``register_synopsis`` leaves nothing registered, so the
  corrected retry succeeds;
* synopsis roles survive checkpoints, and a checkpoint written before
  roles were stored recovers to the same registrations.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
import threading
from pathlib import Path
from typing import Any

import numpy as np
import pytest

from repro.core.concise import ConciseSample
from repro.cluster.worker import HELLO_ID, MAX_FRAME_BYTES, ShardConfig, worker_main
from repro.engine import ApproximateAnswerEngine, DataWarehouse
from repro.engine.queries import CountQuery, HotListQuery
from repro.persist import CheckpointStore, RecoveryManager
from repro.persist.framing import ARRAY_MARKER
from repro.serving import AQPClient, AQPServer, ServerError, codec
from repro.serving.protocol import FrameDecoder, encode_request, parse_reply

TIMEOUT = 30.0
RELATION = "sales"
ATTRIBUTE = "item"


def ints(values: Any) -> dict[str, Any]:
    return {"kind": "int", "values": values}


COUNT = codec.encode_query(CountQuery(RELATION, ATTRIBUTE))

#: (case, op, params, expected error code)
MALFORMED = [
    (
        "non-string relation",
        "create_relation",
        {"relation": 5, "attributes": ["a", "b"]},
        "bad-request",
    ),
    (
        "string attributes",
        "create_relation",
        {"relation": "t", "attributes": "ab"},
        "bad-request",
    ),
    (
        "non-list column",
        "ingest",
        {"relation": RELATION, "columns": {ATTRIBUTE: ints("12")}},
        "bad-request",
    ),
    (
        "untagged column",
        "ingest",
        {"relation": RELATION, "columns": {ATTRIBUTE: [1, 2]}},
        "bad-request",
    ),
    (
        "non-integral column",
        "ingest",
        {"relation": RELATION, "columns": {ATTRIBUTE: ints(["x", "y"])}},
        "bad-request",
    ),
    (
        "fractional values in an int column",
        "ingest",
        {"relation": RELATION, "columns": {ATTRIBUTE: ints([1.5, 2])}},
        "bad-request",
    ),
    (
        "numeric strings in an int column",
        "ingest",
        {"relation": RELATION, "columns": {ATTRIBUTE: ints(["3", "4"])}},
        "bad-request",
    ),
    (
        "booleans in an int column",
        "ingest",
        {"relation": RELATION, "columns": {ATTRIBUTE: ints([True, False])}},
        "bad-request",
    ),
    (
        "nested lists in an int column",
        "ingest",
        {"relation": RELATION, "columns": {ATTRIBUTE: ints([[1, 2], [3, 4]])}},
        "bad-request",
    ),
    (
        "float column",
        "ingest",
        {
            "relation": RELATION,
            "columns": {ATTRIBUTE: {"kind": "float", "values": [1.5]}},
        },
        "bad-request",
    ),
    (
        "ragged columns",
        "ingest",
        {
            "relation": RELATION,
            "columns": {ATTRIBUTE: ints([1, 2]), "other": ints([1])},
        },
        "bad-request",
    ),
    (
        "unknown relation",
        "ingest",
        {"relation": "nope", "columns": {ATTRIBUTE: ints([1, 2])}},
        "query-error",
    ),
    (
        "undecodable query",
        "query",
        {"query": {"type": "bogus", "relation": RELATION, "attribute": ATTRIBUTE}},
        "bad-request",
    ),
    (
        "non-bool exact",
        "query",
        {"query": COUNT, "exact": "no"},
        "bad-request",
    ),
    ("unknown op", "frobnicate", {}, "bad-request"),
    (
        "binary float column",
        "ingest",
        {"relation": RELATION, "columns": {ATTRIBUTE: np.array([1.5, 2.5])}},
        "bad-request",
    ),
    *[
        (
            f"binary {dtype} descriptor",
            "ingest",
            {
                "relation": RELATION,
                "columns": {ATTRIBUTE: {ARRAY_MARKER: [dtype, 0, 1]}},
                "pad": np.zeros(2, dtype=np.int64),
            },
            "bad-request",
        )
        for dtype in ("|b1", "<U4", ">i4", "|O")
    ],
    (
        "binary descriptor past the end",
        "ingest",
        {
            "relation": RELATION,
            "columns": {ATTRIBUTE: {ARRAY_MARKER: ["<i8", 8, 2]}},
            "pad": np.zeros(2, dtype=np.int64),
        },
        "bad-request",
    ),
    (
        "binary descriptor with a negative offset",
        "ingest",
        {
            "relation": RELATION,
            "columns": {ATTRIBUTE: {ARRAY_MARKER: ["<i8", -8, 1]}},
            "pad": np.zeros(2, dtype=np.int64),
        },
        "bad-request",
    ),
    (
        "binary descriptor with a negative count",
        "ingest",
        {
            "relation": RELATION,
            "columns": {ATTRIBUTE: {ARRAY_MARKER: ["<i8", 0, -1]}},
            "pad": np.zeros(2, dtype=np.int64),
        },
        "bad-request",
    ),
    (
        "binary descriptor without a binary section",
        "ingest",
        {"relation": RELATION, "columns": {ATTRIBUTE: {ARRAY_MARKER: ["<i8", 0, 0]}}},
        "bad-request",
    ),
    (
        "binary uint64 above the int64 maximum",
        "ingest",
        {
            "relation": RELATION,
            "columns": {ATTRIBUTE: {ARRAY_MARKER: ["<u8", 0, 1]}},
            "pad": np.array([-1], dtype=np.int64),
        },
        "bad-request",
    ),
    (
        "ragged binary columns",
        "ingest",
        {
            "relation": RELATION,
            "columns": {ATTRIBUTE: np.array([1, 2]), "other": np.array([1])},
        },
        "bad-request",
    ),
]


class WorkerFront:
    """A shard worker's blocking loop on a socketpair, in a thread."""

    def __init__(self, directory: Path, *, seed: int = 7) -> None:
        self.channel, child = socket.socketpair()
        self.channel.settimeout(TIMEOUT)
        config = ShardConfig(index=0, directory=str(directory), recovery_seed=seed)
        self.thread = threading.Thread(
            target=worker_main, args=(config, child), daemon=True
        )
        self.thread.start()
        self.decoder = FrameDecoder(max_frame_bytes=MAX_FRAME_BYTES)
        self.ids = itertools.count(1)
        self.hello = self._reply(HELLO_ID)

    def _reply(self, request_id: Any) -> tuple[Any, Any]:
        while True:
            data = self.channel.recv(1 << 16)
            assert data, "worker hung up"
            for payload in self.decoder.feed(data):
                reply_id, result, error = parse_reply(payload)
                if reply_id == request_id:
                    return result, error

    def request(self, op: str, params: dict[str, Any]) -> tuple[Any, Any]:
        """``(result, None)`` or ``(None, (code, message))``."""
        request_id = next(self.ids)
        self.channel.sendall(encode_request(request_id, op, params))
        return self._reply(request_id)

    def ok(self, op: str, params: dict[str, Any]) -> dict[str, Any]:
        result, error = self.request(op, params)
        assert error is None, error
        return result

    def close(self) -> None:
        self.ok("bye", {})
        self.thread.join(TIMEOUT)
        self.channel.close()


def registration(*, seeds: list[int], hotlist: bool) -> dict[str, Any]:
    return {
        "relation": RELATION,
        "attribute": ATTRIBUTE,
        "kind": "counting-sample",
        "footprint_bound": 16,
        "seeds": seeds,
        "hotlist": hotlist,
    }


def server_code(op: str, params: dict[str, Any]) -> tuple[str, dict[str, int]]:
    """The server's error code for one request, and its relations after."""

    async def scenario() -> tuple[str, dict[str, int]]:
        warehouse = DataWarehouse()
        engine = ApproximateAnswerEngine(warehouse)
        warehouse.create_relation(RELATION, [ATTRIBUTE])
        engine.register_sample(RELATION, ATTRIBUTE, ConciseSample(16, seed=1))
        server = AQPServer(warehouse, engine)
        client = await AQPClient.connect(*await server.start())
        try:
            await client.hello()
            with pytest.raises(ServerError) as caught:
                await client.request(op, {"session": client.session_id, **params})
            relations = (await client.stats())["relations"]
        finally:
            await client.close()
            await server.shutdown()
        return caught.value.code, relations

    return asyncio.run(asyncio.wait_for(scenario(), TIMEOUT))


def worker_code(
    directory: Path, op: str, params: dict[str, Any]
) -> tuple[str, dict[str, int]]:
    """The worker's error code for one request, and its relations after."""
    worker = WorkerFront(directory)
    try:
        worker.ok("create_relation", {"relation": RELATION, "attributes": [ATTRIBUTE]})
        worker.ok("register_synopsis", registration(seeds=[1], hotlist=False))
        result, error = worker.request(op, params)
        assert result is None, f"{op} {params} was accepted: {result}"
        relations = worker.ok("stats", {})["relations"]
    finally:
        worker.close()
    return error[0], relations


@pytest.mark.parametrize(
    "op, params, code",
    [case[1:] for case in MALFORMED],
    ids=[case[0] for case in MALFORMED],
)
def test_malformed_request_gets_one_code_from_both_fronts(tmp_path, op, params, code):
    """Both fronts refuse the request with the same code and keep
    their relations exactly as they were."""
    assert server_code(op, params) == (code, {RELATION: 0})
    assert worker_code(tmp_path, op, params) == (code, {RELATION: 0})


def test_refused_hotlist_registration_leaves_nothing_bound(tmp_path):
    """A one-seed hot-list registration is refused before the engine
    or the manager is touched, so the two-seed retry succeeds."""
    worker = WorkerFront(tmp_path)
    try:
        worker.ok("create_relation", {"relation": RELATION, "attributes": [ATTRIBUTE]})
        _, error = worker.request("register_synopsis", registration(seeds=[1], hotlist=True))
        assert error is not None and error[0] == "bad-request"
        assert worker.ok("stats", {})["bindings"] == 0
        worker.ok("register_synopsis", registration(seeds=[1, 2], hotlist=True))
        assert worker.ok("stats", {})["bindings"] == 2
        hot = codec.encode_query(HotListQuery(RELATION, ATTRIBUTE, k=3))
        worker.ok("ingest", {"relation": RELATION, "columns": {ATTRIBUTE: ints([1, 1, 2])}})
        assert worker.ok("query", {"query": hot})["response"]["method"]
        for role in ("sample", "hotlist"):
            params = {"relation": RELATION, "attribute": ATTRIBUTE, "role": role}
            assert worker.ok("synopsis", params)["state"]
    finally:
        worker.close()


def strip_roles(source: Path, target: Path) -> None:
    """Copy ``source``'s newest checkpoint to ``target`` without roles,
    as checkpoints were written before roles were stored."""
    store = CheckpointStore(source)
    latest = store.latest_checkpoint()
    store.close()
    assert latest is not None
    sequence, state = latest
    assert [entry["role"] for entry in state["synopses"]] == ["sample", "hotlist"]
    for entry in state["synopses"]:
        del entry["role"]
    copy = CheckpointStore(target)
    copy.write_checkpoint(sequence, state)
    copy.close()


def recovered_bindings(directory: Path) -> list[tuple[str, str, str]]:
    store = CheckpointStore(directory)
    manager = RecoveryManager(store)
    manager.recover(seed=3)
    store.close()
    return [(b.relation, b.attribute, b.role) for b in manager.bindings]


def test_roleless_checkpoint_recovers_to_the_same_registrations(tmp_path):
    """A checkpoint with roles and its role-less copy recover to the
    same bindings, and a worker booted on the copy serves its hot list."""
    current, legacy = tmp_path / "current", tmp_path / "legacy"
    worker = WorkerFront(current)
    try:
        worker.ok("create_relation", {"relation": RELATION, "attributes": [ATTRIBUTE]})
        worker.ok("ingest", {"relation": RELATION, "columns": {ATTRIBUTE: ints([4, 4, 5])}})
        worker.ok("register_synopsis", registration(seeds=[1, 2], hotlist=True))
    finally:
        worker.close()
    strip_roles(current, legacy)

    expected = [(RELATION, ATTRIBUTE, "sample"), (RELATION, ATTRIBUTE, "hotlist")]
    assert recovered_bindings(current) == expected
    assert recovered_bindings(legacy) == expected

    states = []
    for directory in (current, legacy):
        worker = WorkerFront(directory)
        try:
            assert worker.ok("stats", {})["rows"] == {RELATION: 3}
            hot = codec.encode_query(HotListQuery(RELATION, ATTRIBUTE, k=3))
            assert worker.ok("query", {"query": hot})["response"]["method"]
            states.append(
                [
                    worker.ok(
                        "synopsis",
                        {"relation": RELATION, "attribute": ATTRIBUTE, "role": role},
                    )["state"]
                    for role in ("sample", "hotlist")
                ]
            )
        finally:
            worker.close()
    assert states[0] == states[1]
