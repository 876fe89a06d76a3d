"""One warehouse shard: a worker process over framed socket IPC.

Each worker owns a full single-process stack -- a
:class:`~repro.engine.warehouse.DataWarehouse`, an
:class:`~repro.engine.engine.ApproximateAnswerEngine`, and a
:class:`~repro.persist.recovery.RecoveryManager` over the shard's own
WAL/checkpoint directory -- and serves its coordinator over one socket
speaking the CRC-framed envelopes of :mod:`repro.serving.protocol`
(the torn/corrupt triage of the WAL framing, inherited verbatim).
Every op but ``bye`` and ``crash`` runs through the op table of
:mod:`repro.serving.ops`, the one the AQP server uses, so both fronts
check parameters, decode ingest columns and map errors the same way.

Startup *is* recovery: the worker always rebuilds from its directory
(an empty store recovers to an empty warehouse), re-registers every
checkpointed synopsis binding with a fresh engine -- by the role the
binding stores -- and only then sends its hello frame.  A respawned
worker therefore rejoins with exactly its WAL-recovered state, and the
coordinator's failover path is the ordinary startup path.

Fault injection rides the storage seam: a
:class:`~repro.faults.plan.FaultPlan` in the shard config wraps the
store's filesystem in a :class:`~repro.faults.injector.FaultyFilesystem`;
a planned crash kind terminates the process immediately (``os._exit``,
modelling ``kill -9`` -- no WAL close, no flush), which is how the
tests kill shards deterministically.
"""

from __future__ import annotations

import os
import socket
from dataclasses import dataclass
from typing import Any

from repro.core.concise import ConciseSample
from repro.core.counting import CountingSample
from repro.engine.engine import ApproximateAnswerEngine
from repro.engine.registry import HOTLIST
from repro.engine.snapshots import Snapshotable
from repro.faults.injector import FaultyFilesystem, SimulatedCrash
from repro.faults.plan import FaultPlan
from repro.hotlist.concise import ConciseHotList
from repro.hotlist.counting import CountingHotList
from repro.persist.checkpoint import CheckpointStore
from repro.persist.fsio import LocalFileSystem
from repro.persist.recovery import RecoveryManager
from repro.serving.ops import Operations, describe_error
from repro.serving.protocol import (
    FrameDecoder,
    ProtocolError,
    encode_error,
    encode_result,
    parse_request,
)

__all__ = [
    "HELLO_ID",
    "MAX_FRAME_BYTES",
    "ShardConfig",
    "worker_main",
]

#: Ingest frames carry whole columnar batches; allow well past the
#: serving default (1 MiB) before the oversize guard trips.
MAX_FRAME_BYTES = 64 << 20

#: The reserved request id of the worker's unsolicited ready frame.
HELLO_ID = "__hello__"

_RECV_BYTES = 1 << 16


@dataclass(frozen=True)
class ShardConfig:
    """Everything a worker process needs to boot (picklable).

    ``recovery_seed`` re-seeds restored synopsis randomness; the
    coordinator derives it -- and every synopsis seed it later sends
    in ``register_synopsis`` ops -- via :func:`repro.randkit.spawn_seeds`,
    so no RNG object ever crosses the process boundary (RL016).
    """

    index: int
    directory: str
    recovery_seed: int
    sync_every: int = 1
    fault_plan: FaultPlan | None = None


def _recover(config: ShardConfig) -> tuple[Operations, dict[str, Any]]:
    """Rebuild the shard from its directory: its ops and hello frame."""
    filesystem = None
    if config.fault_plan is not None:
        filesystem = FaultyFilesystem(LocalFileSystem(), config.fault_plan)
    store = CheckpointStore(
        config.directory, filesystem, sync_every=config.sync_every
    )
    manager = RecoveryManager(store)
    state = manager.recover(seed=config.recovery_seed)
    engine = ApproximateAnswerEngine(state.warehouse)
    # The fresh engine saw none of the recovered loads; prime its
    # population counts so sample scaling survives the restart.
    engine.adopt_row_counts()
    for binding in manager.bindings:
        if binding.role == HOTLIST:
            engine.register_hotlist(
                binding.relation,
                binding.attribute,
                _wrap_hotlist(binding.synopsis),
            )
        else:
            engine.register_sample(
                binding.relation, binding.attribute, binding.synopsis
            )
    manager.attach(state.warehouse)
    hello = {
        "op": "hello",
        "shard": config.index,
        "sequence": state.sequence,
        "replayed": state.replayed,
    }
    return Operations(state.warehouse, engine, manager), hello


def _wrap_hotlist(
    sample: Snapshotable,
) -> ConciseHotList | CountingHotList:
    """A reporter sharing (not copying) a recovered backing sample."""
    if isinstance(sample, CountingSample):
        reporter: ConciseHotList | CountingHotList = CountingHotList(
            sample.footprint_bound, seed=0
        )
    elif isinstance(sample, ConciseSample):
        reporter = ConciseHotList(sample.footprint_bound, seed=0)
    else:
        raise ValueError(
            f"{type(sample).__name__} cannot back a hot list"
        )
    # The constructor's fresh sample is discarded; the reporter serves
    # from -- and the engine live-feeds -- the recovered one.
    reporter.sample = sample  # type: ignore[assignment]
    return reporter


def worker_main(config: ShardConfig, channel: socket.socket) -> None:
    """The worker process entry point: recover, hello, serve, die.

    Runs until the coordinator sends ``bye`` (graceful: detach the
    WAL, close the store) or the socket closes.  A
    :class:`~repro.faults.injector.SimulatedCrash` from the fault plan
    -- and any ``crash`` op -- terminates the process immediately
    without cleanup, modelling a hard kill.
    """
    try:
        ops, hello = _recover(config)
    except SimulatedCrash:
        os._exit(2)
        return  # pragma: no cover - unreachable
    manager = ops.manager
    assert manager is not None
    decoder = FrameDecoder(
        max_frame_bytes=MAX_FRAME_BYTES,
        source=f"shard-{config.index}",
    )
    channel.sendall(encode_result(HELLO_ID, hello))
    try:
        while True:
            data = channel.recv(_RECV_BYTES)
            if not data:
                return
            try:
                payloads = decoder.feed(data)
            except ProtocolError:
                return  # corrupt inbound stream: nothing safe to say
            for payload in payloads:
                try:
                    request_id, op, params = parse_request(payload)
                except ProtocolError as error:
                    channel.sendall(
                        encode_error(None, error.code, error.message)
                    )
                    continue
                if op == "bye":
                    channel.sendall(encode_result(request_id, {}))
                    manager.detach()
                    manager.store.close()
                    return
                if op == "crash":
                    os._exit(2)
                try:
                    result = ops.call(op, params)
                except SimulatedCrash:
                    os._exit(2)
                except Exception as error:  # noqa: BLE001 - wire boundary
                    code, message = describe_error(error)
                    channel.sendall(encode_error(request_id, code, message))
                else:
                    channel.sendall(encode_result(request_id, result))
    except (BrokenPipeError, ConnectionResetError, OSError):
        return
    finally:
        channel.close()
