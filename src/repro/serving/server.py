"""The AQP network service: an asyncio TCP server over the warehouse.

One :class:`AQPServer` owns a
:class:`~repro.engine.warehouse.DataWarehouse` and its
:class:`~repro.engine.engine.ApproximateAnswerEngine`; clients speak
the CRC-framed envelope protocol of :mod:`repro.serving.protocol`.
Connections are handled concurrently but each connection's requests
run in order, and all synopsis/warehouse access happens on the event
loop -- batches stay atomic with respect to queries by construction.
The op bodies, their parameter checks and the error-code map live in
:mod:`repro.serving.ops`, shared with the shard worker; the server
adds sessions, pinned/live mode, admission, draining and tracing.

Three contracts the test battery enforces:

* **Read-snapshot isolation** -- a session's ``snapshot`` op pins a
  :class:`~repro.engine.pinned.PinnedEngineView`; its pinned-mode
  queries answer as of that epoch no matter how much concurrent
  ingest lands.
* **Bounded admission** -- at most ``max_in_flight`` heavy requests
  (query/ingest) execute at once and at most ``max_queue`` wait;
  beyond that the client gets a typed ``server-busy`` error
  immediately, never a hang.
* **Graceful shutdown** -- :meth:`shutdown` stops accepting, drains
  in-flight requests, then syncs the WAL group-commit buffer through
  the recovery manager's drain hook before closing connections, so
  every acked ingest is durable.  :meth:`abort` is the crash path:
  nothing is drained (fault-injection tests use it to model a kill).

The server never reads a clock directly (RL009): timing comes from an
injected ``clock`` callable defaulting to
:func:`repro.obs.clock.monotonic`, and fault tests substitute a
:class:`~repro.obs.clock.FakeClock`.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable

from repro.engine.engine import ApproximateAnswerEngine
from repro.engine.queries import Query
from repro.engine.warehouse import DataWarehouse
from repro.obs import clock as obs_clock
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import ActiveTrace
from repro.persist.recovery import RecoveryManager
from repro.serving import codec
from repro.serving.metrics import ServerMetrics
from repro.serving.ops import Operations, decode_query, describe_error, flag, string
from repro.serving.protocol import (
    BAD_REQUEST,
    DEFAULT_MAX_FRAME_BYTES,
    NO_SESSION,
    SERVER_BUSY,
    SHUTTING_DOWN,
    FrameDecoder,
    ProtocolError,
    encode_error,
    encode_result,
    parse_request,
)
from repro.serving.session import Session

__all__ = ["AQPServer"]

#: Ops that go through the bounded admission queue; everything else
#: (hello/ping/snapshot/register/stats/bye) is cheap bookkeeping and
#: bypasses it.
_HEAVY_OPS = frozenset({"query", "ingest"})

#: Ops served straight from the shared op table (:mod:`repro.serving.ops`).
_TABLE_OPS = frozenset({"create_relation", "ingest"})

_READ_CHUNK = 1 << 16


class AQPServer:
    """Sessioned concurrent query/ingest service over one warehouse.

    Parameters
    ----------
    warehouse, engine:
        The owned warehouse and its engine.  The server is the only
        writer once serving starts.
    manager:
        Optional :class:`~repro.persist.recovery.RecoveryManager`
        already attached to the warehouse; graceful shutdown calls its
        :meth:`~repro.persist.recovery.RecoveryManager.drain` so the
        WAL group-commit buffer reaches stable storage.
    registry:
        Optional metrics registry for the ``repro_server_*``
        instruments (defaults to the process registry, a no-op unless
        observability is enabled).
    clock:
        Monotonic-seconds callable for latency instruments.
    max_in_flight, max_queue:
        The admission bound: concurrent heavy requests, and waiters
        beyond them before ``server-busy``.
    max_frame_bytes:
        Largest request payload a client may frame.
    fatal_exceptions:
        Exception types the request loop must *not* convert into
        ``internal`` error responses: they abort the whole server and
        re-raise.  Fault tests pass ``(SimulatedCrash,)`` so an
        injected WAL crash kills the process model, exactly like a
        real power cut.
    """

    def __init__(
        self,
        warehouse: DataWarehouse,
        engine: ApproximateAnswerEngine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        manager: RecoveryManager | None = None,
        registry: MetricsRegistry | None = None,
        clock: Callable[[], float] = obs_clock.monotonic,
        max_in_flight: int = 8,
        max_queue: int = 16,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        fatal_exceptions: tuple[type[BaseException], ...] = (),
    ) -> None:
        if max_in_flight <= 0:
            raise ValueError("max_in_flight must be positive")
        if max_queue < 0:
            raise ValueError("max_queue must be non-negative")
        self.warehouse = warehouse
        self.engine = engine
        self.manager = manager
        self.ops = Operations(warehouse, engine, manager)
        self.max_in_flight = max_in_flight
        self.max_queue = max_queue
        self.max_frame_bytes = max_frame_bytes
        self.fatal_error: BaseException | None = None
        self._host = host
        self._port = port
        self._clock = clock
        self._fatal = tuple(fatal_exceptions)
        self._metrics = ServerMetrics(registry)
        self._server: asyncio.AbstractServer | None = None
        self._admission = asyncio.Semaphore(max_in_flight)
        self._waiting = 0
        self._active = 0
        self._draining = False
        self._drained = asyncio.Event()
        self._drained.set()
        self._sessions: dict[str, Session] = {}
        self._session_counter = 0
        self._writers: set[asyncio.StreamWriter] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; valid after :meth:`start`."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not listening")
        name = self._server.sockets[0].getsockname()
        return name[0], name[1]

    async def start(self) -> tuple[str, int]:
        """Bind and begin accepting; returns the listening address."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        return self.address

    async def shutdown(self) -> None:
        """Graceful stop: drain in-flight work, then the WAL buffer.

        New heavy requests on existing connections are refused with
        ``shutting-down`` from the moment this is called.  Safe to
        call twice; the second call just waits again.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._drained.wait()
        if self.manager is not None:
            self.manager.drain()
        await self._close_connections()

    def abort(self) -> None:
        """Crash-stop: close everything now, drain nothing.

        The fault-injection model of a kill: acked-but-unsynced WAL
        records are abandoned to whatever the filesystem made durable,
        exactly as a power cut would.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
        for writer in list(self._writers):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        self._writers.clear()

    async def _close_connections(self) -> None:
        for writer in list(self._writers):
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                continue
        self._writers.clear()

    # ------------------------------------------------------------------
    # Connection loop
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._metrics.connections_total.inc()
        self._writers.add(writer)
        decoder = FrameDecoder(max_frame_bytes=self.max_frame_bytes)
        sessions: list[Session] = []
        try:
            await self._connection_loop(reader, writer, decoder, sessions)
        except self._fatal:
            # abort() already ran and fatal_error is recorded; the
            # connection task dies quietly, exactly as the process
            # would have.
            pass
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            # The peer vanished mid-stream; its sessions are closed in
            # the finally block and nothing else is affected.
            pass
        finally:
            for session in sessions:
                self._close_session(session)
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _connection_loop(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        decoder: FrameDecoder,
        sessions: list[Session],
    ) -> None:
        while True:
            data = await reader.read(_READ_CHUNK)
            if not data:
                return
            self._metrics.bytes_read_total.inc(len(data))
            try:
                payloads = decoder.feed(data)
            except ProtocolError as error:
                # A torn frame can only mean the peer's stream is
                # corrupt or hostile; answer once, typed, and hang up.
                self._metrics.protocol_errors_total.inc()
                await self._send(
                    writer,
                    encode_error(None, error.code, error.message),
                )
                return
            for payload in payloads:
                goodbye = await self._handle_request(
                    payload, writer, sessions
                )
                if goodbye:
                    return

    async def _send(
        self, writer: asyncio.StreamWriter, data: bytes
    ) -> None:
        writer.write(data)
        self._metrics.bytes_written_total.inc(len(data))
        await writer.drain()

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------

    async def _handle_request(
        self,
        payload: dict[str, Any],
        writer: asyncio.StreamWriter,
        sessions: list[Session],
    ) -> bool:
        """Answer one envelope; True when the connection should close."""
        try:
            request_id, op, params = parse_request(payload)
        except ProtocolError as error:
            fallback = payload.get("id") if isinstance(payload, dict) else None
            self._metrics.requests_total("invalid", "error").inc()
            await self._send(
                writer, encode_error(fallback, error.code, error.message)
            )
            return False
        started = self._clock()
        heavy = op in _HEAVY_OPS
        tracer = self.engine.tracer
        refusal: tuple[str, str, str] | None = None
        if self._draining and op != "bye":
            refusal = (
                "error", SHUTTING_DOWN, "server is draining; no new requests"
            )
        elif heavy and self._waiting >= self.max_queue:
            self._metrics.busy_total.inc()
            refusal = (
                "busy",
                SERVER_BUSY,
                f"admission queue full ({self._waiting} waiting); retry later",
            )
        if refusal is not None:
            outcome, code, message = refusal
            self._metrics.requests_total(op, outcome).inc()
            if op == "query" and tracer is not None:
                # A refused query is a failed query root, like one
                # that fails to decode.
                refused = tracer.start_trace()
                refused.record_query(None, error=ProtocolError(code, message))
                refused.finish(code, error=code)
            await self._send(writer, encode_error(request_id, code, message))
            return False

        # One trace per query request: the server opens the root and
        # hands it to the engine, which adds its phases.
        trace = (
            tracer.start_trace()
            if op == "query" and tracer is not None
            else None
        )
        admitted = False
        try:
            if heavy:
                await self._admit(trace)
                admitted = True
            self._active += 1
            self._drained.clear()
            self._metrics.in_flight.inc()
            try:
                result, goodbye = await self._execute(
                    op, params, sessions, trace
                )
                self._metrics.requests_total(op, "ok").inc()
                await self._send(writer, encode_result(request_id, result))
                return goodbye
            except self._fatal as error:
                # A simulated crash: abort the server; no error response
                # may be written (the transport is gone).
                self.fatal_error = error
                self.abort()
                raise
            except Exception as error:
                code, message = describe_error(error)
                self._metrics.requests_total(op, "error").inc()
                await self._send(
                    writer, encode_error(request_id, code, message)
                )
                return False
            finally:
                self._metrics.request_seconds(op).observe(
                    self._clock() - started
                )
                self._metrics.in_flight.dec()
                self._active -= 1
                if self._active == 0:
                    self._drained.set()
                if admitted:
                    self._admission.release()
        finally:
            if trace is not None:
                trace.finish()

    async def _admit(self, trace: ActiveTrace | None) -> None:
        """Wait for an admission slot, timing the queue wait."""
        self._waiting += 1
        self._metrics.queue_depth.inc()
        wait_started = self._clock()
        try:
            if trace is not None:
                with trace.child("queue_wait"):
                    await self._admission.acquire()
            else:
                await self._admission.acquire()
        except BaseException as error:
            if trace is not None:
                trace.record_query(None, error=error)
            raise
        finally:
            self._waiting -= 1
            self._metrics.queue_depth.dec()
            self._metrics.queue_wait_seconds.observe(
                self._clock() - wait_started
            )

    async def _execute(
        self,
        op: str,
        params: dict[str, Any],
        sessions: list[Session],
        trace: ActiveTrace | None,
    ) -> tuple[dict[str, Any], bool]:
        """Run one op; returns ``(result, close_connection)``."""
        if op == "hello":
            return self._op_hello(sessions), False
        if op == "ping":
            return {"pong": True}, False
        if op == "snapshot":
            return self._op_snapshot(params), False
        if op == "register":
            return self._op_register(params), False
        if op == "query":
            return self._op_query(params, trace), False
        if op == "stats":
            return self._op_stats(), False
        if op == "bye":
            return self._op_bye(params, sessions), True
        if op in _TABLE_OPS:
            return self.ops.call(op, params), False
        raise ProtocolError(BAD_REQUEST, f"unknown op {op!r}")

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def _op_hello(self, sessions: list[Session]) -> dict[str, Any]:
        self._session_counter += 1
        session = Session(f"s{self._session_counter}")
        self._sessions[session.session_id] = session
        sessions.append(session)
        self._metrics.sessions_total.inc()
        self._metrics.sessions_open.inc()
        return {
            "session": session.session_id,
            "server": "repro-aqp",
            "relations": self.warehouse.relation_names(),
        }

    def _session_for(self, params: dict[str, Any]) -> Session:
        session_id = params.get("session")
        session = (
            self._sessions.get(session_id)
            if isinstance(session_id, str)
            else None
        )
        if session is None:
            raise ProtocolError(
                NO_SESSION, f"unknown session {session_id!r}"
            )
        return session

    def _close_session(self, session: Session) -> None:
        if self._sessions.pop(session.session_id, None) is not None:
            self._metrics.sessions_open.dec()

    def _op_snapshot(self, params: dict[str, Any]) -> dict[str, Any]:
        session = self._session_for(params)
        session.pin(self.engine.pin_view())
        return {"epochs": session.snapshot_epochs()}

    def _op_register(self, params: dict[str, Any]) -> dict[str, Any]:
        session = self._session_for(params)
        handle = string(params, "handle")
        session.register(handle, decode_query(params.get("query")))
        return {"handle": handle}

    def _op_query(
        self, params: dict[str, Any], trace: ActiveTrace | None
    ) -> dict[str, Any]:
        query: Query | None = None
        exact = False
        try:
            session = self._session_for(params)
            if "handle" in params:
                handle = params["handle"]
                try:
                    query = session.resolve(handle)
                except KeyError:
                    raise ProtocolError(
                        BAD_REQUEST, f"unregistered handle {handle!r}"
                    ) from None
            else:
                query = decode_query(params.get("query"))
            exact = flag(params, "exact")
            mode = params.get("mode")
            if mode is None:
                mode = (
                    "pinned"
                    if session.pinned is not None and not exact
                    else "live"
                )
            if mode not in ("pinned", "live"):
                raise ProtocolError(
                    BAD_REQUEST, f"mode must be pinned or live, not {mode!r}"
                )
            if exact and mode == "pinned":
                raise ProtocolError(
                    BAD_REQUEST,
                    "exact queries scan live base data; use mode=live",
                )
            if mode == "live":
                response = self.engine.answer(query, exact=exact, trace=trace)
            elif session.pinned is None:
                raise ProtocolError(
                    BAD_REQUEST, "no snapshot pinned; send a snapshot op first"
                )
            elif trace is None:
                response = session.pinned.answer(query)
            else:
                with trace.child("synopsis_answer"):
                    response = session.pinned.answer(query)
                trace.record_query(query, response)
        except Exception as error:
            if trace is not None:
                trace.record_query(query, error=error, requested_exact=exact)
            raise
        return {
            "response": codec.encode_response(response),
            "mode": mode,
        }

    def _op_stats(self) -> dict[str, Any]:
        return {
            **self.ops.stats({}),
            "sessions": len(self._sessions),
            "in_flight": self._active,
            "queue_depth": self._waiting,
            "draining": self._draining,
        }

    def _op_bye(
        self, params: dict[str, Any], sessions: list[Session]
    ) -> dict[str, Any]:
        for session in sessions:
            self._close_session(session)
        sessions.clear()
        return {"closed": True}
