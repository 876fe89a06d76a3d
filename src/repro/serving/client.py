"""A small asyncio client for the AQP service.

One :class:`AQPClient` wraps one TCP connection and (after
:meth:`hello`) one session.  Every method sends a single request frame
and awaits its reply; failure envelopes become typed exceptions, so
backpressure (:class:`ServerBusy`) and shutdown
(:class:`ServerShuttingDown`) are ordinary control flow rather than
hangs or parse errors.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Mapping, Sequence

import numpy as np

from repro.engine.queries import Query
from repro.engine.responses import QueryResponse
from repro.persist.columns import encode_columns
from repro.serving import codec
from repro.serving.protocol import (
    NO_SYNOPSIS,
    SERVER_BUSY,
    SHUTTING_DOWN,
    FrameDecoder,
    ProtocolError,
    encode_request,
    parse_reply,
)

__all__ = [
    "AQPClient",
    "NoSynopsisRemote",
    "ServerBusy",
    "ServerError",
    "ServerShuttingDown",
]

_READ_CHUNK = 1 << 16


class ServerError(Exception):
    """A failure envelope from the server."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class ServerBusy(ServerError):
    """The admission queue was full; retry later."""


class ServerShuttingDown(ServerError):
    """The server is draining and refused new work."""


class NoSynopsisRemote(ServerError):
    """No registered synopsis could answer the query remotely."""


_ERROR_TYPES: dict[str, type[ServerError]] = {
    SERVER_BUSY: ServerBusy,
    SHUTTING_DOWN: ServerShuttingDown,
    NO_SYNOPSIS: NoSynopsisRemote,
}


class AQPClient:
    """One connection + one session against an :class:`AQPServer`.

    Use :meth:`connect` to build one; call :meth:`hello` before the
    session-scoped ops (snapshot/register/query).  Not safe for
    concurrent use from multiple tasks -- open one client per task,
    as the tests and the benchmark load generator do.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._decoder = FrameDecoder(source="client-wire")
        self._pending: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self.session_id: str | None = None

    @classmethod
    async def connect(cls, host: str, port: int) -> AQPClient:
        """Open a connection to a listening server."""
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def close(self) -> None:
        """Close the connection (without a ``bye`` round trip)."""
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def request(
        self, op: str, params: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        """One round trip; returns the result or raises typed errors.

        :class:`ConnectionError` when the server hangs up without a
        reply (e.g. after a crash), :class:`ProtocolError` when the
        reply stream is corrupt, :class:`ServerError` (or a subclass)
        for failure envelopes.
        """
        request_id = next(self._ids)
        self._writer.write(encode_request(request_id, op, params or {}))
        await self._writer.drain()
        payload = await self._next_frame()
        reply_id, result, error = parse_reply(payload)
        if reply_id is not None and reply_id != request_id:
            raise ProtocolError(
                "bad-request",
                f"reply id {reply_id!r} does not match request "
                f"{request_id!r}",
            )
        if error is not None:
            code, message = error
            raise _ERROR_TYPES.get(code, ServerError)(code, message)
        assert result is not None
        return result

    async def _next_frame(self) -> dict[str, Any]:
        while not self._pending:
            data = await self._reader.read(_READ_CHUNK)
            if not data:
                raise ConnectionError(
                    "server closed the connection without replying"
                )
            self._pending.extend(self._decoder.feed(data))
        return self._pending.pop(0)

    # ------------------------------------------------------------------
    # Typed operations
    # ------------------------------------------------------------------

    def _session_params(self, extra: dict[str, Any]) -> dict[str, Any]:
        if self.session_id is None:
            raise RuntimeError("call hello() before session-scoped ops")
        return {"session": self.session_id, **extra}

    async def hello(self) -> dict[str, Any]:
        """Open a session; returns the server's greeting."""
        result = await self.request("hello")
        self.session_id = result["session"]
        return result

    async def ping(self) -> bool:
        """Liveness probe."""
        result = await self.request("ping")
        return bool(result.get("pong"))

    async def snapshot(self) -> dict[str, list[int]]:
        """Pin this session to the current ingest epoch.

        Returns the pinned ``{relation: [ingest, synopsis]}`` epochs.
        """
        result = await self.request(
            "snapshot", self._session_params({})
        )
        return dict(result["epochs"])

    async def register(self, handle: str, query: Query) -> str:
        """Bind a reusable handle to a query."""
        result = await self.request(
            "register",
            self._session_params(
                {"handle": handle, "query": codec.encode_query(query)}
            ),
        )
        return str(result["handle"])

    async def query(
        self,
        query: Query | None = None,
        *,
        handle: str | None = None,
        mode: str | None = None,
        exact: bool = False,
    ) -> QueryResponse:
        """Run a query (by body or by registered handle).

        ``mode`` is ``"pinned"`` / ``"live"``; by default the server
        answers pinned when the session holds a snapshot and the query
        is approximate, live otherwise.
        """
        result = await self.query_raw(
            query, handle=handle, mode=mode, exact=exact
        )
        return codec.decode_response(result["response"])

    async def query_raw(
        self,
        query: Query | None = None,
        *,
        handle: str | None = None,
        mode: str | None = None,
        exact: bool = False,
    ) -> dict[str, Any]:
        """Like :meth:`query` but returns the raw result envelope.

        The byte-identity tests compare these undecoded payloads.
        """
        if (query is None) == (handle is None):
            raise ValueError("pass exactly one of query or handle")
        extra: dict[str, Any] = {}
        if query is not None:
            extra["query"] = codec.encode_query(query)
        else:
            extra["handle"] = handle
        if mode is not None:
            extra["mode"] = mode
        if exact:
            extra["exact"] = True
        return await self.request("query", self._session_params(extra))

    async def ingest(
        self, relation: str, columns: Mapping[str, Sequence[int] | np.ndarray]
    ) -> int:
        """Load one batch of integer lists or arrays; returns rows acked
        by the server."""
        result = await self.request(
            "ingest", {"relation": relation, "columns": encode_columns(columns)}
        )
        return int(result["rows"])

    async def create_relation(
        self, relation: str, attributes: list[str]
    ) -> None:
        """Create a relation on the server."""
        await self.request(
            "create_relation",
            {"relation": relation, "attributes": attributes},
        )

    async def stats(self) -> dict[str, Any]:
        """The server's live load/session statistics."""
        return await self.request("stats")

    async def bye(self) -> None:
        """Close the session and the connection."""
        try:
            await self.request("bye", {})
        finally:
            self.session_id = None
            await self.close()
