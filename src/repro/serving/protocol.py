"""The wire protocol: CRC-framed JSON envelopes over a byte stream.

Every message in either direction is one frame in the
:mod:`repro.persist.framing` codec -- ``<length:08x> <crc32:08x>
<hcrc32:08x> <payload>\\n``, the payload being JSON optionally
followed by a binary section of raw column buffers (an ingest
request's columns travel there) -- so the wire inherits the WAL's
torn-vs-corrupt triage: an incomplete frame is simply *not yet
arrived* (the decoder waits for more bytes), while a complete frame
that fails its checksum, a malformed header, or a wrong terminator is
corruption and surfaces as a :class:`ProtocolError` the peer can
report cleanly.  A silent partial decode is impossible by
construction.

Envelopes:

* request: ``{"id": ..., "op": "...", "params": {...}}``
* success: ``{"id": ..., "ok": true, "result": {...}}``
* failure: ``{"id": ..., "ok": false, "error": {"code": "...",
  "message": "..."}}``

``id`` is caller-chosen and echoed verbatim, so a client can match
pipelined responses to requests.
"""

from __future__ import annotations

from typing import Any

from repro.persist.errors import ChecksumMismatch
from repro.persist.framing import HEADER_LENGTH, decode_frames, encode_frame

__all__ = [
    "BAD_FRAME",
    "BAD_REQUEST",
    "DEFAULT_MAX_FRAME_BYTES",
    "FrameDecoder",
    "INTERNAL",
    "NO_SESSION",
    "NO_SYNOPSIS",
    "ProtocolError",
    "QUERY_ERROR",
    "SERVER_BUSY",
    "SHUTTING_DOWN",
    "encode_error",
    "encode_request",
    "encode_result",
    "parse_reply",
    "parse_request",
]

#: Largest payload a peer may frame; bigger declared lengths are
#: rejected before the payload is buffered.
DEFAULT_MAX_FRAME_BYTES = 1 << 20

# Error codes carried in failure envelopes.  Typed, not free-form:
# clients dispatch on them (ServerBusy is the backpressure contract).
BAD_FRAME = "bad-frame"
BAD_REQUEST = "bad-request"
SERVER_BUSY = "server-busy"
SHUTTING_DOWN = "shutting-down"
NO_SESSION = "no-session"
NO_SYNOPSIS = "no-synopsis"
QUERY_ERROR = "query-error"
INTERNAL = "internal"


class ProtocolError(Exception):
    """A wire-level violation: corrupt frame or malformed envelope."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class FrameDecoder:
    """Incremental frame reassembly for one direction of one socket.

    Feed it whatever ``read()`` returned; it returns every frame that
    completed and buffers the rest.  Corruption (checksum or header
    failure, wrong terminator) and oversized declared lengths raise
    :class:`ProtocolError` -- after which the stream is unusable and
    the connection should be closed.
    """

    def __init__(
        self,
        *,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        source: str = "wire",
    ) -> None:
        if max_frame_bytes <= 0:
            raise ValueError("max_frame_bytes must be positive")
        self.max_frame_bytes = max_frame_bytes
        self._source = source
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered inside an incomplete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[dict[str, Any]]:
        """Absorb bytes; return the payloads of every completed frame."""
        self._buffer.extend(data)
        self._reject_oversized()
        try:
            payloads, torn = decode_frames(
                bytes(self._buffer), source=self._source
            )
        except ChecksumMismatch as error:
            raise ProtocolError(
                BAD_FRAME, f"corrupt frame: {error}"
            ) from error
        if torn is None:
            self._buffer.clear()
        else:
            del self._buffer[: torn.offset]
        return payloads

    def _reject_oversized(self) -> None:
        """Refuse any frame whose header declares too long a payload.

        Walks every complete header in the buffer *before* decoding,
        so an oversized frame is rejected whether it arrived whole in
        one read or is still trickling in -- the peer never gets to
        make the server buffer an unbounded payload.  A header that
        does not even parse as hex is left for the decoder's own
        corruption triage.
        """
        buffer = self._buffer
        offset = 0
        while len(buffer) - offset >= 8:
            try:
                declared = int(bytes(buffer[offset : offset + 8]), 16)
            except ValueError:
                return
            if declared > self.max_frame_bytes:
                raise ProtocolError(
                    BAD_FRAME,
                    f"declared frame length {declared} exceeds the "
                    f"{self.max_frame_bytes}-byte limit",
                )
            offset += HEADER_LENGTH + declared + 1


def encode_request(
    request_id: Any, op: str, params: dict[str, Any]
) -> bytes:
    """One request envelope as a wire frame."""
    return encode_frame({"id": request_id, "op": op, "params": params})


def encode_result(request_id: Any, result: dict[str, Any]) -> bytes:
    """One success envelope as a wire frame."""
    return encode_frame({"id": request_id, "ok": True, "result": result})


def encode_error(request_id: Any, code: str, message: str) -> bytes:
    """One failure envelope as a wire frame."""
    return encode_frame(
        {
            "id": request_id,
            "ok": False,
            "error": {"code": code, "message": message},
        }
    )


def parse_request(payload: dict[str, Any]) -> tuple[Any, str, dict[str, Any]]:
    """Validate a request envelope into ``(id, op, params)``.

    Raises :class:`ProtocolError` (``bad-request``) on a malformed
    envelope; the frame itself already passed its checksums, so this
    is the peer speaking the wrong dialect, not line noise.
    """
    if not isinstance(payload, dict):
        raise ProtocolError(BAD_REQUEST, "request must be a JSON object")
    if "id" not in payload:
        raise ProtocolError(BAD_REQUEST, "request is missing 'id'")
    op = payload.get("op")
    if not isinstance(op, str) or not op:
        raise ProtocolError(BAD_REQUEST, "request 'op' must be a string")
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(
            BAD_REQUEST, "request 'params' must be an object"
        )
    return payload["id"], op, params


def parse_reply(
    payload: dict[str, Any],
) -> tuple[Any, dict[str, Any] | None, tuple[str, str] | None]:
    """Validate a reply envelope into ``(id, result, error)``.

    Exactly one of ``result`` / ``error`` is non-``None``; ``error``
    is a ``(code, message)`` pair.
    """
    if not isinstance(payload, dict) or "id" not in payload:
        raise ProtocolError(BAD_REQUEST, "reply is missing 'id'")
    if payload.get("ok") is True:
        result = payload.get("result")
        if not isinstance(result, dict):
            raise ProtocolError(
                BAD_REQUEST, "ok reply 'result' must be an object"
            )
        return payload["id"], result, None
    if payload.get("ok") is False:
        error = payload.get("error")
        if (
            not isinstance(error, dict)
            or not isinstance(error.get("code"), str)
            or not isinstance(error.get("message"), str)
        ):
            raise ProtocolError(
                BAD_REQUEST, "error reply must carry code and message"
            )
        return payload["id"], None, (error["code"], error["message"])
    raise ProtocolError(BAD_REQUEST, "reply 'ok' must be true or false")
