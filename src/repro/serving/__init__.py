"""The AQP network service: server, client, and wire protocol.

Turns the library-only approximate answer engine into a sessioned
concurrent TCP service (ROADMAP item 1, BlinkDB's framing of AQP as a
service with response-time contracts):

* :mod:`~repro.serving.protocol` -- CRC-framed JSON envelopes reusing
  the WAL codec, with torn-vs-corrupt triage on the wire;
* :mod:`~repro.serving.codec` -- query/response JSON that round-trips
  bit-exactly;
* :mod:`~repro.serving.session` -- per-client handles plus an
  epoch-pinned snapshot view (read-snapshot isolation);
* :mod:`~repro.serving.ops` -- the op table, parameter checks and
  error-code map shared with the shard worker;
* :mod:`~repro.serving.server` -- the asyncio server: bounded
  admission (typed ``server-busy``), graceful WAL-draining shutdown,
  full ``repro_server_*`` instrumentation;
* :mod:`~repro.serving.client` -- a small typed client.

See ``docs/serving.md`` for the protocol and contract details.
"""

from repro.serving.client import (
    AQPClient,
    NoSynopsisRemote,
    ServerBusy,
    ServerError,
    ServerShuttingDown,
)
from repro.serving.codec import (
    decode_query,
    decode_response,
    encode_query,
    encode_response,
)
from repro.serving.protocol import FrameDecoder, ProtocolError
from repro.serving.server import AQPServer
from repro.serving.session import Session

__all__ = [
    "AQPClient",
    "AQPServer",
    "FrameDecoder",
    "NoSynopsisRemote",
    "ProtocolError",
    "ServerBusy",
    "ServerError",
    "ServerShuttingDown",
    "Session",
    "decode_query",
    "decode_response",
    "encode_query",
    "encode_response",
]
