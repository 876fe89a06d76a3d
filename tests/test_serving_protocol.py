"""Wire-codec triage for the serving protocol.

Mirrors ``test_crash_recovery``'s framing battery at the socket
boundary: every truncation cut point must read as *not yet arrived*
(clean reassembly once the rest shows up), every single-bit flip must
raise a typed protocol error, and neither may ever yield a silent
partial decode.  Plus oversized-frame and garbage-preamble rejection,
envelope validation, and bit-exact query/response codec round trips.
"""

from __future__ import annotations

import asyncio
import json
import math

import numpy as np
import pytest

from repro.engine.queries import (
    AverageQuery,
    CountQuery,
    DistinctCountQuery,
    FrequencyQuery,
    HotListQuery,
    JoinSizeQuery,
    SelectivityQuery,
    SumQuery,
)
from repro.engine.responses import QueryResponse
from repro.estimators.intervals import ConfidenceInterval
from repro.estimators.selectivity import Predicate
from repro.hotlist.base import HotListAnswer, HotListEntry
from repro.persist.columns import decode_columns, encode_columns
from repro.persist.framing import HEADER_LENGTH, encode_frame
from repro.serving import codec
from repro.serving.protocol import (
    BAD_FRAME,
    BAD_REQUEST,
    FrameDecoder,
    ProtocolError,
    encode_error,
    encode_request,
    encode_result,
    parse_reply,
    parse_request,
)

SCENARIO_TIMEOUT = 30.0


def run_scenario(coro):
    """``asyncio.run`` with a hard deadline: a wedged server fails the
    test instead of hanging the shard."""
    return asyncio.run(asyncio.wait_for(coro, SCENARIO_TIMEOUT))


PAYLOADS = [
    {"id": 1, "op": "ping", "params": {}},
    {
        "id": 2,
        "op": "query",
        "params": {
            "query": {
                "type": "count",
                "relation": "sales",
                "attribute": "item",
                "predicate": {"low": 3, "high": 9},
            }
        },
    },
    {"id": "c3", "ok": True, "result": {"rows": 1000, "pi": 3.141592653589793}},
]
WIRE = b"".join(encode_frame(payload) for payload in PAYLOADS)


class TestTruncationSweep:
    def test_every_cut_point_reads_as_not_yet_arrived(self):
        """Truncation at any byte yields only the complete prefix of
        frames -- never an error, never an invented payload -- and the
        remainder completes the stream exactly."""
        for cut in range(len(WIRE) + 1):
            decoder = FrameDecoder()
            first = decoder.feed(WIRE[:cut])
            assert first == PAYLOADS[: len(first)], f"cut at {cut}"
            rest = decoder.feed(WIRE[cut:])
            assert first + rest == PAYLOADS, f"cut at {cut}"
            assert decoder.pending_bytes == 0

    def test_every_chunk_size_reassembles(self):
        """Byte-at-a-time through whole-buffer delivery all decode to
        the same frames in order."""
        for chunk in (1, 2, 3, 7, 26, 27, 28, 64, 255, len(WIRE)):
            decoder = FrameDecoder()
            received = []
            for start in range(0, len(WIRE), chunk):
                received.extend(
                    decoder.feed(WIRE[start : start + chunk])
                )
            assert received == PAYLOADS, f"chunk size {chunk}"


class TestBitFlipSweep:
    def test_every_single_bit_flip_is_rejected(self):
        """Flipping any one bit anywhere in the stream -- header,
        payload, terminator, any frame -- raises a typed bad-frame
        error; a silent partial decode never happens."""
        for byte_index in range(len(WIRE)):
            for bit in range(8):
                flipped = bytearray(WIRE)
                flipped[byte_index] ^= 1 << bit
                decoder = FrameDecoder()
                with pytest.raises(ProtocolError) as caught:
                    decoder.feed(bytes(flipped))
                assert caught.value.code == BAD_FRAME, (
                    f"flip at byte {byte_index} bit {bit} "
                    f"escaped with {caught.value.code}"
                )

    def test_flip_detected_even_when_drip_fed(self):
        """The same triage holds when the corrupt stream arrives one
        byte at a time: the error fires by end of stream and no frame
        after the flip point is ever surfaced."""
        flip_at = len(WIRE) // 2
        flipped = bytearray(WIRE)
        flipped[flip_at] ^= 0x10
        decoder = FrameDecoder()
        received = []
        with pytest.raises(ProtocolError):
            for index in range(len(flipped)):
                received.extend(
                    decoder.feed(bytes(flipped[index : index + 1]))
                )
        assert received == PAYLOADS[: len(received)]


class TestOversizedAndGarbage:
    def test_oversized_header_rejected_before_payload_arrives(self):
        big = encode_frame({"blob": "x" * 5000})
        decoder = FrameDecoder(max_frame_bytes=1024)
        with pytest.raises(ProtocolError) as caught:
            decoder.feed(big[:HEADER_LENGTH])
        assert caught.value.code == BAD_FRAME
        assert "exceeds" in caught.value.message

    def test_oversized_complete_frame_rejected_in_one_feed(self):
        """Even a frame that arrives whole in one read is refused --
        the limit is on the declared length, not on buffering luck."""
        big = encode_frame({"blob": "x" * 5000})
        decoder = FrameDecoder(max_frame_bytes=1024)
        with pytest.raises(ProtocolError):
            decoder.feed(big)

    def test_oversized_after_valid_frames_rejected(self):
        small = encode_frame({"ok": 1})
        big = encode_frame({"blob": "y" * 5000})
        decoder = FrameDecoder(max_frame_bytes=1024)
        with pytest.raises(ProtocolError):
            decoder.feed(small + big)

    def test_garbage_preamble_rejected(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError) as caught:
            decoder.feed(b"GET / HTTP/1.1\r\nHost: example\r\n\r\n")
        assert caught.value.code == BAD_FRAME

    def test_short_garbage_rejected(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(b"hello")

    def test_hex_shaped_garbage_waits_for_more(self):
        """Bytes that could still grow into a valid frame are torn,
        not corrupt -- the decoder must wait, matching the WAL triage."""
        decoder = FrameDecoder()
        assert decoder.feed(b"0000002a") == []
        assert decoder.pending_bytes == 8

    def test_hex_garbage_declaring_huge_length_rejected_early(self):
        """A 'torn' header whose length field already demands more
        than the limit is refused immediately -- the peer cannot make
        the server wait for gigabytes that will never checksum."""
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError) as caught:
            decoder.feed(b"deadbeef")
        assert caught.value.code == BAD_FRAME


class TestEnvelopes:
    def test_request_round_trip(self):
        frame = encode_request(7, "query", {"handle": "top"})
        (payload,) = FrameDecoder().feed(frame)
        assert parse_request(payload) == (7, "query", {"handle": "top"})

    def test_result_and_error_round_trip(self):
        ok_frame = encode_result("id-1", {"rows": 3})
        err_frame = encode_error("id-2", "server-busy", "queue full")
        decoder = FrameDecoder()
        ok_payload, err_payload = decoder.feed(ok_frame + err_frame)
        assert parse_reply(ok_payload) == ("id-1", {"rows": 3}, None)
        assert parse_reply(err_payload) == (
            "id-2",
            None,
            ("server-busy", "queue full"),
        )

    @pytest.mark.parametrize(
        "payload",
        [
            {"op": "ping", "params": {}},  # no id
            {"id": 1, "params": {}},  # no op
            {"id": 1, "op": ""},  # empty op
            {"id": 1, "op": "ping", "params": [1]},  # params not object
            [1, 2, 3],  # not an object at all
        ],
    )
    def test_malformed_requests_rejected(self, payload):
        with pytest.raises(ProtocolError) as caught:
            parse_request(payload)
        assert caught.value.code == BAD_REQUEST

    @pytest.mark.parametrize(
        "payload",
        [
            {"id": 1},  # no ok
            {"id": 1, "ok": True},  # ok without result
            {"id": 1, "ok": False, "error": {"code": "x"}},  # no message
            {"ok": True, "result": {}},  # no id
        ],
    )
    def test_malformed_replies_rejected(self, payload):
        with pytest.raises(ProtocolError):
            parse_reply(payload)


ALL_QUERIES = [
    HotListQuery("sales", "item", k=7),
    FrequencyQuery("sales", "item", value=42),
    CountQuery("sales", "item", Predicate(equals=3)),
    CountQuery("sales", "item", Predicate(low=1, high=9)),
    CountQuery("sales", "item", None),
    SumQuery("sales", "item", Predicate(low=2)),
    AverageQuery("sales", "item", Predicate(high=5)),
    SelectivityQuery("sales", "item", Predicate(equals=1)),
    DistinctCountQuery("sales", "item"),
    JoinSizeQuery("orders", "sku", "sales", "item"),
]


class TestQueryCodec:
    @pytest.mark.parametrize("query", ALL_QUERIES, ids=repr)
    def test_query_round_trip(self, query):
        encoded = codec.encode_query(query)
        json_round = json.loads(json.dumps(encoded, sort_keys=True))
        assert codec.decode_query(json_round) == query

    @pytest.mark.parametrize(
        "payload",
        [
            {"type": "nope", "relation": "r", "attribute": "a"},
            {"type": "count", "relation": "", "attribute": "a"},
            {"type": "count", "relation": "r"},
            {"type": "hotlist", "relation": "r", "attribute": "a", "k": 0},
            {"type": "frequency", "relation": "r", "attribute": "a", "value": "x"},
            {"type": "count", "relation": "r", "attribute": "a", "predicate": {}},
            "count",
        ],
    )
    def test_malformed_queries_rejected(self, payload):
        with pytest.raises(ValueError):
            codec.decode_query(payload)

    def test_response_round_trip_is_bit_exact(self):
        """Awkward floats survive the JSON wire bit-for-bit."""
        response = QueryResponse(
            answer=0.1 + 0.2,
            interval=ConfidenceInterval(
                low=1e-300, high=math.pi * 1e17, confidence=0.95
            ),
            method="sample",
            is_exact=False,
            exact_cost_estimate=12345,
        )
        over_wire = json.loads(
            json.dumps(codec.encode_response(response), sort_keys=True)
        )
        decoded = codec.decode_response(over_wire)
        assert decoded == response

    def test_hotlist_response_round_trip(self):
        answer = HotListAnswer(
            k=3,
            entries=(
                HotListEntry(5, 120.5),
                HotListEntry(2, 60.25),
                HotListEntry(9, 1.0),
            ),
        )
        response = QueryResponse(
            answer=answer,
            interval=None,
            method="CountingHotList",
            is_exact=False,
            exact_cost_estimate=2000,
        )
        over_wire = json.loads(json.dumps(codec.encode_response(response)))
        assert codec.decode_response(over_wire) == response


class TestServerWireTriage:
    """The server answers wire corruption with one typed error frame
    and a hangup -- asserted against a real listening socket."""

    def _serve(self):
        from repro.engine import ApproximateAnswerEngine, DataWarehouse
        from repro.serving import AQPServer

        warehouse = DataWarehouse()
        engine = ApproximateAnswerEngine(warehouse)
        return AQPServer(warehouse, engine, max_frame_bytes=1024)

    def test_corrupt_frame_gets_bad_frame_then_eof(self):
        async def scenario():
            server = self._serve()
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            frame = bytearray(encode_request(1, "ping", {}))
            frame[HEADER_LENGTH + 2] ^= 0x04
            writer.write(bytes(frame))
            await writer.drain()
            data = await reader.read()  # until EOF: server hung up
            writer.close()
            await writer.wait_closed()
            await server.shutdown()
            return FrameDecoder().feed(data)

        (reply,) = run_scenario(scenario())
        assert reply["ok"] is False
        assert reply["error"]["code"] == BAD_FRAME

    def test_oversized_frame_gets_bad_frame_then_eof(self):
        async def scenario():
            server = self._serve()
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            blob = "z" * 4096
            writer.write(
                encode_request(1, "ingest", {"columns": {"v": blob}})
            )
            await writer.drain()
            data = await reader.read()
            writer.close()
            await writer.wait_closed()
            await server.shutdown()
            return FrameDecoder().feed(data)

        (reply,) = run_scenario(scenario())
        assert reply["ok"] is False
        assert reply["error"]["code"] == BAD_FRAME

    def test_garbage_preamble_gets_bad_frame_then_eof(self):
        async def scenario():
            server = self._serve()
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GET / HTTP/1.1\r\nHost: example\r\n\r\n")
            await writer.drain()
            data = await reader.read()
            writer.close()
            await writer.wait_closed()
            await server.shutdown()
            return FrameDecoder().feed(data)

        (reply,) = run_scenario(scenario())
        assert reply["ok"] is False
        assert reply["error"]["code"] == BAD_FRAME


#: An ingest request whose columns ride in a binary section, between
#: two array-free frames.
INGEST_PAYLOAD = {
    "id": 4,
    "op": "ingest",
    "params": {
        "relation": "sales",
        "columns": encode_columns(
            {"item": np.array([3, -9, 70_000]), "store": np.array([1, 2, 1])}
        ),
    },
}
BINARY_PAYLOADS = [PAYLOADS[0], INGEST_PAYLOAD, PAYLOADS[2]]
BINARY_WIRE = b"".join(encode_frame(payload) for payload in BINARY_PAYLOADS)


def plain(payloads):
    """Payloads with their arrays as ``(dtype, values)`` for ``==``."""
    return json.loads(
        json.dumps(
            payloads,
            default=lambda array: [array.dtype.str, array.tolist()],
        )
    )


class TestBinarySectionOnTheWire:
    def test_every_cut_point_reads_as_not_yet_arrived(self):
        assert b"\x00" in BINARY_WIRE
        expected = plain(BINARY_PAYLOADS)
        for cut in range(len(BINARY_WIRE) + 1):
            decoder = FrameDecoder()
            first = decoder.feed(BINARY_WIRE[:cut])
            assert plain(first) == expected[: len(first)], f"cut at {cut}"
            rest = decoder.feed(BINARY_WIRE[cut:])
            assert plain(first + rest) == expected, f"cut at {cut}"
            assert decoder.pending_bytes == 0

    def test_every_single_bit_flip_is_rejected(self):
        for byte_index in range(len(BINARY_WIRE)):
            for bit in range(8):
                flipped = bytearray(BINARY_WIRE)
                flipped[byte_index] ^= 1 << bit
                with pytest.raises(ProtocolError) as caught:
                    FrameDecoder().feed(bytes(flipped))
                assert caught.value.code == BAD_FRAME, (
                    f"flip at byte {byte_index} bit {bit} "
                    f"escaped with {caught.value.code}"
                )

    def test_columns_decode_to_the_sent_values(self):
        (payload,) = FrameDecoder().feed(encode_frame(INGEST_PAYLOAD))
        columns = decode_columns(payload["params"]["columns"])
        assert columns["item"].tolist() == [3, -9, 70_000]
        assert columns["store"].tolist() == [1, 2, 1]

    def test_client_ingests_lists_and_arrays(self):
        """``AQPClient.ingest`` takes lists or arrays (an empty list
        included) and the server stores exactly the sent rows."""
        from repro.engine import ApproximateAnswerEngine, DataWarehouse
        from repro.serving import AQPClient, AQPServer

        warehouse = DataWarehouse()
        warehouse.create_relation("sales", ["item", "store"])
        server = AQPServer(warehouse, ApproximateAnswerEngine(warehouse))

        async def scenario():
            client = await AQPClient.connect(*await server.start())
            try:
                acks = [
                    await client.ingest("sales", {"item": [], "store": []}),
                    await client.ingest(
                        "sales", {"item": [5, -2**40], "store": [1, 2]}
                    ),
                    await client.ingest(
                        "sales",
                        {"item": np.array([7], np.uint8), "store": np.array([3])},
                    ),
                ]
            finally:
                await client.close()
                await server.shutdown()
            return acks

        assert run_scenario(scenario()) == [0, 2, 1]
        rows = sorted(warehouse.relation("sales").rows())
        assert rows == [(-2**40, 2), (5, 1), (7, 3)]
