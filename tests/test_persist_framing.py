"""CRC frame codec: round-trip properties and crash-signature triage.

The recovery contract rests on :mod:`repro.persist.framing` being able
to classify any byte-level damage: a truncation (what a torn write
leaves) is reported as a :class:`TornTail`, and a bit flip (what real
corruption looks like) raises :class:`ChecksumMismatch` -- the header
carries its own CRC, so even a flipped length field is corruption, not
a torn tail, and never a silent clean decode.
"""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.persist.columns import decode_columns, encode_columns
from repro.persist.errors import ChecksumMismatch
from repro.persist.framing import (
    ARRAY_DTYPES,
    ARRAY_MARKER,
    HEADER_LENGTH,
    TornTail,
    decode_frames,
    encode_frame,
    encode_frames,
    iter_frames,
)

payloads = st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.one_of(
        st.integers(min_value=-(2**40), max_value=2**40),
        st.text(max_size=16),
        st.booleans(),
        st.none(),
        st.lists(st.integers(min_value=0, max_value=99), max_size=4),
    ),
    max_size=5,
)


class TestRoundTrip:
    @given(payload=payloads)
    def test_single_frame_round_trips(self, payload):
        frames, torn = decode_frames(
            encode_frame(payload), source="test"
        )
        assert torn is None
        assert frames == [payload]

    @given(items=st.lists(payloads, max_size=6))
    def test_concatenated_frames_round_trip(self, items):
        data = b"".join(encode_frame(item) for item in items)
        frames, torn = decode_frames(data, source="test")
        assert torn is None
        assert frames == items

    def test_encoding_is_deterministic(self):
        payload = {"b": 2, "a": 1, "nested": [3, 1]}
        assert encode_frame(payload) == encode_frame(dict(payload))
        # Key order must not matter (sorted-keys canonical form).
        assert encode_frame({"a": 1, "b": 2}) == encode_frame(
            {"b": 2, "a": 1}
        )

    def test_header_is_fixed_width(self):
        frame = encode_frame({"x": 1})
        assert frame[8:9] == b" " and frame[17:18] == b" "
        assert frame[26:27] == b" "
        assert frame.endswith(b"\n")
        assert int(frame[0:8], 16) == len(frame) - HEADER_LENGTH - 1

    def test_header_carries_its_own_checksum(self):
        import zlib

        frame = encode_frame({"x": 1})
        assert int(frame[18:26], 16) == zlib.crc32(frame[:18])

    def test_empty_data_decodes_clean(self):
        assert decode_frames(b"", source="test") == ([], None)


class TestTruncation:
    """Every possible truncation reads as a torn tail, never corruption."""

    def test_every_cut_point_is_torn_or_clean(self):
        records = [{"kind": "op", "sequence": n} for n in range(4)]
        data = b"".join(encode_frame(record) for record in records)
        boundaries = set()
        offset = 0
        for record in records:
            offset += len(encode_frame(record))
            boundaries.add(offset)
        boundaries.add(0)
        for cut in range(len(data) + 1):
            frames, torn = decode_frames(data[:cut], source="test")
            assert frames == records[: len(frames)]
            if cut in boundaries:
                assert torn is None, f"cut at boundary {cut}"
            else:
                assert isinstance(torn, TornTail), f"cut at {cut}"
                assert 0 <= torn.offset <= cut

    @given(
        payload=payloads,
        fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    def test_truncated_single_frame_reports_torn(self, payload, fraction):
        data = encode_frame(payload)
        cut = int(len(data) * fraction)
        frames, torn = decode_frames(data[:cut], source="test")
        assert frames == []
        if cut == 0:
            assert torn is None
        else:
            assert torn is not None and torn.offset == 0


class TestBitFlips:
    """Flipped bits never decode silently clean."""

    @settings(max_examples=200)
    @given(
        position=st.integers(min_value=0),
        bit=st.integers(min_value=0, max_value=7),
    )
    def test_single_bit_flip_is_detected(self, position, bit):
        records = [
            {"kind": "op", "sequence": 1, "row": [4, 2]},
            {"kind": "op", "sequence": 2, "row": [1, 9]},
        ]
        data = bytearray(
            b"".join(encode_frame(record) for record in records)
        )
        position %= len(data)
        data[position] ^= 1 << bit
        # With the header self-checked, every single-bit flip in a
        # complete frame stream is definitively corruption -- a flipped
        # length field can no longer masquerade as a torn tail.
        with pytest.raises(ChecksumMismatch):
            decode_frames(bytes(data), source="test")

    def test_flip_in_body_raises_checksum_mismatch(self):
        data = bytearray(encode_frame({"kind": "op", "sequence": 7}))
        data[HEADER_LENGTH] ^= 0x01
        with pytest.raises(ChecksumMismatch) as excinfo:
            decode_frames(bytes(data), source="seg")
        assert excinfo.value.source == "seg"

    def test_malformed_complete_header_is_corruption(self):
        data = bytearray(encode_frame({"x": 1}))
        data[3] = ord("z")  # not a hex digit: no torn write does this
        with pytest.raises(ChecksumMismatch, match="malformed frame header"):
            decode_frames(bytes(data), source="seg")

    def test_malformed_partial_header_is_corruption(self):
        fragment = b"000000zz"  # ends mid-header but not prefix-shaped
        with pytest.raises(ChecksumMismatch, match="partial header"):
            decode_frames(fragment, source="seg")

    def test_corrupt_terminator_is_corruption(self):
        first = bytearray(encode_frame({"x": 1}))
        first[-1] = ord("X")
        data = bytes(first) + encode_frame({"x": 2})
        with pytest.raises(ChecksumMismatch, match="terminator"):
            decode_frames(data, source="seg")

    def test_corrupt_length_field_is_corruption_not_torn(self):
        # A corrupted length that still parses as hex would make the
        # frame appear to run past EOF -- the header checksum catches
        # it, so tolerant recovery never tail-drops acked records
        # behind a flipped length.
        data = bytearray(encode_frame({"x": 1}))
        data[0:8] = b"0000ffff"
        with pytest.raises(ChecksumMismatch, match="header"):
            decode_frames(bytes(data), source="seg")

    def test_truncation_mid_payload_still_reads_as_torn(self):
        data = encode_frame({"x": 1})
        frames, torn = decode_frames(data[:-3], source="seg")
        assert frames == []
        assert torn is not None and torn.reason == "incomplete payload"


class TestBatchEncoding:
    """encode_frames is byte-identical to concatenated encode_frame."""

    @given(items=st.lists(payloads, max_size=8))
    def test_matches_concatenated_single_frames(self, items):
        expected = b"".join(encode_frame(item) for item in items)
        assert encode_frames(items) == expected

    def test_empty_batch_is_empty_buffer(self):
        assert encode_frames([]) == b""

    def test_accepts_any_iterable(self):
        generated = encode_frames(
            {"sequence": n} for n in range(3)
        )
        listed = encode_frames([{"sequence": n} for n in range(3)])
        assert generated == listed


class TestStreamingDecode:
    """iter_frames matches decode_frames at every chunk size."""

    RECORDS = [
        {"kind": "op", "sequence": n, "row": [n, n * 2]} for n in range(5)
    ]

    def _stream(self, data: bytes, chunk_size: int):
        cursor = iter_frames(
            io.BytesIO(data), source="test", chunk_size=chunk_size
        )
        return list(cursor), cursor.torn

    @pytest.mark.parametrize("chunk_size", [1, 2, 7, 64, 1 << 16])
    def test_clean_stream_round_trips(self, chunk_size):
        data = encode_frames(self.RECORDS)
        frames, torn = self._stream(data, chunk_size)
        assert frames == self.RECORDS
        assert torn is None

    @pytest.mark.parametrize("chunk_size", [1, 3, 64])
    def test_every_cut_matches_whole_buffer_decode(self, chunk_size):
        data = encode_frames(self.RECORDS)
        for cut in range(len(data) + 1):
            expected_frames, expected_torn = decode_frames(
                data[:cut], source="test"
            )
            frames, torn = self._stream(data[:cut], chunk_size)
            assert frames == expected_frames, f"cut at {cut}"
            assert torn == expected_torn, f"cut at {cut}"

    def test_bit_flip_raises_mid_iteration(self):
        data = bytearray(encode_frames(self.RECORDS))
        # Flip a payload byte of the third frame.
        third = len(encode_frames(self.RECORDS[:2]))
        data[third + HEADER_LENGTH] ^= 0x01
        cursor = iter_frames(io.BytesIO(bytes(data)), source="seg")
        assert next(cursor) == self.RECORDS[0]
        assert next(cursor) == self.RECORDS[1]
        with pytest.raises(ChecksumMismatch):
            next(cursor)

    def test_torn_attribute_is_none_until_exhausted(self):
        data = encode_frames(self.RECORDS) + b"0000"
        cursor = iter_frames(io.BytesIO(data), source="seg")
        assert cursor.torn is None
        frames = list(cursor)
        assert frames == self.RECORDS
        assert cursor.torn is not None
        assert cursor.torn.reason == "incomplete header"

    def test_buffer_stays_bounded(self):
        """The read buffer never holds more than a frame + a chunk."""

        class MeteredIO(io.BytesIO):
            reads = 0

            def read(self, size=-1):
                MeteredIO.reads += 1
                return super().read(size)

        records = [{"sequence": n, "pad": "x" * 50} for n in range(200)]
        data = encode_frames(records)
        cursor = iter_frames(MeteredIO(data), source="seg", chunk_size=256)
        assert list(cursor) == records
        # Streaming must read in many small chunks, not one slurp.
        assert MeteredIO.reads >= len(data) // 256

    def test_decode_frames_is_wrapper_over_cursor(self):
        data = encode_frames(self.RECORDS)[:-3]
        frames, torn = decode_frames(data, source="seg")
        stream_frames, stream_torn = self._stream(data, 16)
        assert frames == stream_frames
        assert torn == stream_torn


def plain(value):
    """A decoded payload with its arrays as lists, for ``==``."""
    if isinstance(value, np.ndarray):
        return {"array": value.dtype.str, "values": value.tolist()}
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, list):
        return [plain(item) for item in value]
    return value


#: Array-free frames as the codec wrote them before binary sections
#: existed; they must still encode to exactly these bytes.
GOLDEN = [
    (
        {"kind": "wal-header", "format_version": 1, "base": 0},
        b'00000031 cef3f6ec 16ef9526 {"base":0,"format_version":1,'
        b'"kind":"wal-header"}\n',
    ),
    (
        {
            "id": 7,
            "op": "query",
            "params": {
                "query": {"type": "count", "relation": "sales", "attribute": "item"},
                "session": "s1",
            },
        },
        b'0000006e 97c4f6d8 a1e48274 {"id":7,"op":"query","params":{"query":'
        b'{"attribute":"item","relation":"sales","type":"count"},'
        b'"session":"s1"}}\n',
    ),
    (
        {
            "kind": "batch",
            "first_sequence": 1,
            "last_sequence": 2,
            "relation": "sales",
            "columns": {"item": {"kind": "int", "values": [3, -4]}},
        },
        b'0000007a e6f022cc 050c0e92 {"columns":{"item":{"kind":"int",'
        b'"values":[3,-4]}},"first_sequence":1,"kind":"batch",'
        b'"last_sequence":2,"relation":"sales"}\n',
    ),
    (
        {"text": "caf\u00e9 \u0000 \n", "nested": [1.5, None, True, []]},
        b'0000003a 1ac5fe5d c89bfb89 {"nested":[1.5,null,true,[]],'
        b'"text":"caf\\u00e9 \\u0000 \\n"}\n',
    ),
]


class TestArrayFreeFramesAreUnchanged:
    @pytest.mark.parametrize("payload, frame", GOLDEN)
    def test_golden_bytes(self, payload, frame):
        assert encode_frame(payload) == frame
        assert encode_frames([payload, payload]) == frame + frame
        assert decode_frames(frame, source="golden") == ([payload], None)


def _bounds(dtype: str) -> list:
    if dtype == "<f8":
        return [float(np.finfo(dtype).min), float(np.finfo(dtype).max)]
    return [int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)]


def _values(dtype: str):
    if dtype == "<f8":
        return st.floats(allow_nan=False, allow_infinity=False)
    low, high = _bounds(dtype)
    return st.integers(min_value=low, max_value=high)


@st.composite
def typed_columns(draw):
    """Equal-length columns, one allowed dtype each."""
    length = draw(st.integers(min_value=0, max_value=6))
    dtypes = draw(
        st.lists(st.sampled_from(sorted(ARRAY_DTYPES)), min_size=1, max_size=4)
    )
    return {
        f"c{index}": (
            dtype,
            draw(st.lists(_values(dtype), min_size=length, max_size=length)),
        )
        for index, dtype in enumerate(dtypes)
    }


class TestBinarySections:
    """Arrays travel as raw buffers and read back as owned wide arrays."""

    @staticmethod
    def _decoded(frame: bytes, chunk_size: int) -> list:
        whole, torn = decode_frames(frame, source="test")
        assert torn is None
        cursor = iter_frames(io.BytesIO(frame), source="test", chunk_size=chunk_size)
        streamed = list(cursor)
        assert cursor.torn is None
        assert plain(streamed) == plain(whole)
        return whole

    @settings(max_examples=200)
    @given(columns=typed_columns(), chunk_size=st.integers(1, 64))
    def test_every_allowed_dtype_round_trips(self, columns, chunk_size):
        payload = {
            "kind": "batch",
            "columns": {
                name: np.array(values, dtype=dtype)
                for name, (dtype, values) in columns.items()
            },
        }
        (frame,) = self._decoded(encode_frame(payload), chunk_size)
        decoded = decode_columns(frame["columns"])
        for name, (dtype, values) in columns.items():
            wide = np.float64 if dtype == "<f8" else np.int64
            assert decoded[name].dtype == wide
            assert decoded[name].flags.writeable and decoded[name].flags.owndata
            assert decoded[name].tolist() == np.array(values, dtype=wide).tolist()

    @pytest.mark.parametrize("dtype", sorted(ARRAY_DTYPES))
    def test_empty_and_extreme_values_round_trip(self, dtype):
        low, high = _bounds(dtype)
        payload = {
            "empty": np.array([], dtype=dtype),
            "extremes": np.array([low, high, low], dtype=dtype),
        }
        (frame,) = self._decoded(encode_frame(payload), 7)
        decoded = decode_columns({"extremes": frame["extremes"]})
        assert decoded["extremes"].tolist() == [low, high, low]
        assert decode_columns({"empty": frame["empty"]})["empty"].tolist() == []

    @given(
        values=st.lists(
            st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=8
        )
    )
    def test_integer_columns_narrow_and_round_trip(self, values):
        encoded = encode_columns({"item": np.array(values, dtype=np.int64)})
        width = encoded["item"].dtype.itemsize
        (frame,) = self._decoded(encode_frame({"columns": encoded}), 64)
        assert decode_columns(frame["columns"])["item"].tolist() == values
        if values:
            assert -(2 ** (8 * width - 1)) <= min(values)
            assert max(values) < 2 ** (8 * width - 1)
            if width > 1:  # the next narrower width would not hold them
                narrower = 2 ** (4 * width - 1)
                assert min(values) < -narrower or max(values) >= narrower

    def test_values_beyond_int64_are_refused(self):
        with pytest.raises(ValueError, match="beyond int64"):
            encode_columns({"item": np.array([2**63], dtype=np.uint64)})

    def test_column_named_like_the_marker_round_trips(self):
        columns = {
            ARRAY_MARKER: np.array([5, -300, 7]),
            "other": np.array([1.5, 2.5, 3.5]),
            "mixed": np.array(["a", 1, None], dtype=object),
        }
        frame = encode_frame({"columns": encode_columns(columns)})
        (payload,), _ = decode_frames(frame, source="test")
        decoded = decode_columns(payload["columns"])
        assert sorted(decoded) == sorted(columns)
        assert decoded[ARRAY_MARKER].tolist() == [5, -300, 7]
        assert decoded["other"].tolist() == [1.5, 2.5, 3.5]
        assert decoded["mixed"].tolist() == ["a", 1, None]

    @pytest.mark.parametrize(
        "array",
        [
            np.array([True]),
            np.array(["abcd"]),
            np.array([1], dtype=object),
            np.array([1], dtype=np.uint64),
            np.array([1.0], dtype=np.float32),
            np.zeros((2, 2), dtype=np.int64),
        ],
        ids=["bool", "str", "object", "uint64", "float32", "2-d"],
    )
    def test_the_writer_frames_only_allowed_dtypes(self, array):
        with pytest.raises(TypeError):
            encode_frame({"column": array})

    def test_big_endian_input_is_written_little_endian(self):
        frame = encode_frame({"c": np.array([1, -2], dtype=">i4")})
        assert b'["<i4",0,2]' in frame
        (payload,), _ = decode_frames(frame, source="test")
        assert payload["c"].tolist() == [1, -2]

    @pytest.mark.parametrize(
        "descriptor",
        [
            ["|O", 0, 1],
            ["|b1", 0, 1],
            ["<U4", 0, 1],
            [">i4", 0, 1],
            ["<u8", 0, 1],
            ["<i8", 0, 2],
            ["<i8", 8, 1],
            ["<i8", -8, 1],
            ["<i8", 0, -1],
            ["<i8", 0.0, 1],
            ["<i8", True, 1],
            ["<i8", 0],
        ],
    )
    def test_a_bad_descriptor_decodes_as_itself_and_is_refused(self, descriptor):
        frame = encode_frame(
            {"columns": {"item": {ARRAY_MARKER: descriptor}}, "pad": np.zeros(1, np.int64)}
        )
        (payload,), _ = decode_frames(frame, source="test")
        assert payload["columns"]["item"] == {ARRAY_MARKER: descriptor}
        with pytest.raises(ValueError, match="invalid binary descriptor"):
            decode_columns(payload["columns"])

    def test_a_descriptor_without_a_binary_section_is_refused(self):
        frame = encode_frame({"columns": {"item": {ARRAY_MARKER: ["<i8", 0, 0]}}})
        (payload,), _ = decode_frames(frame, source="test")
        assert payload["columns"]["item"] == {ARRAY_MARKER: ["<i8", 0, 0]}
        with pytest.raises(ValueError):
            decode_columns(payload["columns"])


BINARY_RECORDS = [
    {"kind": "op", "sequence": 1, "row": [4, 2]},
    {
        "kind": "batch",
        "first_sequence": 2,
        "last_sequence": 4,
        "columns": encode_columns(
            {"item": np.array([1, -70_000, 3]), "price": np.array([0.5, 1.5, 2.5])}
        ),
    },
    {"kind": "op", "sequence": 5, "row": [0, 0]},
]


class TestBinarySectionDamage:
    """A frame with a binary section keeps the torn-vs-corrupt triage."""

    def test_every_cut_point_is_torn_or_clean(self):
        frames = [encode_frame(record) for record in BINARY_RECORDS]
        data = b"".join(frames)
        boundaries = {0}
        offset = 0
        for frame in frames:
            offset += len(frame)
            boundaries.add(offset)
        for cut in range(len(data) + 1):
            decoded, torn = decode_frames(data[:cut], source="test")
            assert plain(decoded) == plain(BINARY_RECORDS[: len(decoded)])
            if cut in boundaries:
                assert torn is None, f"cut at boundary {cut}"
            else:
                assert isinstance(torn, TornTail), f"cut at {cut}"

    def test_every_single_bit_flip_raises(self):
        data = encode_frames(BINARY_RECORDS)
        assert b"\x00" in data
        for position in range(len(data)):
            for bit in range(8):
                flipped = bytearray(data)
                flipped[position] ^= 1 << bit
                with pytest.raises(ChecksumMismatch):
                    decode_frames(bytes(flipped), source="seg")
