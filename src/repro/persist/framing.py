"""CRC-framed records: the WAL, checkpoint and wire codec.

Every record is one frame::

    <length:08x> <crc32:08x> <hcrc32:08x> <payload>\\n

where the payload is compact JSON, optionally followed by a binary
section of raw NumPy column buffers (see *Binary sections* below).

The fixed 27-byte ASCII header carries the payload length, the
payload's CRC-32, and a CRC-32 of the two preceding fields, so the
reader can tell the two crash signatures apart:

* A **torn write** (crash mid-append, truncated file) leaves a strict
  *prefix* of a valid frame -- an incomplete header, fewer payload
  bytes than the header promises, or a missing terminator at the end
  of the data.  :func:`decode_frames` stops there and reports the spot
  as a :class:`TornTail` for the caller to judge (tolerable at the
  tail of the last WAL segment, fatal anywhere else).
* **Corruption** (flipped bytes) produces a state a torn write cannot:
  a complete frame whose CRC fails, a complete-but-malformed header
  (torn writes only leave *prefixes* of valid frames), a complete
  header whose own checksum fails, or a wrong terminator byte.  All of
  these raise :class:`~repro.persist.errors.ChecksumMismatch`
  immediately.

The header checksum exists for one specific attack on the triage: a
flipped bit inside the *length* field would otherwise make the frame
appear to run past the end of the file and read as a torn tail --
which tolerant recovery would then silently truncate away along with
every acknowledged record behind it.  With the header self-checked, a
flipped length is plain corruption and tail-dropping only ever drops
the genuinely unfinished final record.

The payload is compact JSON with sorted keys, so encoding is
deterministic and the frame round-trips bit-exactly.

**Binary sections.**  A one-dimensional NumPy array anywhere in the
payload is framed as raw little-endian bytes instead of a JSON list:
the payload becomes ``<JSON header>\\x00<buffers>`` and each array
leaf becomes a descriptor ``{"$ndarray": [dtype, offset, count]}`` in
the header (``offset`` in bytes into the buffers).  ``json.dumps``
escapes every control character, so a NUL never occurs in the header
and the split is unambiguous; the payload CRC covers the buffers, so
torn-vs-corrupt triage is unchanged.  A payload without arrays frames
byte-identically to one written before binary sections existed.  Only
the dtypes in :data:`ARRAY_DTYPES` are written or read.  The decoder
turns a descriptor into a read-only array view only when its dtype is
allowed, its offset and count are non-negative integers and its bytes
lie inside the binary section; any other object -- a bad descriptor
included -- decodes as the plain JSON object it is, for the consumer
(:func:`~repro.persist.columns.decode_columns`) to refuse.

Two batch-oriented entry points amortise the per-frame overhead:
:func:`encode_frames` encodes many payloads into one contiguous buffer
(one allocation, one downstream ``write``), and :func:`iter_frames`
decodes a binary handle *incrementally* -- frames are parsed out of a
bounded read buffer, so replaying a large WAL segment never
materialises the whole file in memory.  :func:`decode_frames` is kept
as a thin wrapper over the streaming decoder for whole-buffer callers.
"""

from __future__ import annotations

import io
import json
import zlib
from dataclasses import dataclass
from functools import partial
from typing import IO, Any, Iterable, Iterator, Mapping

import numpy as np

from repro.persist.errors import ChecksumMismatch

__all__ = [
    "ARRAY_DTYPES",
    "ARRAY_MARKER",
    "FrameCursor",
    "HEADER_LENGTH",
    "TornTail",
    "decode_frames",
    "encode_frame",
    "encode_frames",
    "iter_frames",
]

# "%08x %08x %08x " -- three hex words and their separators.
HEADER_LENGTH = 27

#: How many leading header bytes the header checksum covers (the
#: length and payload-CRC fields, separators included).
_CHECKED_PREFIX = 18

_HEX_DIGITS = frozenset(b"0123456789abcdef")


@dataclass(frozen=True)
class TornTail:
    """An incomplete frame: byte offset where the data stops making sense."""

    offset: int
    reason: str


#: The header key of an array descriptor.
ARRAY_MARKER = "$ndarray"

#: The dtypes a binary section carries: little-endian signed integers
#: and doubles.  Never objects, booleans, strings or big-endian data.
ARRAY_DTYPES = frozenset({"<i1", "<i2", "<i4", "<i8", "<f8"})


def _encode_body(payload: Mapping[str, Any]) -> bytes:
    """The JSON payload, with any array leaves in a binary section."""
    arrays: list[np.ndarray] = []

    def describe(value: Any) -> dict[str, list[Any]]:
        if not isinstance(value, np.ndarray) or value.ndim != 1:
            raise TypeError(
                f"Object of type {type(value).__name__} is not JSON "
                "serializable"
            )
        dtype = value.dtype.newbyteorder("<")
        name = "<" + dtype.str[1:]  # int8 reads "|i1" in NumPy
        if name not in ARRAY_DTYPES:
            raise TypeError(f"cannot frame an array of dtype {value.dtype}")
        array = np.ascontiguousarray(value, dtype=dtype)
        offset = sum(written.nbytes for written in arrays)
        arrays.append(array)
        return {ARRAY_MARKER: [name, offset, len(array)]}

    header = json.dumps(
        dict(payload), sort_keys=True, separators=(",", ":"), default=describe
    ).encode("utf-8")
    if not arrays:
        return header
    return b"".join([header, b"\x00", *arrays])


def _resolve_array(binary: memoryview, obj: dict[str, Any]) -> Any:
    """The array a valid descriptor names; any other object unchanged."""
    spec = obj.get(ARRAY_MARKER)
    if type(spec) is not list or len(spec) != 3 or len(obj) != 1:
        return obj
    dtype, offset, count = spec
    if (
        type(dtype) is not str
        or dtype not in ARRAY_DTYPES
        or type(offset) is not int
        or type(count) is not int
        or offset < 0
        or count < 0
        or offset + count * int(dtype[2]) > len(binary)
    ):
        return obj
    return np.frombuffer(binary, dtype=dtype, count=count, offset=offset)


def _decode_body(body: bytes) -> Any:
    """Inverse of :func:`_encode_body`."""
    split = body.find(b"\x00")
    if split < 0:
        return json.loads(body.decode("utf-8"))
    return json.loads(
        body[:split].decode("utf-8"),
        object_hook=partial(_resolve_array, memoryview(body)[split + 1 :]),
    )


def encode_frame(payload: Mapping[str, Any]) -> bytes:
    """One record as a CRC-framed line."""
    body = _encode_body(payload)
    fields = b"%08x %08x " % (len(body), zlib.crc32(body))
    header = fields + b"%08x " % zlib.crc32(fields)
    return header + body + b"\n"


def encode_frames(payloads: Iterable[Mapping[str, Any]]) -> bytes:
    """Many records as one contiguous buffer of CRC-framed lines.

    Byte-for-byte identical to concatenating :func:`encode_frame`
    outputs, but the CRC/format machinery is amortised across the
    batch and the result is a single buffer, so a caller can hand the
    whole group to one ``write`` (the group-commit fast path).
    """
    crc32 = zlib.crc32
    parts: list[bytes] = []
    for payload in payloads:
        body = _encode_body(payload)
        fields = b"%08x %08x " % (len(body), crc32(body))
        parts.append(fields)
        parts.append(b"%08x " % crc32(fields))
        parts.append(body)
        parts.append(b"\n")
    return b"".join(parts)


def _header_is_prefix_shaped(fragment: bytes) -> bool:
    """Whether a partial header could still grow into a valid one."""
    for index, byte in enumerate(fragment):
        expected_space = index in (8, 17, 26)
        if expected_space:
            if byte != ord(" "):
                return False
        elif byte not in _HEX_DIGITS:
            return False
    return True


#: How many bytes :class:`FrameCursor` requests per read.
_CHUNK_SIZE = 1 << 16


class FrameCursor:
    """Streaming frame decoder over a binary handle.

    Iterate to receive payload dicts one at a time; the read buffer
    holds at most one partial frame plus one read chunk, so decoding a
    segment costs memory proportional to its largest frame, not its
    file size.  After iteration finishes, :attr:`torn` reports whether
    (and where) the data stopped inside an unfinished frame -- the same
    triage :func:`decode_frames` performs, with the same
    :class:`ChecksumMismatch` raises for corruption.
    """

    def __init__(
        self, handle: IO[bytes], *, source: str, chunk_size: int = _CHUNK_SIZE
    ) -> None:
        self._handle = handle
        self._source = source
        self._chunk_size = chunk_size
        self._buffer = bytearray()
        self._offset = 0  # absolute offset of the buffer's first byte
        self._exhausted = False
        #: Where the data ends mid-frame, once iteration has finished.
        self.torn: TornTail | None = None

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return self

    def _fill(self, needed: int) -> bool:
        """Grow the buffer to ``needed`` bytes; False at end of data."""
        while not self._exhausted and len(self._buffer) < needed:
            chunk = self._handle.read(self._chunk_size)
            if not chunk:
                self._exhausted = True
                break
            self._buffer.extend(chunk)
        return len(self._buffer) >= needed

    def __next__(self) -> dict[str, Any]:
        buffer = self._buffer
        offset = self._offset
        source = self._source
        if not self._fill(HEADER_LENGTH):
            if not buffer:
                raise StopIteration
            # The data ends inside a header.  A torn write leaves a
            # prefix of a valid header; anything else is corruption.
            if _header_is_prefix_shaped(bytes(buffer)):
                self.torn = TornTail(offset, "incomplete header")
                raise StopIteration
            raise ChecksumMismatch(
                source, offset, "malformed partial header at end of data"
            )
        header = bytes(buffer[:HEADER_LENGTH])
        if not _header_is_prefix_shaped(header):
            # A complete 27-byte header was written; a malformed one
            # can only come from flipped bytes, never a torn write.
            raise ChecksumMismatch(source, offset, "malformed frame header")
        declared_header_crc = int(header[18:26], 16)
        actual_header_crc = zlib.crc32(header[:_CHECKED_PREFIX])
        if actual_header_crc != declared_header_crc:
            # The length/CRC fields do not hash to the header's own
            # checksum: a flipped length would otherwise masquerade as
            # a torn tail and get truncated away with everything
            # behind it.
            raise ChecksumMismatch(
                source,
                offset,
                f"header says {declared_header_crc:#010x}, its fields "
                f"hash to {actual_header_crc:#010x}",
            )
        length = int(header[0:8], 16)
        expected_crc = int(header[9:17], 16)
        if not self._fill(HEADER_LENGTH + length + 1):
            self.torn = TornTail(offset, "incomplete payload")
            raise StopIteration
        body = bytes(buffer[HEADER_LENGTH : HEADER_LENGTH + length])
        actual_crc = zlib.crc32(body)
        if actual_crc != expected_crc:
            raise ChecksumMismatch(
                source,
                offset,
                f"frame says {expected_crc:#010x}, payload hashes to "
                f"{actual_crc:#010x}",
            )
        terminator = HEADER_LENGTH + length
        if buffer[terminator : terminator + 1] != b"\n":
            raise ChecksumMismatch(
                source, offset, "corrupt record terminator"
            )
        del buffer[: terminator + 1]
        self._offset = offset + terminator + 1
        return _decode_body(body)


def iter_frames(
    handle: IO[bytes], *, source: str, chunk_size: int = _CHUNK_SIZE
) -> FrameCursor:
    """Stream-decode frames from a binary handle.

    Returns a :class:`FrameCursor`: iterate it for the payloads, then
    read its :attr:`~FrameCursor.torn` attribute to learn whether the
    data ended inside an unfinished frame.  Corruption raises
    :class:`ChecksumMismatch` exactly as :func:`decode_frames` does.
    """
    return FrameCursor(handle, source=source, chunk_size=chunk_size)


def decode_frames(
    data: bytes, *, source: str
) -> tuple[list[dict[str, Any]], TornTail | None]:
    """Decode every complete frame; report where a torn tail begins.

    Returns ``(payloads, torn)`` where ``torn`` is ``None`` when the
    data ends exactly on a frame boundary.  Raises
    :class:`ChecksumMismatch` for a complete frame whose CRC fails --
    corruption retrying or tail-dropping cannot fix.  A thin wrapper
    over :func:`iter_frames` for callers that already hold the whole
    buffer.
    """
    cursor = iter_frames(io.BytesIO(data), source=source)
    payloads = list(cursor)
    return payloads, cursor.torn
