"""Write-ahead log: CRC-framed segments with fsync points.

The WAL is a directory of segment files ``wal-<base>.seg``, where
``base`` is the sequence number of the first operation the segment may
hold.  Each segment starts with a header record and then carries one
``op`` record per warehouse load event, or one columnar ``batch``
record per whole load batch::

    {"kind": "wal-header", "format_version": 2, "base": 1200}
    {"kind": "op", "sequence": 1200, "relation": "sales", "row": [7], "insert": true}
    {"kind": "batch", "first_sequence": 1201, "last_sequence": 1400,
     "relation": "sales", "columns": {"item": <int16 array>}}
    ...

A batch record's integer and float columns travel as raw little-endian
buffers in the frame's binary section (:mod:`repro.persist.columns`).
Format 1 wrote them as tagged JSON lists; this build reads both, and
a build that only knows format 1 refuses a format-2 segment at its
header record.

Records are framed by :mod:`repro.persist.framing`, so every crash
signature is classifiable.  Appends reach disk at *fsync points*: every
``sync_every`` records (1 = group size one, i.e. synchronous
durability) plus an explicit :meth:`WriteAheadLog.sync` before a
checkpoint.  :meth:`WriteAheadLog.append_many` encodes a whole group
of records into one buffer and hands it to a single retried write --
the durable batch-ingest fast path pays one write (and, at
``sync_every=1``, one fsync) per batch instead of per row.  Rotation
starts a new segment (at a checkpoint, so the pre-checkpoint segments
become garbage) and truncation deletes whole segments once a
checkpoint covers them.

Reading back (:func:`read_operations`) streams each segment through
:func:`~repro.persist.framing.iter_frames` (bounded memory, not a
whole-file buffer) and enforces the recovery contract: record
sequences -- an ``op``'s single sequence or a ``batch``'s
``[first_sequence, last_sequence]`` range -- must be contiguous across
all segments (:class:`LogGapError` otherwise -- a deleted or missing
segment shows up exactly this way), corruption raises
:class:`ChecksumMismatch`, and a torn record is tolerable only as the
physical tail of the *last* segment (:class:`TornWriteError` anywhere
else).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, BinaryIO, Callable, Mapping, Sequence

from repro.obs.metrics import Counter as ObsCounter
from repro.obs.metrics import Histogram as ObsHistogram
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.persist.errors import (
    ChecksumMismatch,
    LogGapError,
    TornWriteError,
)
from repro.persist.framing import (
    TornTail,
    encode_frame,
    encode_frames,
    iter_frames,
)
from repro.persist.fsio import (
    FileSystem,
    remove_idempotent,
    replace_idempotent,
)
from repro.persist.retry import RetryPolicy

__all__ = [
    "WAL_FORMAT_VERSION",
    "WriteAheadLog",
    "parse_segment_name",
    "read_operations",
    "record_range",
    "segment_name",
]

#: 2: batch records carry binary columns; format-1 tagged lists still read.
WAL_FORMAT_VERSION = 2

_PREFIX = "wal-"
_SUFFIX = ".seg"


def segment_name(base: int) -> str:
    """The file name of the segment whose first sequence is ``base``."""
    return f"{_PREFIX}{base:020d}{_SUFFIX}"


def parse_segment_name(name: str) -> int | None:
    """The base sequence encoded in a segment file name, or ``None``."""
    if not (name.startswith(_PREFIX) and name.endswith(_SUFFIX)):
        return None
    digits = name[len(_PREFIX) : -len(_SUFFIX)]
    if not digits.isdigit():
        return None
    return int(digits)


class WriteAheadLog:
    """Appender over a directory of CRC-framed segments.

    Parameters
    ----------
    directory:
        The WAL directory (created if missing).
    filesystem:
        The storage seam; tests pass a
        :class:`~repro.faults.injector.FaultyFilesystem`.
    sync_every:
        Appends per fsync point.  1 (the default) makes every append
        durable before it returns -- the setting the crash-consistency
        battery assumes.
    retry:
        Backoff policy for transient write faults.
    registry:
        Metrics sink; defaults to the process-wide registry.
    """

    def __init__(
        self,
        directory: Path,
        filesystem: FileSystem,
        *,
        sync_every: int = 1,
        retry: RetryPolicy | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if sync_every < 1:
            raise ValueError("sync_every must be at least 1")
        self._directory = Path(directory)
        self._fs = filesystem
        self._sync_every = sync_every
        self._retry = retry if retry is not None else RetryPolicy()
        self._fs.makedirs(self._directory)
        self._handle: BinaryIO | None = None
        # The open handle's bound write, hoisted once per segment so
        # the per-append hot path allocates no closure.
        self._write: Callable[[bytes], int] | None = None
        self._base: int | None = None
        self._unsynced = 0
        metrics = registry if registry is not None else get_registry()
        self._appends: ObsCounter = metrics.counter(
            "repro_wal_appends_total", "Operations appended to the WAL"
        )
        self._batch_appends: ObsCounter = metrics.counter(
            "repro_wal_batch_appends_total",
            "Grouped append_many calls (one buffered write each)",
        )
        self._bytes_written: ObsCounter = metrics.counter(
            "repro_wal_bytes_written_total",
            "Frame bytes handed to WAL segment writes",
        )
        self._fsyncs: ObsCounter = metrics.counter(
            "repro_wal_fsyncs_total", "WAL fsync points reached"
        )
        self._records_per_fsync: ObsHistogram = metrics.histogram(
            "repro_wal_records_per_fsync",
            "Records made durable per WAL fsync point (group size)",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0, 1024.0),
        )
        self._truncated: ObsCounter = metrics.counter(
            "repro_wal_truncated_segments_total",
            "WAL segments deleted by post-checkpoint truncation",
        )

    @property
    def directory(self) -> Path:
        """The WAL directory."""
        return self._directory

    @property
    def open_base(self) -> int | None:
        """Base sequence of the currently open segment, if any."""
        return self._base

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def open_segment(self, base: int) -> None:
        """Start (or switch to) the segment whose first sequence is ``base``.

        Closes and syncs any open segment first, writes the new
        segment's header record, and syncs the directory entry.
        """
        self.close()
        path = self._directory / segment_name(base)

        def start() -> BinaryIO:
            handle = self._fs.open(path, "wb")
            handle.write(
                encode_frame(
                    {
                        "kind": "wal-header",
                        "format_version": WAL_FORMAT_VERSION,
                        "base": base,
                    }
                )
            )
            self._fs.fsync(handle)
            return handle

        self._handle = self._retry.call(start)
        self._write = self._handle.write
        self._retry.call(lambda: self._fs.sync_directory(self._directory))
        self._base = base
        self._unsynced = 0

    def append(self, record: Mapping[str, Any]) -> None:
        """Append one record; fsync when the group threshold is hit."""
        if self._write is None:
            raise RuntimeError("no open WAL segment; call open_segment first")
        frame = encode_frame(record)
        self._retry.call(self._write, frame)
        self._appends.inc()
        self._bytes_written.inc(len(frame))
        self._unsynced += 1
        if self._unsynced >= self._sync_every:
            self.sync()

    def append_many(self, records: Sequence[Mapping[str, Any]]) -> int:
        """Append a group of records as **one** buffered, retried write.

        The group-commit fast path: every frame is encoded into a
        single contiguous buffer and handed to one ``write`` call, and
        ``sync_every`` counts *records*, not calls -- appending ``k``
        records through here reaches exactly the fsync points that
        ``k`` individual :meth:`append` calls would have reached, at a
        fraction of the per-record overhead.  Returns the number of
        records appended.
        """
        if self._write is None:
            raise RuntimeError("no open WAL segment; call open_segment first")
        count = len(records)
        if count == 0:
            return 0
        buffer = encode_frames(records)
        self._retry.call(self._write, buffer)
        self._appends.inc(count)
        self._batch_appends.inc()
        self._bytes_written.inc(len(buffer))
        self._unsynced += count
        if self._unsynced >= self._sync_every:
            self.sync()
        return count

    def sync(self) -> None:
        """Force an fsync point: everything appended so far is durable."""
        if self._handle is None:
            return
        self._retry.call(self._fs.fsync, self._handle)
        self._fsyncs.inc()
        if self._unsynced:
            self._records_per_fsync.observe(float(self._unsynced))
        self._unsynced = 0

    def close(self) -> None:
        """Sync and close the open segment, if any."""
        if self._handle is None:
            return
        self.sync()
        self._handle.close()
        self._handle = None
        self._write = None
        self._base = None

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def segment_bases(self) -> list[int]:
        """Sorted base sequences of every segment file on disk."""
        bases = []
        for name in self._fs.listdir(self._directory):
            base = parse_segment_name(name)
            if base is not None:
                bases.append(base)
        return sorted(bases)

    def truncate_through(self, sequence: int) -> int:
        """Delete segments holding only records at or below ``sequence``.

        A segment based at ``b`` whose successor is based at ``nb``
        holds operations ``b .. nb - 1``, so it is deletable exactly
        when ``nb - 1 <= sequence``; the newest segment always
        survives.  Returns the number of segments removed.
        """
        bases = self.segment_bases()
        removed = 0
        for base, next_base in zip(bases, bases[1:], strict=False):
            if next_base - 1 <= sequence and base != self._base:
                path = self._directory / segment_name(base)
                self._retry.call(
                    lambda p=path: remove_idempotent(self._fs, p)
                )
                removed += 1
        if removed:
            self._retry.call(
                lambda: self._fs.sync_directory(self._directory)
            )
            self._truncated.inc(removed)
        return removed

    def repair_tail(self, offset: int) -> None:
        """Truncate the newest segment to ``offset`` bytes.

        The torn-tail repair: after recovery tolerates a torn record
        at the physical tail of the last segment, the damaged bytes
        must go, or a later rotation would leave the same torn record
        mid-WAL where it is fatal.  Uses the same atomic
        temp-file+rename recipe and retry policy as every other
        mutation, so a transient fault during repair is absorbed
        rather than aborting recovery.
        """
        bases = self.segment_bases()
        if not bases:
            return
        path = self._directory / segment_name(bases[-1])
        data = self._fs.read_bytes(path)
        temporary = path.with_name(path.name + ".tmp")

        def write_prefix() -> None:
            handle = self._fs.open(temporary, "wb")
            try:
                handle.write(data[:offset])
                self._fs.fsync(handle)
            finally:
                handle.close()

        self._retry.call(write_prefix)
        self._retry.call(
            lambda: replace_idempotent(self._fs, temporary, path)
        )
        self._retry.call(lambda: self._fs.sync_directory(self._directory))


def record_range(record: Mapping[str, Any]) -> tuple[int, int] | None:
    """``(first, last)`` sequence range a WAL record covers, or ``None``.

    An ``op`` record covers its single sequence; a columnar ``batch``
    record covers ``[first_sequence, last_sequence]``.  Other kinds
    (headers, schemas) carry no sequence.
    """
    kind = record.get("kind")
    if kind == "op":
        sequence = int(record["sequence"])
        return sequence, sequence
    if kind == "batch":
        return (
            int(record["first_sequence"]),
            int(record["last_sequence"]),
        )
    return None


def read_operations(
    filesystem: FileSystem,
    directory: Path,
    *,
    tolerate_torn_tail: bool = True,
) -> tuple[list[dict[str, Any]], dict[str, list[str]], TornTail | None]:
    """Read every op/batch record from the WAL, oldest first.

    Returns ``(operations, schemas, torn)``: the ``op`` and ``batch``
    records, the merged relation schemas from the ``schema`` records
    the recovery manager writes at each segment start (so a WAL is
    replayable even before the first checkpoint), and the tolerated
    torn tail if any.  Segments are decoded *streamingly*
    (:func:`~repro.persist.framing.iter_frames`): the raw file bytes
    are never materialised whole.

    Enforces the recovery contract:

    * a torn record is tolerated only when it is the physical tail of
      the *last* segment and ``tolerate_torn_tail`` is set; otherwise
      :class:`TornWriteError` is raised;
    * corrupted frames raise :class:`ChecksumMismatch`
      (:func:`~repro.persist.framing.iter_frames` classifies);
    * record sequence ranges must be strictly contiguous across
      segments (a ``batch`` advances the expectation by its whole
      range) -- a missing segment or dropped record raises
      :class:`LogGapError`; an inverted batch range is corruption.

    The returned ``TornTail``, when present, refers to the last
    segment; the caller repairs the file by truncating to its offset.
    """
    directory = Path(directory)
    bases = []
    for name in filesystem.listdir(directory):
        base = parse_segment_name(name)
        if base is not None:
            bases.append(base)
    bases.sort()
    operations: list[dict[str, Any]] = []
    schemas: dict[str, list[str]] = {}
    torn: TornTail | None = None
    expected: int | None = None
    for position, base in enumerate(bases):
        name = segment_name(base)
        path = directory / name
        is_last = position == len(bases) - 1
        handle = filesystem.open(path, "rb")
        try:
            cursor = iter_frames(handle, source=name)
            for index, frame in enumerate(cursor):
                if index == 0:
                    if (
                        frame.get("kind") != "wal-header"
                        or int(frame.get("base", -1)) != base
                    ):
                        raise ChecksumMismatch(
                            name,
                            0,
                            "segment header missing or inconsistent",
                        )
                    version = int(frame.get("format_version", 0))
                    if version > WAL_FORMAT_VERSION:
                        raise ChecksumMismatch(
                            name,
                            0,
                            "segment written by a newer format version "
                            f"({frame.get('format_version')})",
                        )
                    continue
                kind = frame.get("kind")
                if kind == "schema":
                    relations = frame.get("relations", {})
                    for rel, attributes in relations.items():
                        schemas[str(rel)] = [str(a) for a in attributes]
                    continue
                covered = record_range(frame)
                if covered is None:
                    continue
                first, last = covered
                if last < first:
                    raise ChecksumMismatch(
                        name,
                        0,
                        f"batch record range [{first}, {last}] is "
                        "inverted",
                    )
                if expected is not None and first != expected:
                    raise LogGapError(expected, first, source=name)
                operations.append(frame)
                expected = last + 1
            segment_torn = cursor.torn
        finally:
            handle.close()
        if segment_torn is not None:
            if not (is_last and tolerate_torn_tail):
                raise TornWriteError(
                    name, segment_torn.offset, segment_torn.reason
                )
            torn = segment_torn
    return operations, schemas, torn
