"""Durable checkpoint/WAL persistence and recovery (footnote 2).

"For persistence and recovery, combinations of snapshots and/or logs
can be stored on disk."  This package is that combination for the
synopsis warehouse:

* :mod:`repro.persist.framing` -- CRC-framed JSON records with an
  optional binary section of column buffers; every crash signature
  (torn write vs corruption) is classifiable.
* :mod:`repro.persist.wal` -- append-only operation-log segments with
  fsync points, rotation, and truncation.
* :mod:`repro.persist.checkpoint` -- atomic (write-temp, fsync,
  rename, fsync-dir) snapshot files plus the WAL, in one store.
* :mod:`repro.persist.recovery` -- :class:`RecoveryManager`: tap the
  warehouse load stream on the live side, recover as snapshot +
  log-suffix replay after a crash.
* :mod:`repro.persist.fsio` -- the filesystem seam (the only real
  I/O call sites in the repository; reprolint RL010) through which
  :mod:`repro.faults` injects deterministic failures.
* :mod:`repro.persist.retry` / :mod:`repro.persist.errors` --
  transient-fault retry with deterministic backoff, and the typed
  error taxonomy: recovery never yields a silently wrong sample.
"""

from repro.persist.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointStore,
)
from repro.persist.errors import (
    ChecksumMismatch,
    LogGapError,
    PersistError,
    RecoveryError,
    ReplayError,
    TornWriteError,
    TransientIOError,
)
from repro.persist.columns import decode_columns, encode_columns
from repro.persist.framing import (
    HEADER_LENGTH,
    FrameCursor,
    TornTail,
    decode_frames,
    encode_frame,
    encode_frames,
    iter_frames,
)
from repro.persist.fsio import FileSystem, LocalFileSystem
from repro.persist.recovery import (
    RecoveredState,
    RecoveryManager,
    SynopsisBinding,
)
from repro.persist.retry import RetryPolicy
from repro.persist.wal import (
    WAL_FORMAT_VERSION,
    WriteAheadLog,
    read_operations,
    record_range,
    segment_name,
)

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointStore",
    "ChecksumMismatch",
    "FileSystem",
    "FrameCursor",
    "HEADER_LENGTH",
    "LocalFileSystem",
    "LogGapError",
    "PersistError",
    "RecoveredState",
    "RecoveryError",
    "RecoveryManager",
    "ReplayError",
    "RetryPolicy",
    "SynopsisBinding",
    "TornTail",
    "TornWriteError",
    "TransientIOError",
    "WAL_FORMAT_VERSION",
    "WriteAheadLog",
    "decode_columns",
    "decode_frames",
    "encode_columns",
    "encode_frame",
    "encode_frames",
    "iter_frames",
    "read_operations",
    "record_range",
    "segment_name",
]
