"""WAL format 2 beside format 1.

Format 2 batch records carry their columns as raw buffers in the
frame's binary section; format 1 wrote the same columns as tagged JSON
lists.  A directory written at format 1 must recover to exactly the
state the same stream recovers to at format 2, a segment from a newer
format is refused at its header, and a batch record whose binary
descriptor is bad fails replay instead of applying part of a batch.
"""

from __future__ import annotations

import shutil
from collections import Counter

import numpy as np
import pytest

from repro.core.concise import ConciseSample
from repro.core.counting import CountingSample
from repro.engine.warehouse import DataWarehouse
from repro.persist import (
    WAL_FORMAT_VERSION,
    ChecksumMismatch,
    CheckpointStore,
    RecoveryManager,
    ReplayError,
    segment_name,
)
from repro.persist.framing import ARRAY_MARKER, encode_frame, iter_frames
from repro.streams import zipf_stream


def write_stream(directory):
    """A checkpoint with two bound synopses, then a batch/row suffix."""
    manager = RecoveryManager(CheckpointStore(directory))
    warehouse = DataWarehouse()
    warehouse.create_relation("sales", ["item", "qty"])
    manager.attach(warehouse)
    manager.bind("sales", "item", ConciseSample(32, seed=5))
    manager.bind("sales", "qty", CountingSample(32, seed=6), role="hotlist")
    items = zipf_stream(3_000, 400, 1.1, seed=2)
    qty = zipf_stream(3_000, 70_000, 0.8, seed=3) - 35_000
    warehouse.load_batch("sales", {"item": items[:1_000], "qty": qty[:1_000]})
    manager.checkpoint()
    for start in (1_000, 2_000):
        warehouse.load_batch(
            "sales",
            {
                "item": items[start : start + 1_000],
                "qty": qty[start : start + 1_000],
            },
        )
    warehouse.insert("sales", (7, -1))
    manager.detach()


def frames_of(path):
    with path.open("rb") as handle:
        cursor = iter_frames(handle, source=path.name)
        frames = list(cursor)
    assert cursor.torn is None
    return frames


def as_format_1(frame):
    """The record as the format-1 writer framed it: tagged lists."""
    if frame.get("kind") == "wal-header":
        return {**frame, "format_version": 1}
    if frame.get("kind") != "batch":
        return frame
    columns = {}
    for name, values in frame["columns"].items():
        kind = "int" if values.dtype.kind == "i" else "float"
        columns[name] = {"kind": kind, "values": values.tolist()}
    return {**frame, "columns": columns}


def recovered(directory):
    manager = RecoveryManager(CheckpointStore(directory))
    state = manager.recover(seed=11)
    synopses = {
        (binding.relation, binding.attribute, binding.role): (
            binding.synopsis.to_dict()
        )
        for binding in manager.bindings
    }
    return state, Counter(state.warehouse.relation("sales").rows()), synopses


def rewrite_segments(directory, convert):
    store = CheckpointStore(directory)
    for base in store.wal.segment_bases():
        path = store.wal.directory / segment_name(base)
        path.write_bytes(b"".join(encode_frame(convert(f)) for f in frames_of(path)))
    store.close()


def test_format_1_segments_recover_to_the_format_2_state(tmp_path):
    current, legacy = tmp_path / "v2", tmp_path / "v1"
    write_stream(current)
    shutil.copytree(current, legacy)
    store = CheckpointStore(current)
    segments = [store.wal.directory / segment_name(b) for b in store.wal.segment_bases()]
    store.close()
    written = [frame for path in segments for frame in frames_of(path)]
    assert {f["format_version"] for f in written if f["kind"] == "wal-header"} == {
        WAL_FORMAT_VERSION
    } == {2}
    batches = [f for f in written if f["kind"] == "batch"]
    assert len(batches) == 2
    assert all(
        isinstance(values, np.ndarray) and values.dtype.itemsize < 8
        for batch in batches
        for values in batch["columns"].values()
    )
    assert all(b"\x00" in path.read_bytes() for path in segments)

    rewrite_segments(legacy, as_format_1)
    assert all(b"\x00" not in path.read_bytes() for path in (legacy / "wal").iterdir())

    new_state, new_rows, new_synopses = recovered(current)
    old_state, old_rows, old_synopses = recovered(legacy)
    assert new_state.replayed == old_state.replayed == 2_001
    assert new_state.sequence == old_state.sequence == 3_001
    assert old_rows == new_rows
    assert sum(new_rows.values()) == 3_001
    assert len(new_synopses) == 2
    assert old_synopses == new_synopses


def test_a_newer_segment_format_is_refused(tmp_path):
    write_stream(tmp_path)
    rewrite_segments(
        tmp_path,
        lambda f: {**f, "format_version": 3} if f["kind"] == "wal-header" else f,
    )
    with pytest.raises(ChecksumMismatch, match=r"newer format version \(3\)"):
        RecoveryManager(CheckpointStore(tmp_path)).recover(seed=11)


@pytest.mark.parametrize(
    "descriptor",
    [["<i8", 0, 5_000], ["<i8", -8, 1], ["|O", 0, 1]],
    ids=["past-the-end", "negative-offset", "object-dtype"],
)
def test_a_bad_batch_descriptor_fails_replay(tmp_path, descriptor):
    write_stream(tmp_path)

    def damage(frame):
        if frame.get("kind") != "batch":
            return frame
        return {**frame, "columns": {**frame["columns"], "qty": {ARRAY_MARKER: descriptor}}}

    rewrite_segments(tmp_path, damage)
    with pytest.raises(ReplayError, match="cannot be decoded"):
        RecoveryManager(CheckpointStore(tmp_path)).recover(seed=11)
