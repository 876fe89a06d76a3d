"""The (value, count) representation shared by both sample kinds."""

from __future__ import annotations

import math

import pytest

from repro.core.base import SynopsisError
from repro.core.concise import ConciseSample
from repro.core.counting import CountingSample

KINDS = [ConciseSample, CountingSample]


def _payload(kind, **fields):
    """A valid snapshot of ``kind`` (bound 8, tau 2) with ``fields`` set."""
    payload = kind(8, seed=1).to_dict()
    payload.update(threshold=2.0, counts=[[5, 1], [7, 3]])
    payload.update(fields)
    return payload


# Each row is state no sample can hold; restoring it must raise.
BAD_STATES = [
    pytest.param({"threshold": 0.5}, "threshold", id="threshold-below-1"),
    pytest.param({"threshold": math.nan}, "threshold", id="threshold-nan"),
    pytest.param({"threshold": math.inf}, "threshold", id="threshold-inf"),
    pytest.param(
        {"counts": [[5, 1], [5, 1]]}, "more than once", id="repeated-value"
    ),
    pytest.param({"counts": [[1 << 70, 1]]}, "int64", id="value-beyond-int64"),
    pytest.param({"counts": [[5, 0]]}, "positive", id="zero-count"),
    pytest.param({"counts": [[5, -2]]}, "positive", id="negative-count"),
    pytest.param(
        {"counts": [[1, 2], [2, 2], [3, 2], [4, 2], [5, 1]]},
        "bound",
        id="over-bound",
    ),
]


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
class TestSnapshotRestoreValidation:
    @pytest.mark.parametrize(("fields", "message"), BAD_STATES)
    def test_bad_state_raises(self, kind, fields, message):
        with pytest.raises(SynopsisError, match=message):
            kind.from_dict(_payload(kind, **fields))

    def test_valid_state_restores(self, kind):
        sample = kind.from_dict(_payload(kind), seed=3)
        sample.check_invariants()
        assert sample.as_dict() == {5: 1, 7: 3}
        assert sample.threshold == 2.0
        assert sample.footprint == 3

    def test_other_kind_is_rejected(self, kind):
        other = next(k for k in KINDS if k is not kind)
        with pytest.raises(SynopsisError, match="snapshot kind"):
            kind.from_dict(_payload(other))


class TestDeleteRemovesSlotInPlace:
    def test_emptied_slot_takes_the_last_run(self):
        sample = CountingSample(64, seed=1)
        for value in [4, 8, 8, 15, 16, 16, 16]:
            sample.insert(value)
        held = sample.columnar_view()
        sample.delete(4)
        values, counts = sample.columnar_view()
        assert values.tolist() == [16, 8, 15]
        assert counts.tolist() == [3, 2, 1]
        sample.check_invariants()
        # The view handed out before the delete is unchanged.
        assert held[0].tolist() == [4, 8, 15, 16]

    def test_last_slot_deletes_cleanly(self):
        sample = CountingSample(64, seed=1)
        for value in [1, 2]:
            sample.insert(value)
        sample.delete(2)
        sample.delete(1)
        assert sample.as_dict() == {}
        assert sample.footprint == 0
        sample.check_invariants()
        sample.insert(7)
        assert sample.as_dict() == {7: 1}
