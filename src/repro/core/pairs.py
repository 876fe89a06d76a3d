"""The ``(value, count)`` representation of concise and counting samples.

Concise samples (Section 3) and counting samples (Section 4) are one
data structure under two admission rules.  Both hold distinct values
with counts, pay one word per singleton and two per ``(value, count)``
pair (Definition 2), and stay within their footprint bound by raising
an entry threshold ``tau`` to some ``tau' > tau`` and thinning the
sample (Theorems 2 and 5).  They differ only in how a value enters the
sample and how a raise thins it; those rules live in the subclasses.
This module holds everything else:

* the representation -- parallel int64 ``values``/``counts`` arrays in
  first-admission order, grown by doubling, plus a ``value -> slot``
  dict;
* the bookkeeping (footprint, count total, threshold, stream lengths)
  and the memoized read-only ``columnar_view()`` the answer path reads;
* the slot primitives every maintenance path goes through -- each of
  them resets the view memo;
* the threshold-raise loop, merge adoption, one validated snapshot
  restore, and the invariant check.
"""

from __future__ import annotations

import math
from abc import abstractmethod
from collections import Counter
from typing import Any, ClassVar, Iterator, Mapping, TypeVar

import numpy as np

from repro.core.base import (
    SNAPSHOT_FORMAT_VERSION,
    StreamSynopsis,
    SynopsisError,
)
from repro.core.thresholds import MultiplicativeRaise, ThresholdPolicy
from repro.obs import probe as obs_probe
from repro.randkit.coins import CostCounters, GeometricSkipper
from repro.randkit.rng import ReproRandom
from repro.randkit.vectorized import VectorCoins

__all__ = ["PairSample"]

_Sample = TypeVar("_Sample", bound="PairSample")

# Batch chunks admit roughly footprint_bound / _CHUNK_DIVISOR elements
# before a shrink check, keeping the footprint overshoot (and hence the
# threshold trajectory) close to the per-element algorithm's.  Chunks
# double while no shrink triggers (the all-fits regime, where chunk
# size has no distributional effect at all) and reset on a threshold
# raise; growth is capped to bound the worst-case footprint overshoot.
_CHUNK_DIVISOR = 4
_MIN_CHUNK = 256
_MAX_CHUNK_GROWTH = 1024
_MIN_CAPACITY = 16


def _with_capacity(prefix: np.ndarray, capacity: int) -> np.ndarray:
    """A fresh int64 buffer of ``capacity`` slots starting with ``prefix``."""
    buffer = np.empty(capacity, dtype=np.int64)
    buffer[: len(prefix)] = prefix
    return buffer


def _words(counts: np.ndarray) -> int:
    """Footprint of positive counts: one word per singleton, two per pair."""
    return 2 * len(counts) - int(np.count_nonzero(counts == 1))


class PairSample(StreamSynopsis):
    """Distinct values with counts, within a fixed footprint bound.

    Parameters
    ----------
    footprint_bound:
        Maximum number of memory words (``m`` in the paper); at least 2
        so one ``(value, count)`` pair always fits.
    seed:
        Seed for all randomness of this sample instance.
    policy:
        Threshold-raise policy; defaults to the paper's 10%
        multiplicative raise.
    counters:
        Optional shared cost ledger (one is created if omitted).
    """

    SNAPSHOT_KIND: ClassVar[str]

    def __init__(
        self,
        footprint_bound: int,
        *,
        seed: int | None = None,
        policy: ThresholdPolicy | None = None,
        counters: CostCounters | None = None,
    ) -> None:
        super().__init__(counters)
        if footprint_bound < 2:
            raise SynopsisError("footprint_bound must be at least 2")
        self.footprint_bound = footprint_bound
        self.policy = policy if policy is not None else MultiplicativeRaise()
        self._rng = ReproRandom(seed)
        # Slots [0, _size) of the parallel arrays hold the sample; the
        # slot map answers "where is this value" for the admission path.
        self._slot: dict[int, int] = {}
        self._values = np.empty(_MIN_CAPACITY, dtype=np.int64)
        self._counts = np.empty(_MIN_CAPACITY, dtype=np.int64)
        # The per-row paths read and write single counts through this
        # view of ``_counts`` (a numpy scalar store costs about twice
        # as much); it is rebound with every new count buffer.
        self._cells = memoryview(self._counts)
        self._size = 0
        self._footprint = 0
        self._total = 0
        self._threshold = 1.0
        self._inserted = 0
        self._deleted = 0
        # One admission coin per offered event at the current 1/tau.
        self._admission = GeometricSkipper(self._rng, self.counters, 1.0)
        # Vectorized randomness for the batch path; created lazily so
        # per-element-only runs consume exactly the same RNG stream as
        # before the batch pipeline existed.
        self._vector_coins: VectorCoins | None = None
        # Memoized read-only copy of the live slots for the answer path;
        # reset to None by every mutation of the arrays.
        self._columnar: tuple[np.ndarray, np.ndarray] | None = None

    def __getstate__(self) -> dict[str, Any]:
        # A memoryview neither pickles nor deep-copies; the copy binds
        # its own to its own count array and builds its own view memo.
        state = self.__dict__.copy()
        del state["_cells"], state["_columnar"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._cells = memoryview(self._counts)
        self._columnar = None

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------

    @property
    def threshold(self) -> float:
        """Current entry threshold ``tau`` (admission probability 1/tau)."""
        return self._threshold

    @property
    def footprint(self) -> int:
        """Words used: one per singleton, two per ``(value, count)`` pair."""
        return self._footprint

    @property
    def distinct_in_sample(self) -> int:
        """Number of distinct values currently in the sample."""
        return self._size

    def __contains__(self, value: int) -> bool:
        return value in self._slot

    def count_of(self, value: int) -> int:
        """The count held for ``value`` (0 if absent)."""
        slot = self._slot.get(value)
        return 0 if slot is None else self._cells[slot]

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Iterate ``(value, count)`` for every value present."""
        size = self._size
        return zip(
            self._values[:size].tolist(),
            self._counts[:size].tolist(),
            strict=True,
        )

    def as_dict(self) -> dict[int, int]:
        """A copy of the sample as ``{value: count}``."""
        return dict(self.pairs())

    def count_histogram(self) -> Mapping[int, int]:
        """Map from count to the number of values with it."""
        return Counter(self._counts[: self._size].tolist())

    def bit_footprint(self, value_bits: int = 32) -> int:
        """Footprint in bits under variable-length count encoding
        (paper footnote 3)."""
        from repro.core.footprint import bit_footprint

        return bit_footprint(self.as_dict(), value_bits)

    def columnar_view(self) -> tuple[np.ndarray, np.ndarray]:
        """Parallel ``(values, counts)`` int64 arrays of the sample.

        A read-only copy of the live slots, memoized until the next
        mutation: repeated reports between inserts share one copy, and
        the first read after a mutation pays one O(m) memcpy.  A view
        that was handed out never changes under its holder.
        """
        view = self._columnar
        if view is None:
            size = self._size
            values = self._values[:size].copy()
            # Copied through the cells the per-row paths write, so the
            # memo-reset rule (reprolint RL013) sees them as a source.
            counts = np.array(self._cells[:size], dtype=np.int64)
            values.setflags(write=False)
            counts.setflags(write=False)
            view = (values, counts)
            self._columnar = view
        return view

    # ------------------------------------------------------------------
    # Slot primitives: every mutation of the arrays goes through these
    # ------------------------------------------------------------------

    def _bump(self, slot: int) -> bool:
        """One more point of the value at ``slot``.

        Returns whether the footprint grew: a singleton that gains a
        point becomes a pair (one more word).
        """
        cells = self._cells
        count = cells[slot]
        cells[slot] = count + 1
        self._total += 1
        self._columnar = None
        if count == 1:
            self._footprint += 1
            return True
        return False

    def _append(self, value: int) -> None:
        """An absent value becomes a singleton in a new slot at the end."""
        size = self._size
        if size == len(self._values):
            self._values = _with_capacity(self._values, 2 * size)
            self._counts = _with_capacity(self._counts, 2 * size)
            self._cells = memoryview(self._counts)
        self._values[size] = value
        self._cells[size] = 1
        self._slot[value] = size
        self._size = size + 1
        self._footprint += 1
        self._total += 1
        self._columnar = None

    def _remove(self, slot: int) -> None:
        """One point fewer at ``slot``.

        A pair of two reverts to a singleton (one word fewer); an
        emptied slot frees its word and takes over the last slot's
        run, so the removal is O(1).
        """
        cells = self._cells
        count = cells[slot]
        if count > 1:
            cells[slot] = count - 1
            if count == 2:
                self._footprint -= 1
        else:
            last = self._size - 1
            del self._slot[self._values.item(slot)]
            if slot != last:
                moved = self._values.item(last)
                self._values[slot] = moved
                cells[slot] = cells[last]
                self._slot[moved] = slot
            self._size = last
            self._footprint -= 1
        self._total -= 1
        self._columnar = None

    def _slots_of(self, values: np.ndarray) -> np.ndarray:
        """Slot of each value, -1 where absent: one dict probe each."""
        get = self._slot.get
        return np.array([get(value, -1) for value in values.tolist()], np.int64)

    def _fold(
        self, values: np.ndarray, added: np.ndarray, slots: np.ndarray
    ) -> None:
        """Give each distinct value ``added`` more points.

        ``slots`` is :meth:`_slots_of` for ``values``.  Present values
        are bumped through an index array; absent values with a
        positive count are appended in the given order, and the rest
        stay out.
        """
        present = slots >= 0
        old_slots = slots[present]
        old_counts = self._counts[old_slots]
        bumps = added[present]
        self._counts[old_slots] = old_counts + bumps
        fresh = ~present & (added > 0)
        new_values = values[fresh]
        new_counts = added[fresh]
        size = self._size
        end = size + len(new_values)
        if end > len(self._values):
            capacity = max(2 * len(self._values), end)
            self._values = _with_capacity(self._values[:size], capacity)
            self._counts = _with_capacity(self._counts[:size], capacity)
            self._cells = memoryview(self._counts)
        self._values[size:end] = new_values
        self._counts[size:end] = new_counts
        self._slot.update(
            zip(new_values.tolist(), range(size, end), strict=True)
        )
        self._size = end
        # A new value costs one word as a singleton, two as a pair; a
        # singleton that gains points becomes a pair (one more word).
        self._footprint += (
            _words(new_counts) + int(np.count_nonzero(old_counts == 1))
        )
        self._total += int(bumps.sum()) + int(new_counts.sum())
        self._columnar = None

    def _keep(self, values: np.ndarray, counts: np.ndarray) -> None:
        """Make the runs with a positive count the whole sample.

        Zero-count runs are dropped stably, so the surviving slots
        keep their relative order.  The new buffers never alias the
        inputs.
        """
        alive = counts > 0
        values = values[alive]
        counts = counts[alive]
        size = len(values)
        capacity = max(_MIN_CAPACITY, 2 * size)
        self._values = _with_capacity(values, capacity)
        self._counts = _with_capacity(counts, capacity)
        self._cells = memoryview(self._counts)
        self._size = size
        self._slot = dict(zip(values.tolist(), range(size), strict=True))
        self._footprint = _words(counts)
        self._total = int(counts.sum())
        self._columnar = None

    # ------------------------------------------------------------------
    # Maintenance shared by both admission rules
    # ------------------------------------------------------------------

    def insert_array(self, values: np.ndarray) -> None:
        """Vectorized bulk insertion.

        Processes the stream in chunks: each chunk is admitted in bulk
        under the subclass's rule (:meth:`_admit_chunk`), and threshold
        raises are applied between chunks with the vectorized sweep.
        The result has the same law as the per-element path (the exact
        random sequences differ; see the statistical-equivalence
        tests).
        """
        n = len(values)
        if n == 0:
            return
        values = np.asarray(values)
        position = 0
        growth = 1
        while position < n:
            chunk_len = min(
                n - position, self._chunk_length() * growth
            )
            chunk = values[position : position + chunk_len]
            position += chunk_len
            self.counters.inserts += chunk_len
            self._inserted += chunk_len
            self._admit_chunk(chunk)
            if self._footprint > self.footprint_bound:
                self._shrink(batch=True)
                growth = 1
            else:
                growth = min(growth * 2, _MAX_CHUNK_GROWTH)

    @abstractmethod
    def _admit_chunk(self, chunk: np.ndarray) -> None:
        """Fold one block of stream elements in under the admission rule."""

    @abstractmethod
    def _thinned(
        self, counts: np.ndarray, new_threshold: float
    ) -> np.ndarray:
        """Per-element sweep: each run's count at ``tau'`` (0: evicted)."""

    @abstractmethod
    def _thinned_batch(
        self, counts: np.ndarray, new_threshold: float
    ) -> np.ndarray:
        """Vectorized sweep with the same law as :meth:`_thinned`."""

    def _coins(self) -> VectorCoins:
        if self._vector_coins is None:
            self._vector_coins = VectorCoins(
                self._rng.numpy_generator(), self.counters
            )
        return self._vector_coins

    def _chunk_length(self) -> int:
        """Stream elements per batch chunk.

        Sized so a chunk admits about ``footprint_bound / 4`` elements
        in expectation, keeping the footprint overshoot before a
        shrink close to the per-element algorithm's.
        """
        expected = self.footprint_bound * max(1.0, self._threshold)
        return max(_MIN_CHUNK, int(expected) // _CHUNK_DIVISOR)

    def _shrink(self, batch: bool = False) -> None:
        """Raise the threshold until the footprint is within bound."""
        while self._footprint > self.footprint_bound:
            new_threshold = self.policy.next_threshold(self)
            if new_threshold <= self._threshold:
                raise SynopsisError(
                    "threshold policy failed to raise the threshold"
                )
            self._evict_to(new_threshold, batch)

    def _evict_to(self, new_threshold: float, batch: bool = False) -> None:
        """Raise ``tau`` to ``new_threshold`` and thin the sample to it.

        Every run is thinned by the subclass's sweep -- per element, or
        vectorized when ``batch`` -- and the emptied slots are
        compacted once.
        """
        self.counters.threshold_raises += 1
        old_threshold = self._threshold
        total_before = self._total
        size = self._size
        counts = self._counts[:size]
        if batch:
            thinned = self._thinned_batch(counts, new_threshold)
        else:
            thinned = self._thinned(counts, new_threshold)
        self._keep(self._values[:size], thinned)
        self._threshold = new_threshold
        self._admission.raise_threshold(new_threshold)
        if obs_probe.PROBE is not None:
            obs_probe.PROBE.on_threshold_raise(
                self.SNAPSHOT_KIND,
                old_threshold,
                new_threshold,
                total_before,
                self._total,
            )

    def _adopt(
        self,
        values: np.ndarray,
        counts: np.ndarray,
        threshold: float,
        inserted: int,
        deleted: int = 0,
    ) -> None:
        """Take over distinct-valued runs kept at ``threshold``.

        Replaces the sample with the positive-count runs, sets the
        threshold and the stream lengths, and raises the threshold
        further if the runs overflow the footprint bound.
        """
        self._keep(values, counts)
        self._threshold = float(threshold)
        self._inserted = int(inserted)
        self._deleted = int(deleted)
        if threshold > 1.0:
            self._admission.raise_threshold(float(threshold))
        if self._footprint > self.footprint_bound:
            self._shrink(batch=True)

    # ------------------------------------------------------------------
    # Snapshots (paper footnote 2) and validation
    # ------------------------------------------------------------------

    @classmethod
    def _restored(
        cls: type[_Sample],
        values: np.ndarray,
        counts: np.ndarray,
        threshold: float,
        footprint_bound: int,
        *,
        inserted: int,
        deleted: int = 0,
        seed: int | None = None,
        policy: ThresholdPolicy | None = None,
        counters: CostCounters | None = None,
    ) -> _Sample:
        """A sample holding the runs ``(values, counts)`` at ``threshold``.

        The one way in for state built outside this object -- snapshots
        from checkpoint files and shard replies, and explicit states --
        so every such state is validated here.
        """
        if not math.isfinite(threshold) or threshold < 1.0:
            raise SynopsisError(
                f"threshold must be finite and at least 1, not {threshold}"
            )
        if np.any(counts <= 0):
            raise SynopsisError("counts must be positive")
        if len(np.unique(values)) != len(values):
            raise SynopsisError("a value is listed more than once")
        if _words(counts) > footprint_bound:
            raise SynopsisError("state exceeds the footprint bound")
        sample = cls(
            footprint_bound, seed=seed, policy=policy, counters=counters
        )
        sample._adopt(values, counts, threshold, inserted, deleted)
        return sample

    def _stream_totals(self) -> dict[str, int]:
        """The stream lengths a snapshot records."""
        return {"total_inserted": self._inserted}

    def to_dict(self) -> dict[str, Any]:
        """Dump to a JSON-able snapshot dict (paper footnote 2).

        Restoring with :meth:`from_dict` is *statistically* equivalent,
        not bitwise: the restored sample carries the same contents,
        threshold, and counters, but a fresh RNG stream (Theorems 2
        and 5 induct over the invariant state -- sample + threshold --
        not the generator).
        """
        if obs_probe.PROBE is not None:
            obs_probe.PROBE.on_snapshot(self.SNAPSHOT_KIND, "dump")
        return {
            "kind": self.SNAPSHOT_KIND,
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "footprint_bound": self.footprint_bound,
            "threshold": self._threshold,
            "counts": [[value, count] for value, count in self.pairs()],
            **self._stream_totals(),
            "counters": self.counters.to_dict(),
        }

    @classmethod
    def from_dict(
        cls: type[_Sample],
        payload: Mapping[str, Any],
        *,
        seed: int | None = None,
    ) -> _Sample:
        """Rebuild a sample from :meth:`to_dict` output.

        ``seed`` re-seeds the restored object's randomness
        (continuation runs should pass a fresh seed; tests may pin
        one).  Raises :class:`SynopsisError` for a payload of another
        kind or a newer format, and for state no sample can hold: a
        threshold below 1 or not finite, a value or count beyond int64,
        a repeated value, a non-positive count, or a footprint over the
        bound.
        """
        noun = cls.SNAPSHOT_KIND.replace("-", " ")
        if payload["kind"] != cls.SNAPSHOT_KIND:
            raise SynopsisError(
                f"snapshot kind {payload['kind']!r} is not a {noun}"
            )
        version = int(payload.get("format_version", 0))
        if version > SNAPSHOT_FORMAT_VERSION:
            raise SynopsisError(
                f"snapshot format {version} is newer than this build "
                f"reads (up to {SNAPSHOT_FORMAT_VERSION})"
            )
        counters = CostCounters.from_dict(payload["counters"])
        try:
            runs = np.asarray(payload["counts"], dtype=np.int64)
        except OverflowError as error:
            raise SynopsisError("a value or count overflows int64") from error
        runs = runs.reshape(-1, 2)
        # Snapshots that predate the per-synopsis stream lengths used
        # the shared ledger's operation counts instead.
        legacy = "total_inserted" not in payload
        # Build on a throwaway ledger so the admission skipper's
        # threshold redraw is not charged to the restored counters,
        # then swap the saved ledger in.
        sample = cls._restored(
            runs[:, 0],
            runs[:, 1],
            float(payload["threshold"]),
            int(payload["footprint_bound"]),
            inserted=int(payload.get("total_inserted", counters.inserts)),
            deleted=int(
                payload.get(
                    "total_deleted", counters.deletes if legacy else 0
                )
            ),
            seed=seed,
        )
        sample.counters = counters
        sample._admission._counters = counters
        if obs_probe.PROBE is not None:
            obs_probe.PROBE.on_snapshot(cls.SNAPSHOT_KIND, "restore")
        return sample

    def check_invariants(self) -> None:
        """Recompute bookkeeping from the raw state; raise on drift.

        Also checks that the slot map and the arrays agree: every slot
        maps back to its value, no value repeats, the live length
        equals the map's size, and the count cells view the live count
        array.
        """
        size = self._size
        values = self._values[:size]
        counts = self._counts[:size]
        if self._cells.obj is not self._counts:
            raise SynopsisError("the count cells view a stale buffer")
        if len(self._slot) != size:
            raise SynopsisError(
                f"slot map holds {len(self._slot)} values, "
                f"arrays hold {size}"
            )
        if len(np.unique(values)) != size:
            raise SynopsisError("a value occupies more than one slot")
        keys = np.fromiter(self._slot.keys(), np.int64, size)
        slots = np.fromiter(self._slot.values(), np.int64, size)
        if np.any((slots < 0) | (slots >= size)) or np.any(
            values[slots] != keys
        ):
            raise SynopsisError("slot map disagrees with the value array")
        if np.any(counts <= 0):
            raise SynopsisError("non-positive sample count")
        footprint = _words(counts)
        total = int(counts.sum())
        if footprint != self._footprint:
            raise SynopsisError(
                f"footprint drift: stored {self._footprint}, "
                f"actual {footprint}"
            )
        if total != self._total:
            raise SynopsisError(
                f"count-total drift: stored {self._total}, actual {total}"
            )
        if self._footprint > self.footprint_bound:
            raise SynopsisError("footprint exceeds its bound")
