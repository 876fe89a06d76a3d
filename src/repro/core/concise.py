"""Concise samples with incremental maintenance (paper Section 3).

A concise sample (Definition 1) is a uniform random sample of an
attribute in which values appearing more than once are represented as a
``(value, count)`` pair.  With *sample-size* the number of represented
sample points and *footprint* the number of memory words used
(Definition 2), the sample-size is never smaller than the footprint and
can be arbitrarily larger on skewed data.

The maintenance algorithm (Section 3.1) keeps an entry threshold
``tau`` (initially 1).  Each warehouse insert enters the sample with
probability ``1/tau``; when the footprint would exceed its bound, the
threshold is raised to some ``tau' > tau`` and every current sample
point survives independently with probability ``tau/tau'`` (Theorem 2
proves the result is a uniform sample at threshold ``tau'``).  Geometric
skip counters make the amortised cost O(1) per insert.

The representation is a pair of parallel int64 arrays -- the distinct
values and their sample counts, in first-admission order -- grown by
doubling, plus a ``value -> slot`` dict.  Admissions append a slot or
bump a count in place; an eviction sweep thins the counts and compacts
the emptied slots once, stably.  The answer path therefore reads the
``(value, count)`` pairs as a copy of two array prefixes, never as a
walk over a dict.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, ClassVar, Iterator, Mapping

import numpy as np

from repro.core.base import (
    SNAPSHOT_FORMAT_VERSION,
    StreamSynopsis,
    SynopsisError,
)
from repro.core.thresholds import MultiplicativeRaise, ThresholdPolicy
from repro.obs import probe as obs_probe
from repro.randkit.coins import CostCounters, EvictionSkipper, GeometricSkipper
from repro.randkit.rng import ReproRandom
from repro.randkit.vectorized import VectorCoins

__all__ = ["ConciseSample"]

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


class ConciseSample(StreamSynopsis):
    """A concise sample maintained within a fixed footprint bound.

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

    Examples
    --------
    >>> sample = ConciseSample(footprint_bound=8, seed=7)
    >>> for value in [3, 3, 3, 5, 9]:
    ...     sample.insert(value)
    >>> sample.sample_size
    5
    >>> sample.footprint <= 8
    True
    """

    SNAPSHOT_KIND: ClassVar[str] = "concise-sample"

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
        self._size = 0
        self._footprint = 0
        self._sample_size = 0
        self._threshold = 1.0
        self._inserted = 0
        self._admission = GeometricSkipper(self._rng, self.counters, 1.0)
        # Vectorized randomness for the batch path; created lazily so
        # per-element-only runs consume exactly the same RNG stream as
        # before the batch pipeline existed.
        self._vector_coins: VectorCoins | None = None
        # Memoized read-only copy of the live slots for the answer path;
        # reset to None by every mutation of the arrays.
        self._columnar: tuple[np.ndarray, np.ndarray] | None = None

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
    def sample_size(self) -> int:
        """Number of sample points represented (``m'`` in the paper)."""
        return self._sample_size

    @property
    def distinct_in_sample(self) -> int:
        """Number of distinct values currently in the sample."""
        return self._size

    @property
    def total_inserted(self) -> int:
        """Warehouse inserts observed by *this* synopsis (``n``).

        Tracked per synopsis, not on the shared
        :class:`~repro.randkit.coins.CostCounters` ledger: several
        synopses may share one cost ledger, and the relation size an
        estimator scales by must be this synopsis's own stream length.
        """
        return self._inserted

    def __contains__(self, value: int) -> bool:
        return value in self._slot

    def __len__(self) -> int:
        return self._sample_size

    def __repr__(self) -> str:
        return (
            f"ConciseSample(footprint={self._footprint}/"
            f"{self.footprint_bound}, sample_size={self._sample_size}, "
            f"threshold={self._threshold:.3f})"
        )

    def count_of(self, value: int) -> int:
        """How many sample points equal ``value`` (0 if absent)."""
        slot = self._slot.get(value)
        return 0 if slot is None else int(self._counts[slot])

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Iterate ``(value, sample count)`` for every value present."""
        size = self._size
        return zip(
            self._values[:size].tolist(),
            self._counts[:size].tolist(),
            strict=True,
        )

    def as_dict(self) -> dict[int, int]:
        """A copy of the sample as ``{value: sample count}``."""
        return dict(self.pairs())

    def count_histogram(self) -> Mapping[int, int]:
        """Map from sample count to the number of values with it."""
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
            counts = self._counts[:size].copy()
            values.setflags(write=False)
            counts.setflags(write=False)
            view = (values, counts)
            self._columnar = view
        return view

    def sample_points(self) -> np.ndarray:
        """The sample expanded to individual points, as an array.

        The result is a uniform random sample (with the threshold
        semantics of Theorem 2) of all values inserted so far, and can
        be fed to any conventional sampling-based estimator.
        """
        size = self._size
        return np.repeat(self._values[:size], self._counts[:size])

    def estimate_frequency(self, value: int) -> float:
        """Estimated occurrence count of ``value`` in the full relation.

        Scales the sample count by ``n / m'`` as in Section 5.1.
        Returns 0.0 for values not in the sample (which is also the
        estimate an empty sample gives).
        """
        if self._sample_size == 0:
            return 0.0
        scale = self._inserted / self._sample_size
        return self.count_of(value) * scale

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def insert(self, value: int) -> bool:
        """Observe one warehouse insert; returns ``True`` if sampled."""
        self.counters.inserts += 1
        self._inserted += 1
        if not self._admission.offer():
            return False
        self._add_sample_point(value)
        if self._footprint > self.footprint_bound:
            self._shrink()
        return True

    def insert_array(self, values: np.ndarray) -> None:
        """Vectorized bulk insertion.

        Processes the stream in chunks: one array of admission coins
        per chunk, one ``np.unique`` aggregation of the admitted
        values, and a bulk update of the concise representation -- the
        per-element Python loop runs only over *distinct admitted*
        values.  Threshold raises are applied between chunks; by
        Theorem 2 subsampling the whole sample to the raised threshold
        is distributionally equivalent to admitting late elements at
        the raised threshold directly, so the result is a concise
        sample with the same law as the per-element path (the exact
        random sequences differ; see the statistical-equivalence
        tests).
        """
        n = len(values)
        if n == 0:
            return
        values = np.asarray(values)
        coins = self._coins()
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
            if self._threshold <= 1.0:
                admitted = chunk
            else:
                mask = coins.admission_mask(
                    1.0 / self._threshold, chunk_len
                )
                admitted = chunk[mask]
            if admitted.size:
                self._add_batch(admitted)
            if self._footprint > self.footprint_bound:
                self._shrink(batch=True)
                growth = 1
            else:
                growth = min(growth * 2, _MAX_CHUNK_GROWTH)

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

    def _add_batch(self, admitted: np.ndarray) -> None:
        """Fold a block of admitted values into the representation.

        One slot lookup per distinct admitted value; existing slots are
        bumped through an index array and new values are appended in
        ascending order.
        """
        uniq, added = np.unique(admitted, return_counts=True)
        self.counters.lookups += len(uniq)
        get = self._slot.get
        slots = np.array([get(value, -1) for value in uniq.tolist()], np.int64)
        present = slots >= 0
        old_slots = slots[present]
        old_counts = self._counts[old_slots]
        self._counts[old_slots] = old_counts + added[present]
        fresh = ~present
        new_values = uniq[fresh]
        new_counts = added[fresh]
        size = self._size
        end = size + len(new_values)
        if end > len(self._values):
            capacity = max(2 * len(self._values), end)
            self._values = _with_capacity(self._values[:size], capacity)
            self._counts = _with_capacity(self._counts[:size], capacity)
        self._values[size:end] = new_values
        self._counts[size:end] = new_counts
        self._slot.update(zip(new_values.tolist(), range(size, end)))
        self._size = end
        # A new value costs one word as a singleton, two as a pair; a
        # singleton that gains points becomes a pair (one more word).
        self._footprint += (
            _words(new_counts) + int(np.count_nonzero(old_counts == 1))
        )
        self._sample_size += int(admitted.size)
        self._columnar = None
        if obs_probe.PROBE is not None:
            obs_probe.PROBE.on_admission(
                self.SNAPSHOT_KIND, int(admitted.size)
            )

    def _add_sample_point(self, value: int) -> None:
        """Place an admitted value into the concise representation."""
        self.counters.lookups += 1
        slot = self._slot.get(value)
        if slot is None:
            # New singleton: one more word, in a new slot at the end.
            size = self._size
            if size == len(self._values):
                self._values = _with_capacity(self._values, 2 * size)
                self._counts = _with_capacity(self._counts, 2 * size)
            self._values[size] = value
            self._counts[size] = 1
            self._slot[value] = size
            self._size = size + 1
            self._footprint += 1
        else:
            count = self._counts.item(slot)
            if count == 1:
                # Singleton converting to a pair: one more word.
                self._footprint += 1
            self._counts[slot] = count + 1
        self._sample_size += 1
        self._columnar = None
        if obs_probe.PROBE is not None:
            obs_probe.PROBE.on_admission(self.SNAPSHOT_KIND, 1)

    def _shrink(self, batch: bool = False) -> None:
        """Raise the threshold until the footprint is within bound."""
        while self._footprint > self.footprint_bound:
            new_threshold = self.policy.next_threshold(self)
            if new_threshold <= self._threshold:
                raise SynopsisError(
                    "threshold policy failed to raise the threshold"
                )
            if batch:
                self._evict_to_batch(new_threshold)
            else:
                self._evict_to(new_threshold)

    def _evict_to(self, new_threshold: float) -> None:
        """Subject every sample point to the stricter threshold.

        Each point survives with probability ``tau / tau'``; the sweep
        uses geometric skips so the flip count is proportional to the
        number of evictions, not the sample-size.
        """
        self.counters.threshold_raises += 1
        old_threshold = self._threshold
        size_before = self._sample_size
        eviction_probability = 1.0 - self._threshold / new_threshold
        sweeper = EvictionSkipper(
            self._rng, self.counters, eviction_probability
        )
        size = self._size
        counts = self._counts[:size]
        evictions = sweeper.evictions_within
        evicted = np.fromiter(
            (evictions(count) for count in counts.tolist()), np.int64, size
        )
        self._keep(self._values[:size], counts - evicted)
        self._threshold = new_threshold
        self._admission.raise_threshold(new_threshold)
        if obs_probe.PROBE is not None:
            obs_probe.PROBE.on_threshold_raise(
                self.SNAPSHOT_KIND,
                old_threshold,
                new_threshold,
                size_before,
                self._sample_size,
            )

    def _evict_to_batch(self, new_threshold: float) -> None:
        """Vectorized eviction sweep: binomial survivors in one op.

        Every ``(value, count)`` run draws its survivor count from
        ``Binomial(count, tau / tau')`` -- the closed form of Theorem
        2's per-point coin flips -- and the emptied slots are compacted
        once.
        """
        self.counters.threshold_raises += 1
        old_threshold = self._threshold
        size_before = self._sample_size
        keep_probability = self._threshold / new_threshold
        size = self._size
        survivors = self._coins().binomial_survivors(
            self._counts[:size], keep_probability
        )
        self._keep(self._values[:size], survivors)
        self._threshold = new_threshold
        self._admission.raise_threshold(new_threshold)
        if obs_probe.PROBE is not None:
            obs_probe.PROBE.on_threshold_raise(
                self.SNAPSHOT_KIND,
                old_threshold,
                new_threshold,
                size_before,
                self._sample_size,
            )

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
        self._size = size
        self._slot = dict(zip(values.tolist(), range(size)))
        self._footprint = _words(counts)
        self._sample_size = int(counts.sum())
        self._columnar = None

    def _adopt(
        self,
        values: np.ndarray,
        counts: np.ndarray,
        threshold: float,
        total_inserted: int,
    ) -> None:
        """Take over distinct-valued runs sampled at ``threshold``.

        Replaces the sample with the positive-count runs, sets the
        threshold and the stream length, and raises the threshold
        further if the runs overflow the footprint bound.
        """
        self._keep(values, counts)
        self._threshold = float(threshold)
        self._inserted = int(total_inserted)
        if threshold > 1.0:
            self._admission.raise_threshold(float(threshold))
        if self._footprint > self.footprint_bound:
            self._shrink(batch=True)

    # ------------------------------------------------------------------
    # Construction from existing state / validation
    # ------------------------------------------------------------------

    @classmethod
    def from_state(
        cls,
        counts: Mapping[int, int],
        threshold: float,
        footprint_bound: int,
        *,
        total_inserted: int = 0,
        seed: int | None = None,
        policy: ThresholdPolicy | None = None,
        counters: CostCounters | None = None,
    ) -> "ConciseSample":
        """Build a concise sample from an explicit ``{value: count}`` state.

        Used by the offline construction and the counting-to-concise
        conversion.  The state must already respect the footprint
        bound.
        """
        sample = cls(
            footprint_bound,
            seed=seed,
            policy=policy,
            counters=counters,
        )
        size = len(counts)
        values = np.fromiter((int(v) for v in counts), np.int64, size)
        tallies = np.fromiter(
            (int(c) for c in counts.values()), np.int64, size
        )
        if np.any(tallies <= 0):
            raise SynopsisError("counts must be positive")
        if _words(tallies) > footprint_bound:
            raise SynopsisError("state exceeds the footprint bound")
        if threshold < 1.0:
            raise SynopsisError("threshold must be at least 1")
        sample._adopt(values, tallies, threshold, total_inserted)
        sample.counters.inserts += total_inserted
        return sample

    def to_dict(self) -> dict[str, Any]:
        """Dump to a JSON-able snapshot dict (paper footnote 2).

        Restoring with :meth:`from_dict` is *statistically* equivalent,
        not bitwise: the restored sample carries the same sample
        contents, threshold, and counters, but a fresh RNG stream
        (Theorem 2's induction is over the invariant state -- sample +
        threshold -- not the generator).
        """
        if obs_probe.PROBE is not None:
            obs_probe.PROBE.on_snapshot(self.SNAPSHOT_KIND, "dump")
        return {
            "kind": self.SNAPSHOT_KIND,
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "footprint_bound": self.footprint_bound,
            "threshold": self._threshold,
            "counts": [[value, count] for value, count in self.pairs()],
            "total_inserted": self._inserted,
            "counters": self.counters.to_dict(),
        }

    @classmethod
    def from_dict(
        cls,
        payload: Mapping[str, Any],
        *,
        seed: int | None = None,
    ) -> "ConciseSample":
        """Rebuild a sample from :meth:`to_dict` output.

        ``seed`` re-seeds the restored object's randomness
        (continuation runs should pass a fresh seed; tests may pin
        one).
        """
        if payload["kind"] != cls.SNAPSHOT_KIND:
            raise SynopsisError(
                f"snapshot kind {payload['kind']!r} is not a concise sample"
            )
        version = int(payload.get("format_version", 0))
        if version > SNAPSHOT_FORMAT_VERSION:
            raise SynopsisError(
                f"snapshot format {version} is newer than this build "
                f"reads (up to {SNAPSHOT_FORMAT_VERSION})"
            )
        counters = CostCounters.from_dict(payload["counters"])
        sample = cls.from_state(
            {int(v): int(c) for v, c in payload["counts"]},
            threshold=float(payload["threshold"]),
            footprint_bound=int(payload["footprint_bound"]),
            total_inserted=int(
                # Older snapshots predate the per-synopsis n and used
                # the shared ledger's insert count as the relation size.
                payload.get("total_inserted", counters.inserts)
            ),
            seed=seed,
        )
        sample.counters = counters
        # from_state starts a fresh admission skipper; re-point it at
        # the restored ledger so future flips are charged correctly.
        sample._admission._counters = counters
        if obs_probe.PROBE is not None:
            obs_probe.PROBE.on_snapshot(cls.SNAPSHOT_KIND, "restore")
        return sample

    def check_invariants(self) -> None:
        """Recompute bookkeeping from the raw state; raise on drift.

        Also checks that the slot map and the arrays agree: every slot
        maps back to its value, no value repeats, and the live length
        equals the map's size.
        """
        size = self._size
        values = self._values[:size]
        counts = self._counts[:size]
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
        sample_size = int(counts.sum())
        if footprint != self._footprint:
            raise SynopsisError(
                f"footprint drift: stored {self._footprint}, "
                f"actual {footprint}"
            )
        if sample_size != self._sample_size:
            raise SynopsisError(
                f"sample-size drift: stored {self._sample_size}, "
                f"actual {sample_size}"
            )
        if self._footprint > self.footprint_bound:
            raise SynopsisError("footprint exceeds its bound")
