"""Traditional samples via reservoir sampling (Vitter [Vit85]).

This is the baseline synopsis the paper compares against: a uniform
random sample of fixed size ``m`` whose footprint equals its
sample-size.  Maintenance uses Algorithm X's skip technique -- one
uniform draw determines how many stream records to skip before the
next reservoir replacement -- so a full pass costs roughly
``2 m ln(n/m)`` counted flips (one skip draw plus one victim-slot draw
per replacement), matching the "traditional" rows of Tables 1 and 2.
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
from repro.obs import probe as obs_probe
from repro.randkit.coins import CostCounters
from repro.randkit.rng import ReproRandom

__all__ = ["ReservoirSample"]


class ReservoirSample(StreamSynopsis):
    """A uniform reservoir sample of fixed capacity.

    Parameters
    ----------
    capacity:
        The sample size ``m`` (equal to the footprint for a
        traditional sample).
    seed:
        Seed for all randomness of this sample instance.
    counters:
        Optional shared cost ledger.

    Examples
    --------
    >>> sample = ReservoirSample(capacity=3, seed=1)
    >>> sample.insert_many(range(100))
    >>> len(sample.points()) == 3
    True
    """

    SNAPSHOT_KIND: ClassVar[str] = "reservoir-sample"

    def __init__(
        self,
        capacity: int,
        *,
        seed: int | None = None,
        counters: CostCounters | None = None,
    ) -> None:
        super().__init__(counters)
        if capacity < 1:
            raise SynopsisError("capacity must be at least 1")
        self.capacity = capacity
        self._rng = ReproRandom(seed)
        self._reservoir: list[int] = []
        self._seen = 0
        self._pending_skip = -1  # -1: no skip drawn yet (filling phase)
        # Memoized semi-sorted (values, counts) arrays for the answer
        # path; reset to None whenever the reservoir contents change.
        self._columnar: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------

    @property
    def footprint(self) -> int:
        """Words used -- identical to the current sample size."""
        return len(self._reservoir)

    @property
    def sample_size(self) -> int:
        """Number of sample points (at most ``capacity``)."""
        return len(self._reservoir)

    @property
    def total_inserted(self) -> int:
        """Stream records observed so far."""
        return self._seen

    def points(self) -> list[int]:
        """A copy of the current sample points."""
        return list(self._reservoir)

    def as_array(self) -> np.ndarray:
        """The current sample points as an ``int64`` array."""
        return np.asarray(self._reservoir, dtype=np.int64)

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Semi-sort the sample into ``(value, count)`` pairs.

        This is the first step of the traditional hot-list reporter
        (Section 5.1): collapse repeated sample points into pairs.
        """
        return iter(Counter(self._reservoir).items())

    def columnar_view(self) -> tuple[np.ndarray, np.ndarray]:
        """The semi-sorted sample as parallel ``(values, counts)`` arrays.

        The columnar form of :meth:`pairs` (one ``np.unique`` instead
        of a Counter walk), memoized until the reservoir next changes;
        the arrays are shared across calls and marked read-only.
        """
        view = self._columnar
        if view is None:
            values, counts = np.unique(self.as_array(), return_counts=True)
            values.setflags(write=False)
            counts.setflags(write=False)
            view = (values, counts)
            self._columnar = view
        return view

    def count_of(self, value: int) -> int:
        """How many sample points equal ``value`` (0 if absent): a
        binary search of the sorted :meth:`columnar_view`."""
        values, counts = self.columnar_view()
        index = int(np.searchsorted(values, value))
        if index < len(values) and values[index] == value:
            return int(counts[index])
        return 0

    def estimate_frequency(self, value: int) -> float:
        """Estimated relation count of ``value``: sample count times
        ``n / m``."""
        if not self._reservoir:
            return 0.0
        scale = self._seen / len(self._reservoir)
        return self.count_of(value) * scale

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def insert(self, value: int) -> None:
        """Observe one stream record (Algorithm X skip technique).

        The skip is drawn lazily from the number of records already
        processed; a pending skip invalidated by :meth:`insert_array`
        is simply redrawn, which is distributionally exact because the
        per-record acceptance events are independent.
        """
        self.counters.inserts += 1
        if len(self._reservoir) < self.capacity:
            self._seen += 1
            self._reservoir.append(value)
            self._columnar = None
            if obs_probe.PROBE is not None:
                obs_probe.PROBE.on_admission(self.SNAPSHOT_KIND, 1)
            return
        if self._pending_skip < 0:
            self._pending_skip = self._draw_skip()
        self._seen += 1
        if self._pending_skip == 0:
            self._replace(value)
            self._pending_skip = -1
        else:
            self._pending_skip -= 1

    def insert_array(self, values: np.ndarray) -> None:
        """Vectorised bulk insertion.

        Statistically identical to repeated :meth:`insert` (record
        ``t`` enters with probability ``m/t`` and replaces a uniform
        slot); flips are charged with the same skip-based accounting
        (two per replacement).
        """
        position = 0
        n = len(values)
        self.counters.inserts += n
        if n:
            self._columnar = None
        # Fill phase.
        while position < n and len(self._reservoir) < self.capacity:
            self._reservoir.append(int(values[position]))
            self._seen += 1
            position += 1
        if position >= n:
            if obs_probe.PROBE is not None and position:
                obs_probe.PROBE.on_admission(self.SNAPSHOT_KIND, position)
            return
        remaining = np.asarray(values[position:])
        count = len(remaining)
        record_numbers = self._seen + 1 + np.arange(count, dtype=np.float64)
        bulk_rng = self._rng.numpy_generator()
        accepted = (
            bulk_rng.random(count) * record_numbers < self.capacity
        ).nonzero()[0]
        slots = bulk_rng.integers(self.capacity, size=len(accepted))
        for offset, slot in zip(accepted.tolist(), slots.tolist(), strict=True):
            self._reservoir[slot] = int(remaining[offset])
        self.counters.flips += 2 * len(accepted)
        self._seen += count
        # Invalidate any pending per-record skip; it will be redrawn.
        self._pending_skip = -1
        if obs_probe.PROBE is not None:
            obs_probe.PROBE.on_admission(
                self.SNAPSHOT_KIND, position + len(accepted)
            )

    def _draw_skip(self) -> int:
        """Records to skip before the next replacement.

        Sequential-search inversion of the skip distribution:
        ``P(skip > s) = prod_{i=1..s+1} (1 - m/(seen+i))``.  One
        counted flip consumes the single uniform driving the search.
        """
        self.counters.flips += 1
        u = self._rng.uniform()
        skip = 0
        tail = 1.0 - self.capacity / (self._seen + 1)
        while tail > u:
            skip += 1
            tail *= 1.0 - self.capacity / (self._seen + skip + 1)
        return skip

    def _replace(self, value: int) -> None:
        """Replace a uniformly chosen reservoir slot with ``value``."""
        self.counters.flips += 1
        slot = self._rng.choice_index(self.capacity)
        self._reservoir[slot] = value
        self._columnar = None
        if obs_probe.PROBE is not None:
            obs_probe.PROBE.on_admission(self.SNAPSHOT_KIND, 1)

    def to_dict(self) -> dict[str, Any]:
        """Dump to a JSON-able snapshot dict (paper footnote 2)."""
        if obs_probe.PROBE is not None:
            obs_probe.PROBE.on_snapshot(self.SNAPSHOT_KIND, "dump")
        return {
            "kind": self.SNAPSHOT_KIND,
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "capacity": self.capacity,
            "points": list(self._reservoir),
            "seen": self._seen,
            "counters": self.counters.to_dict(),
        }

    @classmethod
    def from_dict(
        cls,
        payload: Mapping[str, Any],
        *,
        seed: int | None = None,
    ) -> "ReservoirSample":
        """Rebuild a reservoir from :meth:`to_dict` output."""
        if payload["kind"] != cls.SNAPSHOT_KIND:
            raise SynopsisError(
                f"snapshot kind {payload['kind']!r} is not a reservoir sample"
            )
        version = int(payload.get("format_version", 0))
        if version > SNAPSHOT_FORMAT_VERSION:
            raise SynopsisError(
                f"snapshot format {version} is newer than this build "
                f"reads (up to {SNAPSHOT_FORMAT_VERSION})"
            )
        counters = CostCounters.from_dict(payload["counters"])
        sample = cls(
            int(payload["capacity"]), seed=seed, counters=counters
        )
        sample._reservoir = [int(v) for v in payload["points"]]
        sample._seen = int(payload["seen"])
        sample._columnar = None
        sample.check_invariants()
        if obs_probe.PROBE is not None:
            obs_probe.PROBE.on_snapshot(cls.SNAPSHOT_KIND, "restore")
        return sample

    def check_invariants(self) -> None:
        """Validate the reservoir never exceeds its capacity."""
        if len(self._reservoir) > self.capacity:
            raise SynopsisError("reservoir exceeds capacity")
        if self._seen >= self.capacity and len(self._reservoir) != min(
            self._seen, self.capacity
        ):
            raise SynopsisError("reservoir under-filled")
