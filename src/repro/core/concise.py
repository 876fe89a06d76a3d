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

The representation, its bookkeeping and the raise loop are shared with
counting samples (:class:`~repro.core.pairs.PairSample`); this module
holds the concise sample's admission rule and its two eviction sweeps.
"""

from __future__ import annotations

from typing import ClassVar, Mapping

import numpy as np

from repro.core.pairs import PairSample
from repro.core.thresholds import ThresholdPolicy
from repro.obs import probe as obs_probe
from repro.randkit.coins import CostCounters, EvictionSkipper

__all__ = ["ConciseSample"]


class ConciseSample(PairSample):
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

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------

    @property
    def sample_size(self) -> int:
        """Number of sample points represented (``m'`` in the paper)."""
        return self._total

    @property
    def total_inserted(self) -> int:
        """Warehouse inserts observed by *this* synopsis (``n``).

        Tracked per synopsis, not on the shared
        :class:`~repro.randkit.coins.CostCounters` ledger: several
        synopses may share one cost ledger, and the relation size an
        estimator scales by must be this synopsis's own stream length.
        """
        return self._inserted

    def __len__(self) -> int:
        return self._total

    def __repr__(self) -> str:
        return (
            f"ConciseSample(footprint={self._footprint}/"
            f"{self.footprint_bound}, sample_size={self._total}, "
            f"threshold={self._threshold:.3f})"
        )

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
        if self._total == 0:
            return 0.0
        scale = self._inserted / self._total
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
        self.counters.lookups += 1
        slot = self._slot.get(value)
        if slot is None:
            self._append(value)
        else:
            self._bump(slot)
        if obs_probe.PROBE is not None:
            obs_probe.PROBE.on_admission(self.SNAPSHOT_KIND, 1)
        if self._footprint > self.footprint_bound:
            self._shrink()
        return True

    def _admit_chunk(self, chunk: np.ndarray) -> None:
        """Admit each element with probability ``1/tau``, in bulk.

        One array of admission coins, one ``np.unique`` aggregation of
        the admitted values, and one slot lookup per distinct admitted
        value.  Theorem 2 makes raising the threshold between chunks
        distributionally equivalent to admitting late elements at the
        raised threshold directly.
        """
        # The coin generator is drawn before the first admission, even
        # at tau = 1, so when it is drawn does not depend on the data.
        coins = self._coins()
        if self._threshold <= 1.0:
            admitted = chunk
        else:
            admitted = chunk[
                coins.admission_mask(1.0 / self._threshold, len(chunk))
            ]
        if not admitted.size:
            return
        uniq, added = np.unique(admitted, return_counts=True)
        self.counters.lookups += len(uniq)
        self._fold(uniq, added, self._slots_of(uniq))
        if obs_probe.PROBE is not None:
            obs_probe.PROBE.on_admission(
                self.SNAPSHOT_KIND, int(admitted.size)
            )

    def _thinned(
        self, counts: np.ndarray, new_threshold: float
    ) -> np.ndarray:
        """Subject every sample point to the stricter threshold.

        Each point survives with probability ``tau / tau'``; the sweep
        uses geometric skips so the flip count is proportional to the
        number of evictions, not the sample-size.
        """
        sweeper = EvictionSkipper(
            self._rng, self.counters, 1.0 - self._threshold / new_threshold
        )
        evictions = sweeper.evictions_within
        evicted = np.fromiter(
            (evictions(count) for count in counts.tolist()),
            np.int64,
            len(counts),
        )
        return counts - evicted

    def _thinned_batch(
        self, counts: np.ndarray, new_threshold: float
    ) -> np.ndarray:
        """Vectorized eviction sweep: binomial survivors in one op.

        Every ``(value, count)`` run draws its survivor count from
        ``Binomial(count, tau / tau')`` -- the closed form of Theorem
        2's per-point coin flips.
        """
        return self._coins().binomial_survivors(
            counts, self._threshold / new_threshold
        )

    # ------------------------------------------------------------------
    # Construction from existing state
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
        size = len(counts)
        sample = cls._restored(
            np.fromiter((int(v) for v in counts), np.int64, size),
            np.fromiter((int(c) for c in counts.values()), np.int64, size),
            threshold,
            footprint_bound,
            inserted=total_inserted,
            seed=seed,
            policy=policy,
            counters=counters,
        )
        sample.counters.inserts += total_inserted
        return sample
