"""Counting samples with insert/delete maintenance (paper Section 4).

A counting sample (Definition 3) is the variation of a concise sample
in which, once a value wins an admission coin flip, **all** of its
subsequent occurrences are counted exactly.  The count is therefore not
a sample count but an observed tail count of the value's occurrences,
which is why Section 5's hot-list reporter adds the compensation
constant ``c-hat`` rather than scaling.

Maintenance (Section 4.1): every insert looks up its value; a present
value has its count incremented (no randomness), an absent value is
admitted with probability ``1/tau``.  When the footprint overflows,
the threshold is raised to ``tau'`` and every value re-runs its
admission tail: a first coin with heads probability ``tau/tau'``, then
further coins at ``1/tau'``, decrementing the count on each tails until
a heads or zero (Theorem 5 proves correctness).  Deletions simply
decrement (Theorem 5 again), which is the decisive advantage over
concise samples.

The representation, its bookkeeping and the raise loop are shared with
concise samples (:class:`~repro.core.pairs.PairSample`); this module
holds the counting sample's admission rule, its two threshold-raise
sweeps, and deletion.
"""

from __future__ import annotations

import math
from typing import ClassVar

import numpy as np

from repro.core.pairs import PairSample
from repro.core.thresholds import ThresholdPolicy
from repro.obs import probe as obs_probe
from repro.randkit.coins import CostCounters

__all__ = ["CountingSample", "subsample_tail_counts"]


def subsample_tail_counts(
    counts: np.ndarray,
    keep_probability: float,
    new_threshold: float,
    uniforms: np.ndarray,
) -> np.ndarray:
    """Re-run admission tails for counting-sample runs, vectorized.

    Implements Section 4.1's threshold raise in closed form for an
    array of observed counts: each run keeps its full count with
    probability ``keep_probability`` (= ``tau / tau'``); otherwise it
    loses one point plus a geometric number of further points at tails
    probability ``1 - 1/tau'`` (Theorem 5).  One uniform per run drives
    the whole decision -- its position below/above ``keep_probability``
    is the first coin, and the renormalised remainder inverts the
    geometric tails run.  Returns the new counts (zeros mean evicted).
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0:
        return counts.copy()
    tail_log = math.log1p(-1.0 / new_threshold)
    keep = uniforms < keep_probability
    with np.errstate(divide="ignore"):
        conditional = (uniforms - keep_probability) / (
            1.0 - keep_probability
        )
        tails = np.where(
            conditional > 0.0,
            np.floor(np.log(np.maximum(conditional, 1e-320)) / tail_log),
            counts,  # degenerate endpoint: the whole run drains
        ).astype(np.int64)
    removed = 1 + np.minimum(tails, counts - 1)
    return np.where(keep, counts, counts - removed)


class CountingSample(PairSample):
    """A counting sample maintained within a fixed footprint bound.

    Parameters mirror :class:`~repro.core.concise.ConciseSample`.

    Examples
    --------
    >>> sample = CountingSample(footprint_bound=8, seed=7)
    >>> for value in [3, 3, 3, 5]:
    ...     sample.insert(value)
    >>> sample.count_of(3)   # all occurrences counted once admitted
    3
    >>> sample.delete(3)
    >>> sample.count_of(3)
    2
    """

    SNAPSHOT_KIND: ClassVar[str] = "counting-sample"

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------

    @property
    def total_count(self) -> int:
        """Sum of all observed counts in the sample."""
        return self._total

    @property
    def total_inserted(self) -> int:
        """Net relation size ``n`` implied by *this* synopsis's stream.

        Tracked per synopsis rather than on the (possibly shared)
        :class:`~repro.randkit.coins.CostCounters` ledger, so several
        synopses sharing one cost ledger each report their own ``n``.
        """
        return self._inserted - self._deleted

    def __repr__(self) -> str:
        return (
            f"CountingSample(footprint={self._footprint}/"
            f"{self.footprint_bound}, distinct={self._size}, "
            f"threshold={self._threshold:.3f})"
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def insert(self, value: int) -> None:
        """Observe one warehouse insert of ``value``.

        A present value is counted (no randomness); an absent value is
        admitted with probability ``1/tau``.
        """
        counters = self.counters
        counters.inserts += 1
        counters.lookups += 1
        self._inserted += 1
        slot = self._slot.get(value)
        if slot is not None:
            if self._bump(slot) and self._footprint > self.footprint_bound:
                self._shrink()
            return
        if not self._admission.offer():
            return
        self._append(value)
        if obs_probe.PROBE is not None:
            obs_probe.PROBE.on_admission(self.SNAPSHOT_KIND, 1)
        if self._footprint > self.footprint_bound:
            self._shrink()

    def _admit_chunk(self, chunk: np.ndarray) -> None:
        """Count present values and admit absent ones, in bulk.

        A counting sample cannot skip stream elements -- present values
        must be counted exactly -- but it *can* aggregate them: the
        chunk is reduced with one ``np.unique``, occurrences of present
        values are added to their counts through an index array, and
        absent values draw their whole admission tail as one geometric
        array op (count = occurrences - pre-admission failures).
        """
        uniq, occurrences = np.unique(chunk, return_counts=True)
        # One hash probe per distinct value in the chunk (the batch
        # economy the per-element path cannot have).
        self.counters.lookups += len(uniq)
        slots = self._slots_of(uniq)
        absent = slots < 0
        added = occurrences
        if self._threshold > 1.0 and absent.any():
            added = occurrences.copy()
            added[absent] = self._coins().admission_survivors(
                1.0 / self._threshold, occurrences[absent]
            )
        self._fold(uniq, added, slots)
        if obs_probe.PROBE is not None:
            admitted = int(np.count_nonzero(added[absent] > 0))
            if admitted:
                obs_probe.PROBE.on_admission(self.SNAPSHOT_KIND, admitted)

    def delete(self, value: int) -> None:
        """Observe one warehouse delete of ``value``.

        If the value is in the sample its count is decremented (and the
        value removed on reaching zero); otherwise nothing changes.
        Theorem 5 shows this preserves the counting-sample property.
        """
        self.counters.deletes += 1
        self._deleted += 1
        self.counters.lookups += 1
        slot = self._slot.get(value)
        if slot is not None:
            self._remove(slot)

    def _thinned(
        self, counts: np.ndarray, new_threshold: float
    ) -> np.ndarray:
        """Re-run every value's admission tail at the stricter threshold.

        For each value: first coin heads with probability
        ``tau / tau'`` (keep the full count); on tails decrement and
        keep flipping at ``1/tau'`` until a heads or the count reaches
        zero.  The tails run is drawn in closed form (a geometric),
        so the cost is O(1) flips per value.
        """
        keep_probability = self._threshold / new_threshold
        tail_log = math.log1p(-1.0 / new_threshold)
        thinned = counts.tolist()
        for index, count in enumerate(thinned):
            # One uniform drives the whole per-value decision: its
            # position below/above keep_probability is the first coin,
            # and conditioned on tails, the renormalised remainder is a
            # fresh uniform that inverts the geometric tails run.
            self.counters.flips += 1
            u = self._rng.uniform()
            if u < keep_probability:
                continue
            removed = 1
            remaining = count - 1
            if remaining > 0:
                conditional = (u - keep_probability) / (
                    1.0 - keep_probability
                )
                # Inverse-CDF of the further-tails geometric; guard the
                # degenerate endpoint where the uniform renormalises
                # to exactly 0.
                if conditional <= 0.0:
                    tails = remaining
                else:
                    tails = int(math.log(conditional) / tail_log)
                removed += min(tails, remaining)
            thinned[index] = count - removed
        return np.array(thinned, dtype=np.int64)

    def _thinned_batch(
        self, counts: np.ndarray, new_threshold: float
    ) -> np.ndarray:
        """Vectorized threshold raise: all admission tails in one op.

        Semantically identical to :meth:`_thinned` -- one uniform per
        value drives the keep/tail decision -- but the uniforms are
        drawn as one array and the tail inversion runs in numpy via
        :func:`subsample_tail_counts`.
        """
        return subsample_tail_counts(
            counts,
            self._threshold / new_threshold,
            new_threshold,
            self._coins().uniforms(counts.size),
        )

    @classmethod
    def merge(
        cls,
        samples: "list[CountingSample]",
        *,
        seed: int | None = None,
        footprint_bound: int | None = None,
        policy: ThresholdPolicy | None = None,
        counters: CostCounters | None = None,
    ) -> "CountingSample":
        """Merge shard counting samples; see :func:`repro.core.merge.merge_counting`."""
        from repro.core.merge import merge_counting

        return merge_counting(
            samples,
            seed=seed,
            footprint_bound=footprint_bound,
            policy=policy,
            counters=counters,
        )

    def _stream_totals(self) -> dict[str, int]:
        """The stream lengths a snapshot records: inserts and deletes."""
        return {
            "total_inserted": self._inserted,
            "total_deleted": self._deleted,
        }
