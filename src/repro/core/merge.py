"""Merging shard synopses built over partitions of one stream.

Sharded ingestion (BlinkDB-style partition parallelism) builds one
synopsis per partition and needs a merge at query time.  Theorem 2
makes this provably correct for concise samples: a concise sample at
threshold ``tau`` subsampled so every point survives with probability
``tau / tau*`` is a concise sample at threshold ``tau*``.  Raising all
shards to the *maximum* shard threshold and unioning the survivor
multisets therefore yields exactly the sample that a single maintenance
run at threshold ``tau*`` over the concatenated stream would produce --
each stream element independently survives with probability
``1 / tau*`` regardless of which shard saw it.

Counting samples merge with one documented caveat: the merged count of
a value is the **sum of the per-shard observed tails** (after each
shard re-runs its admission tail at ``tau*`` via Theorem 5), whereas a
single-stream counting sample pays only one admission delay per value.
The merged counts are therefore stochastically slightly smaller for
values split across shards; hot values (the ones counting samples
exist to track) are admitted almost immediately on every shard, so the
gap is bounded by ``k``-shards worth of admission delay.  For a merge
with the exact single-stream law, convert shards to concise samples
first (:func:`repro.core.convert.counting_to_concise`) and use
:func:`merge_concise`.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

import numpy as np

from repro.core.base import SynopsisError
from repro.core.concise import ConciseSample
from repro.core.counting import CountingSample, subsample_tail_counts
from repro.core.pairs import PairSample
from repro.core.thresholds import ThresholdPolicy
from repro.obs import probe as obs_probe
from repro.randkit.coins import CostCounters
from repro.randkit.vectorized import VectorCoins

__all__ = ["merge_concise", "merge_counting"]

_Sample = TypeVar("_Sample", bound=PairSample)
# Thins one shard's counts from its threshold to the merge target.
_Thin = Callable[[VectorCoins, np.ndarray, float, float], np.ndarray]


def _merged(
    cls: type[_Sample],
    samples: Sequence[_Sample],
    thin: _Thin,
    seed: int | None,
    footprint_bound: int | None,
    policy: ThresholdPolicy | None,
    counters: CostCounters | None,
) -> _Sample:
    """Thin every shard to the largest shard threshold and sum the
    survivors per value, in the order the shards first present them."""
    if not samples:
        raise SynopsisError("merge requires at least one sample")
    bound = (
        footprint_bound
        if footprint_bound is not None
        else max(s.footprint_bound for s in samples)
    )
    target = max(s.threshold for s in samples)
    merged = cls(bound, seed=seed, policy=policy, counters=counters)
    coins = merged._coins()
    shard_values: list[np.ndarray] = []
    shard_counts: list[np.ndarray] = []
    for shard in samples:
        values, tallies = shard.columnar_view()
        shard_values.append(values)
        shard_counts.append(thin(coins, tallies, shard.threshold, target))
    merged_values = np.concatenate(shard_values)
    merged_counts = np.concatenate(shard_counts)
    alive = merged_counts > 0
    union, first, slots = np.unique(
        merged_values[alive], return_index=True, return_inverse=True
    )
    totals = np.zeros(len(union), dtype=np.int64)
    np.add.at(totals, slots, merged_counts[alive])
    order = np.argsort(first)
    merged._adopt(
        union[order],
        totals[order],
        target,
        sum(s._inserted for s in samples),
        sum(s._deleted for s in samples),
    )
    if obs_probe.PROBE is not None:
        obs_probe.PROBE.on_merge(cls.SNAPSHOT_KIND, len(samples))
    return merged


def _binomial_thin(
    coins: VectorCoins, counts: np.ndarray, threshold: float, target: float
) -> np.ndarray:
    return coins.binomial_survivors(counts, threshold / target)


def _tail_thin(
    coins: VectorCoins, counts: np.ndarray, threshold: float, target: float
) -> np.ndarray:
    if target <= threshold:
        return counts
    return subsample_tail_counts(
        counts, threshold / target, target, coins.uniforms(len(counts))
    )


def merge_concise(
    samples: Sequence[ConciseSample],
    *,
    seed: int | None = None,
    footprint_bound: int | None = None,
    policy: ThresholdPolicy | None = None,
    counters: CostCounters | None = None,
) -> ConciseSample:
    """Merge shard concise samples into one concise sample.

    Every shard is raised to the maximum shard threshold by Theorem-2
    subsampling (each point survives with probability
    ``tau_shard / tau*``, drawn as per-run binomial survivors), then
    the survivor multisets are unioned.  If the union overflows the
    result's footprint bound, the ordinary shrink loop raises the
    threshold further.  The input shards are not modified.

    Parameters
    ----------
    samples:
        Shard samples; at least one.
    seed:
        Seed for the merge's own randomness (subsampling draws).
    footprint_bound:
        Bound for the merged sample; defaults to the largest shard
        bound.
    policy, counters:
        As for :class:`~repro.core.concise.ConciseSample`.
    """
    return _merged(
        ConciseSample, samples, _binomial_thin, seed, footprint_bound, policy, counters
    )


def merge_counting(
    samples: Sequence[CountingSample],
    *,
    seed: int | None = None,
    footprint_bound: int | None = None,
    policy: ThresholdPolicy | None = None,
    counters: CostCounters | None = None,
) -> CountingSample:
    """Merge shard counting samples into one counting sample.

    Each shard re-runs its admission tails at the maximum shard
    threshold (the Theorem-5 subsample, vectorized), then surviving
    per-shard observed counts are summed.  See the module docstring
    for the admission-delay caveat versus a single-stream sample.
    The input shards are not modified.
    """
    return _merged(
        CountingSample, samples, _tail_thin, seed, footprint_bound, policy, counters
    )
