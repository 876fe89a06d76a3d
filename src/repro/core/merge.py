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

from collections import Counter
from typing import Sequence

import numpy as np

from repro.core.base import SynopsisError
from repro.core.concise import ConciseSample
from repro.core.counting import CountingSample, subsample_tail_counts
from repro.core.thresholds import ThresholdPolicy
from repro.obs import probe as obs_probe
from repro.randkit.coins import CostCounters

__all__ = ["merge_concise", "merge_counting"]


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
    if not samples:
        raise SynopsisError("merge requires at least one sample")
    bound = (
        footprint_bound
        if footprint_bound is not None
        else max(s.footprint_bound for s in samples)
    )
    target = max(s.threshold for s in samples)
    merged = ConciseSample(
        bound, seed=seed, policy=policy, counters=counters
    )
    coins = merged._coins()
    shard_values: list[np.ndarray] = []
    shard_survivors: list[np.ndarray] = []
    for shard in samples:
        values, tallies = shard.columnar_view()
        survivors = coins.binomial_survivors(
            tallies, shard.threshold / target
        )
        alive = survivors > 0
        shard_values.append(values[alive])
        shard_survivors.append(survivors[alive])
    union, first, slots = np.unique(
        np.concatenate(shard_values), return_index=True, return_inverse=True
    )
    totals = np.zeros(len(union), dtype=np.int64)
    np.add.at(totals, slots, np.concatenate(shard_survivors))
    # Runs keep the order in which the shards first present each value.
    order = np.argsort(first)
    merged._adopt(
        union[order],
        totals[order],
        target,
        sum(s.total_inserted for s in samples),
    )
    if obs_probe.PROBE is not None:
        obs_probe.PROBE.on_merge(ConciseSample.SNAPSHOT_KIND, len(samples))
    return merged


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
    if not samples:
        raise SynopsisError("merge requires at least one sample")
    bound = (
        footprint_bound
        if footprint_bound is not None
        else max(s.footprint_bound for s in samples)
    )
    target = max(s.threshold for s in samples)
    merged = CountingSample(
        bound, seed=seed, policy=policy, counters=counters
    )
    coins = merged._coins()
    union: Counter[int] = Counter()
    for shard in samples:
        values, tallies = shard.columnar_view()
        if target > shard.threshold:
            new_counts = subsample_tail_counts(
                tallies,
                shard.threshold / target,
                target,
                coins.uniforms(len(tallies)),
            )
        else:
            new_counts = tallies
        alive = new_counts > 0
        for value, count in zip(
            values[alive].tolist(), new_counts[alive].tolist(), strict=True
        ):
            union[value] += count
    merged._counts = dict(union)
    merged._footprint = sum(
        1 if c == 1 else 2 for c in union.values()
    )
    merged._threshold = float(target)
    merged._inserted = sum(s._inserted for s in samples)
    merged._deleted = sum(s._deleted for s in samples)
    if target > 1.0:
        merged._admission.raise_threshold(float(target))
    if merged._footprint > merged.footprint_bound:
        merged._shrink(batch=True)
    if obs_probe.PROBE is not None:
        obs_probe.PROBE.on_merge(
            CountingSample.SNAPSHOT_KIND, len(samples)
        )
    return merged
