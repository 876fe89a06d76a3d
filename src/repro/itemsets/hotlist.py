"""Incremental hot lists over the k-itemsets of a transaction stream.

Each observed basket contributes every one of its ``C(|basket|, k)``
size-``k`` itemsets as one insert into a counting sample keyed by the
encoded itemset.  The counting-sample machinery then does exactly what
the paper describes for newly-popular itemsets: "If tau is the
estimated itemset count of the smallest itemset in the hot list, then
we add each new item with probability 1/tau.  Thus, although we cannot
afford to maintain counts that will detect when a newly-popular
itemset has now occurred tau or more times, we probabilistically expect
to have tau occurrences of the itemset before we (tentatively) add the
itemset to the hot list."
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from repro.core.counting import CountingSample
from repro.core.thresholds import ThresholdPolicy
from repro.hotlist.base import HotListAnswer, kth_largest, order_entries
from repro.itemsets.encoding import decode_itemset, encode_itemset
from repro.randkit.coins import CostCounters
from repro.stats.theory import compensation_constant, counting_report_cutoff

__all__ = ["ItemsetHotList"]


class ItemsetHotList:
    """Approximate top-k itemsets from a stream of baskets.

    Parameters
    ----------
    itemset_size:
        The ``k`` of "k-itemsets" (2 = pairs, 3 = triples, ...).
    footprint_bound:
        Memory words for the underlying counting sample.
    max_basket_items:
        Baskets longer than this are truncated to their first items
        (combinatorial blow-up guard); ``None`` disables the guard.
    seed, policy, counters:
        As for :class:`~repro.core.counting.CountingSample`.
    """

    def __init__(
        self,
        itemset_size: int,
        footprint_bound: int,
        *,
        max_basket_items: int | None = 30,
        seed: int | None = None,
        policy: ThresholdPolicy | None = None,
        counters: CostCounters | None = None,
    ) -> None:
        if itemset_size < 1:
            raise ValueError("itemset_size must be positive")
        if max_basket_items is not None and max_basket_items < itemset_size:
            raise ValueError(
                "max_basket_items must be at least itemset_size"
            )
        self.itemset_size = itemset_size
        self.max_basket_items = max_basket_items
        self.sample = CountingSample(
            footprint_bound, seed=seed, policy=policy, counters=counters
        )
        self._baskets_observed = 0
        # The sample holds int64 values, but a packed itemset outgrows
        # int64 from k = 3 (24 bits per item).  So the sample counts
        # small keys: each itemset it holds has one, and an itemset it
        # does not hold is offered under a key it has never seen.  A
        # counting sample admits every absent value by the same 1/tau
        # coin whatever the value, so this is the sample, and the
        # random stream, it would have over the packed itemsets.
        self._key_of: dict[int, int] = {}
        self._itemset_of: dict[int, int] = {}
        self._next_key = 0

    @property
    def footprint(self) -> int:
        """Words used by the underlying counting sample."""
        return self.sample.footprint

    @property
    def baskets_observed(self) -> int:
        """Baskets processed so far."""
        return self._baskets_observed

    @property
    def itemsets_observed(self) -> int:
        """Individual k-itemset occurrences processed so far."""
        return self.sample.total_inserted

    def observe(self, basket: tuple[int, ...]) -> None:
        """Process one basket (a tuple of distinct item ids)."""
        self._baskets_observed += 1
        items = tuple(sorted(set(basket)))
        if self.max_basket_items is not None:
            items = items[: self.max_basket_items]
        if len(items) < self.itemset_size:
            return
        for itemset in combinations(items, self.itemset_size):
            self._offer(encode_itemset(itemset))

    def _offer(self, encoded: int) -> None:
        """One occurrence of a packed itemset."""
        sample = self.sample
        key = self._key_of.get(encoded)
        if key is not None and key in sample:
            sample.insert(key)
            return
        key = self._next_key
        self._next_key += 1
        sample.insert(key)
        if key not in sample:
            return
        self._key_of[encoded] = key
        self._itemset_of[key] = encoded
        if len(self._itemset_of) > 2 * sample.distinct_in_sample + 64:
            # Drop the keys of itemsets the sample has since evicted.
            self._itemset_of = {
                held: self._itemset_of[held] for held, _ in sample.pairs()
            }
            self._key_of = {
                packed: held for held, packed in self._itemset_of.items()
            }

    def observe_many(self, baskets: Iterable[tuple[int, ...]]) -> None:
        """Process a stream of baskets in order."""
        for basket in baskets:
            self.observe(basket)

    def estimated_count(self, itemset: tuple[int, ...]) -> float:
        """Compensated occurrence estimate for one itemset (0 if the
        itemset is not in the synopsis)."""
        key = self._key_of.get(encode_itemset(tuple(sorted(itemset))))
        count = 0 if key is None else self.sample.count_of(key)
        if count == 0:
            return 0.0
        threshold = self.sample.threshold
        if threshold <= 1.0:
            return float(count)
        return count + max(0.0, compensation_constant(threshold))

    def report(self, k: int) -> HotListAnswer:
        """The ``k`` most frequent itemsets with estimated counts.

        Entry values are *encoded* itemsets; use
        :meth:`report_itemsets` for decoded tuples.
        """
        if k < 1:
            raise ValueError("k must be positive")
        counts = {
            self._itemset_of[key]: count for key, count in self.sample.pairs()
        }
        if not counts:
            return HotListAnswer(k=k)
        threshold = self.sample.threshold
        if threshold <= 1.0:
            cutoff = float(kth_largest(counts.values(), k))
            compensation = 0.0
        else:
            cutoff = max(
                float(kth_largest(counts.values(), k)),
                counting_report_cutoff(threshold),
            )
            compensation = max(0.0, compensation_constant(threshold))
        estimates = {
            value: count + compensation
            for value, count in counts.items()
            if count >= cutoff
        }
        return HotListAnswer(k=k, entries=order_entries(estimates))

    def report_itemsets(self, k: int) -> list[tuple[tuple[int, ...], float]]:
        """Decoded ``(itemset, estimated count)`` pairs, hottest first."""
        return [
            (decode_itemset(entry.value), entry.estimated_count)
            for entry in self.report(k)
        ]

    def support(self, itemset: tuple[int, ...]) -> float:
        """Estimated support: occurrences / baskets observed."""
        if self._baskets_observed == 0:
            return 0.0
        return self.estimated_count(itemset) / self._baskets_observed
