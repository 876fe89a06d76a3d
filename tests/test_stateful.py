"""Model-based (stateful) tests via hypothesis state machines.

Each machine drives a component through random operation sequences
while maintaining an exact reference model, checking the component's
observable behaviour against the model after every step.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.concise import ConciseSample
from repro.core.counting import CountingSample
from repro.core.merge import merge_concise, merge_counting
from repro.engine.relation import Relation
from repro.stats.frequency import FrequencyTable

values = st.integers(min_value=1, max_value=30)


COUNTING_BOUND = 16


class CountingSampleMachine(RuleBasedStateMachine):
    """CountingSample vs an exact live-multiset model.

    Checked properties: counts never exceed live frequencies, the
    footprint never exceeds its bound, internal bookkeeping stays
    consistent, and absent-value deletes are no-ops.  After every step
    ``columnar_view()`` equals ``as_dict()`` as a multiset, and a view
    taken before the step is byte-identical after it.
    """

    @initialize(seed=st.integers(min_value=0, max_value=2**16))
    def setup(self, seed):
        self.seed = seed
        self.sample = CountingSample(COUNTING_BOUND, seed=seed)
        self.live: Counter[int] = Counter()
        self.fresh = 1000
        self.held: list[tuple[np.ndarray, np.ndarray, bytes, bytes]] = []

    @rule(value=values)
    def insert(self, value):
        self.sample.insert(value)
        self.live[value] += 1

    @rule(batch=st.lists(values, max_size=40))
    def insert_array(self, batch):
        self.sample.insert_array(np.asarray(batch, np.int64))
        self.live.update(batch)

    @rule(value=values)
    def delete_if_live(self, value):
        if self.live[value] > 0:
            self.sample.delete(value)
            self.live[value] -= 1

    @rule(value=values)
    def delete_absent_from_sample(self, value):
        """Deleting a live value that happens not to be sampled is a
        legal no-op on the sample."""
        if self.live[value] > 0 and value not in self.sample:
            before = self.sample.as_dict()
            self.sample.delete(value)
            self.live[value] -= 1
            assert self.sample.as_dict() == before

    @rule(batch=st.booleans())
    def force_raise(self, batch):
        """Feed fresh distinct values until the threshold rises, through
        the per-row sweep or the vectorized one."""
        sample = self.sample
        before = sample.threshold
        for _ in range(10_000):
            if sample.threshold > before:
                break
            if batch:
                block = np.arange(self.fresh, self.fresh + 64, dtype=np.int64)
                sample.insert_array(block)
                self.live.update(block.tolist())
                self.fresh += 64
            else:
                sample.insert(self.fresh)
                self.live[self.fresh] += 1
                self.fresh += 1
        assert sample.threshold > before

    @rule()
    def restore(self):
        restored = CountingSample.from_dict(
            self.sample.to_dict(), seed=self.seed + 7
        )
        for old, new in zip(
            self.sample.columnar_view(),
            restored.columnar_view(),
            strict=True,
        ):
            assert np.array_equal(old, new)
        assert restored.total_inserted == self.sample.total_inserted
        self.sample = restored

    @rule(batch=st.lists(values, max_size=40))
    def merge(self, batch):
        """Merge with a shard that observed ``batch``; the live model is
        the union of both streams."""
        shard = CountingSample(COUNTING_BOUND, seed=self.seed + 3)
        shard.insert_array(np.asarray(batch, np.int64))
        before = [self.sample.as_dict(), shard.as_dict()]
        merged = merge_counting(
            [self.sample, shard],
            seed=self.seed + 11,
            footprint_bound=COUNTING_BOUND,
        )
        assert [self.sample.as_dict(), shard.as_dict()] == before
        assert merged.threshold >= max(
            self.sample.threshold, shard.threshold
        )
        self.sample = merged
        self.live.update(batch)

    @invariant()
    def counts_bounded_by_live(self):
        for value, count in self.sample.pairs():
            assert 0 < count <= self.live[value]

    @invariant()
    def footprint_bounded(self):
        assert self.sample.footprint <= COUNTING_BOUND
        self.sample.check_invariants()

    @invariant()
    def held_views_unchanged(self):
        for values_view, counts_view, values_bytes, counts_bytes in self.held:
            assert values_view.tobytes() == values_bytes
            assert counts_view.tobytes() == counts_bytes
        values_view, counts_view = self.sample.columnar_view()
        self.held = [
            (
                values_view,
                counts_view,
                values_view.tobytes(),
                counts_view.tobytes(),
            )
        ]

    @invariant()
    def view_matches_state(self):
        values_view, counts_view = self.sample.columnar_view()
        pairs = Counter(
            dict(zip(values_view.tolist(), counts_view.tolist(), strict=True))
        )
        assert len(pairs) == len(values_view) == self.sample.distinct_in_sample
        assert pairs == Counter(self.sample.as_dict())
        assert sum(pairs.values()) == self.sample.total_count
        assert self.sample.total_inserted == sum(self.live.values())
        for value, count in pairs.items():
            assert self.sample.count_of(value) == count


CONCISE_BOUND = 8


class ConciseSampleMachine(RuleBasedStateMachine):
    """Two ConciseSamples vs exact models of what each has observed.

    After every step each sample's ``columnar_view()`` equals its
    ``as_dict()`` pairs as a multiset, every sampled value was observed
    at least as often as it is sampled, the slot map agrees with the
    arrays, and a view taken before the step is byte-identical after
    it (a handed-out view never changes under its holder).
    """

    @initialize(seed=st.integers(min_value=0, max_value=2**16))
    def setup(self, seed):
        self.seed = seed
        self.samples = [
            ConciseSample(CONCISE_BOUND, seed=seed + i) for i in range(2)
        ]
        self.models: list[Counter[int]] = [Counter(), Counter()]
        self.fresh = 1000
        self.held: list[tuple[np.ndarray, np.ndarray, bytes, bytes]] = []

    @rule(which=st.integers(0, 1), value=values)
    def insert(self, which, value):
        self.samples[which].insert(value)
        self.models[which][value] += 1

    @rule(which=st.integers(0, 1), batch=st.lists(values, max_size=40))
    def insert_array(self, which, batch):
        self.samples[which].insert_array(np.asarray(batch, np.int64))
        self.models[which].update(batch)

    @rule(which=st.integers(0, 1), batch=st.booleans())
    def force_raise(self, which, batch):
        """Feed fresh distinct values until the threshold rises, through
        the per-row sweep or the vectorized one."""
        sample = self.samples[which]
        before = sample.threshold
        for _ in range(10_000):
            if sample.threshold > before:
                break
            if batch:
                block = np.arange(self.fresh, self.fresh + 64, dtype=np.int64)
                sample.insert_array(block)
                self.models[which].update(block.tolist())
                self.fresh += 64
            else:
                sample.insert(self.fresh)
                self.models[which][self.fresh] += 1
                self.fresh += 1
        assert sample.threshold > before

    @rule(which=st.integers(0, 1))
    def restore(self, which):
        sample = self.samples[which]
        restored = ConciseSample.from_dict(
            sample.to_dict(), seed=self.seed + 7
        )
        for old, new in zip(
            sample.columnar_view(), restored.columnar_view(), strict=True
        ):
            assert np.array_equal(old, new)
        self.samples[which] = restored

    @rule()
    def merge(self):
        before = [sample.as_dict() for sample in self.samples]
        merged = merge_concise(
            self.samples, seed=self.seed + 11, footprint_bound=CONCISE_BOUND
        )
        assert [sample.as_dict() for sample in self.samples] == before
        self.samples = [merged, ConciseSample(CONCISE_BOUND, seed=self.seed)]
        self.models = [self.models[0] + self.models[1], Counter()]

    @invariant()
    def held_views_unchanged(self):
        for values_view, counts_view, values_bytes, counts_bytes in self.held:
            assert values_view.tobytes() == values_bytes
            assert counts_view.tobytes() == counts_bytes
        self.held = []
        for sample in self.samples:
            values_view, counts_view = sample.columnar_view()
            self.held.append(
                (
                    values_view,
                    counts_view,
                    values_view.tobytes(),
                    counts_view.tobytes(),
                )
            )

    @invariant()
    def view_matches_state(self):
        for sample, model in zip(self.samples, self.models, strict=True):
            sample.check_invariants()
            values_view, counts_view = sample.columnar_view()
            pairs = Counter(
                dict(zip(values_view.tolist(), counts_view.tolist(), strict=True))
            )
            assert len(pairs) == len(values_view) == sample.distinct_in_sample
            assert pairs == Counter(sample.as_dict())
            assert sum(pairs.values()) == sample.sample_size
            assert sample.footprint <= CONCISE_BOUND
            assert sample.total_inserted == sum(model.values())
            for value, count in pairs.items():
                assert sample.count_of(value) == count
                assert 0 < count <= model[value]


class RelationMachine(RuleBasedStateMachine):
    """Relation vs a Counter-of-rows model."""

    @initialize()
    def setup(self):
        self.relation = Relation("r", ["a", "b"])
        self.model: Counter[tuple] = Counter()

    @rule(a=values, b=values)
    def insert(self, a, b):
        self.relation.insert((a, b))
        self.model[(a, b)] += 1

    @rule(a=values, b=values)
    def delete_if_present(self, a, b):
        if self.model[(a, b)] > 0:
            self.relation.delete((a, b))
            self.model[(a, b)] -= 1

    @invariant()
    def sizes_match(self):
        assert len(self.relation) == sum(self.model.values())

    @invariant()
    def column_matches_model(self):
        expected = Counter()
        for (a, _), count in self.model.items():
            if count:
                expected[a] += count
        assert Counter(self.relation.column("a").tolist()) == expected


class FrequencyTableMachine(RuleBasedStateMachine):
    """FrequencyTable vs collections.Counter."""

    @initialize()
    def setup(self):
        self.table = FrequencyTable()
        self.model: Counter[int] = Counter()

    @rule(value=values)
    def insert(self, value):
        self.table.insert(value)
        self.model[value] += 1

    @rule(value=values)
    def delete_if_present(self, value):
        if self.model[value] > 0:
            self.table.delete(value)
            self.model[value] -= 1

    @precondition(lambda self: sum(self.model.values()) > 0)
    @rule()
    def mode_matches(self):
        value, count = self.table.mode()
        assert count == max(self.model.values())
        assert self.model[value] == count

    @invariant()
    def state_matches(self):
        assert self.table.as_dict() == {
            v: c for v, c in self.model.items() if c > 0
        }
        assert self.table.total == sum(self.model.values())


TestCountingSampleMachine = CountingSampleMachine.TestCase
TestConciseSampleMachine = ConciseSampleMachine.TestCase
TestRelationMachine = RelationMachine.TestCase
TestFrequencyTableMachine = FrequencyTableMachine.TestCase

for machine in (
    TestCountingSampleMachine,
    TestConciseSampleMachine,
    TestRelationMachine,
    TestFrequencyTableMachine,
):
    machine.settings = settings(
        max_examples=60, stateful_step_count=40, deadline=None
    )
