"""Synopsis instrumentation: collectors, lifecycle probe, round-trip.

The acceptance test for the observability layer lives here:
with metrics enabled, the Prometheus text exposition is parsed back
and every gauge/ledger value must equal the state read directly off
the synopsis objects.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core import ConciseSample, CountingSample, ReservoirSample
from repro.core.merge import merge_concise, merge_counting
from repro.streams import zipf_stream


@pytest.fixture(autouse=True)
def _restore_obs_defaults():
    yield
    obs.disable()


def _labels(name: str, synopsis) -> dict[str, str]:
    return {"synopsis": name, "kind": synopsis.SNAPSHOT_KIND}


class TestPrometheusRoundTrip:
    """Exposition values == direct synopsis reads (acceptance bar)."""

    def test_gauges_and_ledger_match_direct_reads(self):
        registry = obs.enable()
        stream = zipf_stream(50_000, 5_000, 1.25, seed=3)
        synopses = {
            "s.concise": ConciseSample(500, seed=1),
            "s.counting": CountingSample(500, seed=2),
            "s.reservoir": ReservoirSample(300, seed=3),
        }
        for name, synopsis in synopses.items():
            obs.watch_synopsis(registry, synopsis, name)
            synopsis.insert_array(stream)

        parsed = obs.parse_prometheus(obs.render_prometheus(registry))

        def series(metric: str, labels: dict[str, str]) -> float:
            return parsed[metric][tuple(sorted(labels.items()))]

        for name, synopsis in synopses.items():
            labels = _labels(name, synopsis)
            assert series(
                "repro_synopsis_footprint_words", labels
            ) == float(synopsis.footprint)
            assert series(
                "repro_synopsis_stream_length", labels
            ) == float(synopsis.total_inserted)
            if hasattr(synopsis, "sample_size"):
                assert series(
                    "repro_synopsis_sample_size", labels
                ) == float(synopsis.sample_size)
            if hasattr(synopsis, "threshold"):
                assert series(
                    "repro_synopsis_threshold", labels
                ) == float(synopsis.threshold)
            assert series("repro_cost_flips_total", labels) == float(
                synopsis.counters.flips
            )
            assert series("repro_cost_inserts_total", labels) == float(
                synopsis.counters.inserts
            )
            assert series("repro_cost_lookups_total", labels) == float(
                synopsis.counters.lookups
            )

    def test_ledger_bridge_is_monotonic_across_scrapes(self):
        registry = obs.enable()
        sample = ConciseSample(200, seed=5)
        obs.watch_synopsis(registry, sample, "s.a")
        sample.insert_array(zipf_stream(10_000, 1_000, 1.0, seed=6))
        registry.collect()
        first = registry.value(
            "repro_cost_inserts_total", _labels("s.a", sample)
        )
        sample.insert_array(zipf_stream(10_000, 1_000, 1.0, seed=7))
        registry.collect()
        second = registry.value(
            "repro_cost_inserts_total", _labels("s.a", sample)
        )
        assert first == 10_000.0
        assert second == 20_000.0


class TestLifecycleProbe:
    def test_probe_defaults_to_none(self):
        from repro.obs import probe

        assert probe.PROBE is None

    def test_admissions_and_raises_counted(self):
        registry = obs.enable()
        sample = ConciseSample(100, seed=11)
        sample.insert_array(zipf_stream(50_000, 5_000, 1.0, seed=12))
        labels = {"kind": "concise-sample"}
        admissions = registry.value(
            "repro_synopsis_admissions_total", labels
        )
        raises = registry.value(
            "repro_synopsis_threshold_raises_total", labels
        )
        # Every current sample point was admitted at some point, and
        # the 100-word footprint forces many raises over 50K skewed
        # inserts.
        assert admissions >= sample.sample_size
        assert raises == sample.counters.threshold_raises > 0

    def test_per_element_path_counts_admissions_too(self):
        registry = obs.enable()
        sample = CountingSample(64, seed=13)
        for value in range(200):
            sample.insert(value % 40)
        labels = {"kind": "counting-sample"}
        assert (
            registry.value("repro_synopsis_admissions_total", labels) > 0
        )

    def test_eviction_survivor_accounting(self):
        registry = obs.enable()
        sample = ConciseSample(100, seed=14)
        sample.insert_array(zipf_stream(50_000, 50_000, 0.0, seed=15))
        labels = {"kind": "concise-sample"}
        survivors = registry.value(
            "repro_synopsis_eviction_survivors_total", labels
        )
        evictions = registry.value(
            "repro_synopsis_evictions_total", labels
        )
        assert survivors > 0
        assert evictions > 0

    def test_snapshot_events(self):
        registry = obs.enable()
        sample = ReservoirSample(10, seed=16)
        sample.insert_many(range(100))
        restored = ReservoirSample.from_dict(sample.to_dict(), seed=17)
        assert restored.sample_size == sample.sample_size
        assert (
            registry.value(
                "repro_synopsis_snapshot_events_total",
                {"kind": "reservoir-sample", "op": "dump"},
            )
            == 1.0
        )
        assert (
            registry.value(
                "repro_synopsis_snapshot_events_total",
                {"kind": "reservoir-sample", "op": "restore"},
            )
            == 1.0
        )

    def test_merge_events(self):
        registry = obs.enable()
        stream = zipf_stream(20_000, 2_000, 1.0, seed=18)
        concise_shards = [
            ConciseSample(200, seed=20 + i) for i in range(3)
        ]
        counting_shards = [
            CountingSample(200, seed=30 + i) for i in range(2)
        ]
        for shard in concise_shards + counting_shards:
            shard.insert_array(stream)
        merge_concise(concise_shards, seed=40)
        merge_counting(counting_shards, seed=41)
        assert (
            registry.value(
                "repro_synopsis_merges_total",
                {"kind": "concise-sample"},
            )
            == 1.0
        )
        assert (
            registry.value(
                "repro_synopsis_merged_shards_total",
                {"kind": "concise-sample"},
            )
            == 3.0
        )
        assert (
            registry.value(
                "repro_synopsis_merged_shards_total",
                {"kind": "counting-sample"},
            )
            == 2.0
        )

    def test_disabled_probe_records_nothing(self):
        # No enable(): the default no-op path must leave no trace and
        # produce an identical synopsis.
        seeded = ConciseSample(100, seed=60)
        seeded.insert_array(zipf_stream(20_000, 2_000, 1.0, seed=61))

        registry = obs.enable()
        obs.disable()
        mirrored = ConciseSample(100, seed=60)
        mirrored.insert_array(zipf_stream(20_000, 2_000, 1.0, seed=61))
        assert mirrored.as_dict() == seeded.as_dict()
        assert obs.render_prometheus(registry) == ""


class TestWatchDuckTyping:
    def test_minimal_synopsis_only_needs_footprint(self):
        class Minimal:
            footprint = 7

        registry = obs.enable()
        obs.watch_synopsis(registry, Minimal(), "m")
        parsed = obs.parse_prometheus(obs.render_prometheus(registry))
        labels = tuple(
            sorted({"synopsis": "m", "kind": "minimal"}.items())
        )
        assert parsed["repro_synopsis_footprint_words"][labels] == 7.0
