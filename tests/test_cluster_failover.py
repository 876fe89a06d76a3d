"""Crash failover: degraded answering, WAL-replay rejoin, fault plans."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ShardCrashed, ShardedWarehouse, ShardUnavailable
from repro.engine import CountQuery, FrequencyQuery
from repro.faults.plan import CRASH, FaultPlan
from repro.streams import zipf_stream

SHARDS = 2
STREAM = zipf_stream(8_000, 200, 1.25, seed=55)
HOT = int(np.bincount(STREAM).argmax())


@pytest.fixture
def cluster(tmp_path):
    with ShardedWarehouse(
        SHARDS, str(tmp_path), seed=31, sync_every=1
    ) as warehouse:
        warehouse.create_relation("s", ["v"])
        warehouse.register_synopsis("s", "v", footprint_bound=300)
        warehouse.load_batch("s", {"v": STREAM})
        yield warehouse


class TestFailoverAndRejoin:
    def test_survivors_answer_degraded_then_victim_rejoins(self, cluster):
        survivor_rows = cluster.stats()[1]["rows"]["s"]
        cluster.kill_shard(0)
        degraded = cluster.answer(CountQuery("s", "v"))
        assert degraded.degraded
        assert degraded.shards_responding == SHARDS - 1
        assert degraded.shards_total == SHARDS
        # The surviving shard's partition is all the answer covers.
        assert float(degraded.answer) == pytest.approx(survivor_rows)

        assert cluster.wait_until_healthy(timeout=60.0)
        assert cluster.shard_states() == ["up"] * SHARDS
        full = cluster.answer(CountQuery("s", "v"))
        assert not full.degraded
        assert float(full.answer) == pytest.approx(len(STREAM))

    def test_rejoined_shard_recovered_from_its_wal(self, cluster):
        before = cluster.stats()[0]["rows"]["s"]
        cluster.kill_shard(0)
        cluster.answer(CountQuery("s", "v"))  # trigger lazy detection
        assert cluster.wait_until_healthy(timeout=60.0)
        hello = cluster.hello_of(0)
        assert hello is not None
        # The respawned worker replayed its WAL rather than starting
        # empty: its recovered sequence covers the pre-kill ingest.
        assert hello["sequence"] > 0
        assert cluster.stats()[0]["rows"]["s"] == before
        merged = cluster.merged_synopsis("s", "v")
        merged.check_invariants()
        assert merged.total_inserted == len(STREAM)

    def test_routed_query_to_dead_owner_degrades(self, cluster):
        owner = 0 if cluster.stats()[0]["rows"]["s"] else 1
        # Find a value owned by the shard we are about to kill.
        from repro.cluster import shard_of_value

        value = next(
            int(v)
            for v in np.unique(STREAM)
            if shard_of_value(int(v), SHARDS) == owner
        )
        cluster.kill_shard(owner)
        answer = cluster.answer(FrequencyQuery("s", "v", value=value))
        # The owner is gone, so the routed path falls back to a
        # degraded scatter over the survivor -- which owns no rows
        # with this value.
        assert answer.degraded
        assert float(answer.answer) == 0.0

    def test_ingest_to_dead_owner_raises_until_rejoin(self, cluster):
        cluster.kill_shard(0)
        with pytest.raises((ShardCrashed, ShardUnavailable)):
            cluster.load_batch("s", {"v": STREAM})
        assert cluster.wait_until_healthy(timeout=60.0)
        assert cluster.load_batch("s", {"v": STREAM[:100]}) == 100

    def test_ingest_resumes_after_rejoin_and_count_covers_every_acked_row(
        self, cluster
    ):
        acked = len(STREAM)
        cluster.kill_shard(0)
        assert cluster.answer(CountQuery("s", "v")).degraded
        assert cluster.wait_until_healthy(timeout=60.0)
        for start in range(0, 3_000, 500):
            acked += cluster.load_batch(
                "s", {"v": STREAM[start : start + 500]}
            )
        final = cluster.answer(CountQuery("s", "v"))
        assert not final.degraded
        assert float(final.answer) == float(acked) == len(STREAM) + 3_000


class TestNoAutoRestart:
    def test_dead_shard_stays_down(self, tmp_path):
        with ShardedWarehouse(
            SHARDS,
            str(tmp_path),
            seed=32,
            sync_every=1,
            auto_restart=False,
        ) as warehouse:
            warehouse.create_relation("s", ["v"])
            warehouse.register_synopsis("s", "v", footprint_bound=300)
            warehouse.load_batch("s", {"v": STREAM})
            warehouse.kill_shard(1)
            degraded = warehouse.answer(CountQuery("s", "v"))
            assert degraded.degraded
            assert not warehouse.wait_until_healthy(timeout=0.5)
            assert "down" in warehouse.shard_states()
            again = warehouse.answer(CountQuery("s", "v"))
            assert again.degraded


class TestFaultPlans:
    def test_boot_crash_fails_start(self, tmp_path):
        # Operation index 0 is the first filesystem touch of recovery,
        # so the worker dies before saying hello.
        warehouse = ShardedWarehouse(
            SHARDS,
            str(tmp_path),
            seed=33,
            fault_plans={0: FaultPlan.single(0, CRASH)},
            auto_restart=False,
        )
        try:
            with pytest.raises(ShardUnavailable):
                warehouse.start()
        finally:
            warehouse.close()

    def test_planned_crash_mid_ingest_then_recovery(self, tmp_path):
        """A deterministic fault plan kills shard 0 partway through
        the ingest sequence; the coordinator detects the crash on the
        failing batch, restarts the worker without the plan (first
        incarnation only), and the fleet serves at full fidelity."""
        with ShardedWarehouse(
            SHARDS,
            str(tmp_path),
            seed=34,
            sync_every=1,
            fault_plans={0: FaultPlan.single(30, CRASH)},
        ) as warehouse:
            warehouse.create_relation("s", ["v"])
            warehouse.register_synopsis("s", "v", footprint_bound=300)
            crashed = False
            for start in range(0, 4_000, 200):
                try:
                    warehouse.load_batch(
                        "s", {"v": STREAM[start : start + 200]}
                    )
                except (ShardCrashed, ShardUnavailable):
                    crashed = True
                    break
            assert crashed, "the planned crash never fired"
            assert warehouse.wait_until_healthy(timeout=60.0)
            assert warehouse.shard_states() == ["up"] * SHARDS
            answer = warehouse.answer(CountQuery("s", "v"))
            assert not answer.degraded
            # Whatever the torn batch lost, both partitions answer.
            assert warehouse.load_batch("s", {"v": STREAM[:100]}) == 100
